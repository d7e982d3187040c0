package series

import "math"

// ZNormalize returns a z-normalized copy of w: zero mean, unit population
// standard deviation. A constant window (σ = 0) normalizes to all zeros,
// the standard matrix-profile convention.
func ZNormalize(w []float64) []float64 {
	out := make([]float64, len(w))
	mean, std := MeanStdTwoPass(w)
	if std == 0 {
		return out
	}
	for i, v := range w {
		out[i] = (v - mean) / std
	}
	return out
}

// ZNormDist returns the z-normalized Euclidean distance between two equal
// length windows, computed directly (O(m)). It panics when lengths differ.
//
// Degenerate convention: when both windows are constant the distance is 0;
// when exactly one is constant it is √(2m), the distance between any
// unit-energy z-normalized vector and the zero vector scaled to the
// 2m(1−ρ) form with ρ = 0.
func ZNormDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("series: ZNormDist length mismatch")
	}
	m := len(a)
	if m == 0 {
		return 0
	}
	muA, sdA := MeanStdTwoPass(a)
	muB, sdB := MeanStdTwoPass(b)
	if sdA == 0 && sdB == 0 {
		return 0
	}
	if sdA == 0 || sdB == 0 {
		return math.Sqrt(2 * float64(m))
	}
	// ρ comes from the mean-centred products Σ(aᵢ−μa)(bᵢ−μb): forming it
	// from the raw dot product minus m·μa·μb cancels catastrophically when
	// the means dominate the spread. The centred sum is the dot product of
	// two zero-mean windows, so DistFromDot takes it with zero means.
	var cov float64
	for i := range a {
		cov += float64((a[i] - muA) * (b[i] - muB))
	}
	return DistFromDot(cov, float64(m), 0, sdA, 0, sdB)
}

// DistFromDot converts a raw dot product QT = Σ aᵢbᵢ between two length-m
// windows with the given moments into the z-normalized Euclidean distance
// d = sqrt(2m(1−ρ)), ρ = (QT − m·μa·μb)/(m·σa·σb). The correlation is
// clamped to [−1, 1] so floating-point noise can never produce NaN.
// Degenerate σ handling follows ZNormDist.
func DistFromDot(qt, m, muA, sdA, muB, sdB float64) float64 {
	if sdA == 0 && sdB == 0 {
		return 0
	}
	if sdA == 0 || sdB == 0 {
		return math.Sqrt(2 * m)
	}
	rho := (qt - float64(m*muA*muB)) / (m * sdA * sdB)
	if rho > 1 {
		rho = 1
	} else if rho < -1 {
		rho = -1
	}
	return math.Sqrt(2 * m * (1 - rho))
}

// CorrFromDot returns the Pearson correlation implied by a dot product,
// clamped to [−1, 1]. Degenerate σ yields 0 (one constant window) or 1
// (both constant), matching the distance conventions above.
func CorrFromDot(qt, m, muA, sdA, muB, sdB float64) float64 {
	if sdA == 0 && sdB == 0 {
		return 1
	}
	if sdA == 0 || sdB == 0 {
		return 0
	}
	rho := (qt - float64(m*muA*muB)) / (m * sdA * sdB)
	if rho > 1 {
		return 1
	}
	if rho < -1 {
		return -1
	}
	return rho
}

// Dot returns the plain dot product of two equal-length windows, summed
// from zero in ascending order with each product rounded before its add
// (an explicit float64, so no architecture fuses them): the same bits as
// kernels.DotRow's cell.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("series: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// LengthNormalize converts a z-normalized Euclidean distance of length-ℓ
// subsequences into the paper's length-normalized distance d·sqrt(1/ℓ),
// which makes motifs of different lengths comparable (demo §"Rank Motif
// Pairs of Variable Lengths").
func LengthNormalize(d float64, l int) float64 {
	return d * math.Sqrt(1/float64(l))
}
