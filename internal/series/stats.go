package series

import "math"

// Stats holds precomputed cumulative sums of a series, from which the mean
// and population standard deviation of any subsequence are recovered in
// O(1). One Stats value serves every subsequence length, which is what the
// VALMOD per-length loop needs: a fresh pair of μ/σ arrays per length would
// cost O(n) per length anyway, but the cumulative sums are shared.
//
// Beside the sums, Stats records where each run of equal values starts. A
// window of one repeated value has σ = 0 exactly, but the sums can lose it
// to cancellation and leave a tiny σ > 0, and the engine's σ = 0
// conventions would then not apply to it. The run starts let Var, Std and
// MeanStd return an exact 0 for every such window.
type Stats struct {
	// cum[i] = Σ_{t<i} x_t, cumSq[i] = Σ_{t<i} x_t²; both have length n+1.
	cum   []float64
	cumSq []float64
	// runStart[i] is the first index of the run of equal values holding
	// x_i, so x[i:i+m] is constant exactly when runStart[i+m−1] ≤ i.
	runStart []int
	last     float64 // x_{n−1}, which the next appended point is compared with
	n        int
}

// NewStats precomputes cumulative sums for x.
func NewStats(x []float64) *Stats {
	st := &Stats{
		cum:      make([]float64, 1, len(x)+1),
		cumSq:    make([]float64, 1, len(x)+1),
		runStart: make([]int, 0, len(x)),
	}
	st.Append(x)
	return st
}

// Reset recomputes st for the series x in place, reusing its storage; the
// result is bit-identical to NewStats(x). A sliding window that rebuilds
// its sums after every eviction then allocates nothing once its arrays
// have grown to the window's size.
func (st *Stats) Reset(x []float64) {
	st.cum, st.cumSq, st.runStart, st.n = st.cum[:1], st.cumSq[:1], st.runStart[:0], 0
	st.Append(x)
}

// N returns the length of the underlying series.
func (st *Stats) N() int { return st.n }

// Append extends the cumulative sums and the run starts for points
// appended to the series. Because both accumulate strictly left to right,
// the extended arrays are bit-identical to a NewStats rebuild over the
// whole series — the streaming engine relies on this to keep appended
// moments exactly equal to their batch counterparts.
func (st *Stats) Append(x []float64) {
	for _, v := range x {
		start := st.n
		if st.n > 0 && v == st.last {
			start = st.runStart[st.n-1]
		}
		st.runStart = append(st.runStart, start)
		st.cum = append(st.cum, st.cum[st.n]+v)
		st.cumSq = append(st.cumSq, st.cumSq[st.n]+v*v)
		st.last = v
		st.n++
	}
}

// constant reports whether every point of x[i:i+m] is equal.
func (st *Stats) constant(i, m int) bool { return st.runStart[i+m-1] <= i }

// Sum returns Σ x[i:i+m].
func (st *Stats) Sum(i, m int) float64 { return st.cum[i+m] - st.cum[i] }

// SumSq returns Σ x[i:i+m]².
func (st *Stats) SumSq(i, m int) float64 { return st.cumSq[i+m] - st.cumSq[i] }

// Mean returns the mean of x[i:i+m].
func (st *Stats) Mean(i, m int) float64 {
	return st.Sum(i, m) / float64(m)
}

// Var returns the population variance of x[i:i+m], clamped at zero to guard
// against catastrophic cancellation on near-constant windows. A window of
// one repeated value (a single point included) has variance exactly 0.
func (st *Stats) Var(i, m int) float64 {
	if st.constant(i, m) {
		return 0
	}
	mu := st.Mean(i, m)
	v := st.SumSq(i, m)/float64(m) - mu*mu
	if v < 0 {
		return 0
	}
	return v
}

// Std returns the population standard deviation of x[i:i+m].
func (st *Stats) Std(i, m int) float64 { return math.Sqrt(st.Var(i, m)) }

// MeanStd returns both moments of x[i:i+m] with one pass over the sums;
// like Var, it gives a window of one repeated value σ = 0 exactly.
func (st *Stats) MeanStd(i, m int) (mean, std float64) {
	mean = st.Sum(i, m) / float64(m)
	if st.constant(i, m) {
		return mean, 0
	}
	v := st.SumSq(i, m)/float64(m) - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// SlidingMeanStd computes μ and σ (population) of every length-m window of
// x directly, without a Stats value. It returns slices of length
// len(x)-m+1, or nils when m is out of range. This is the two-pass
// reference used in tests and by callers that need whole arrays at once.
func SlidingMeanStd(x []float64, m int) (means, stds []float64) {
	n := len(x)
	if m <= 0 || m > n {
		return nil, nil
	}
	k := n - m + 1
	means = make([]float64, k)
	stds = make([]float64, k)
	st := NewStats(x)
	for i := 0; i < k; i++ {
		means[i], stds[i] = st.MeanStd(i, m)
	}
	return means, stds
}

// MeanStdTwoPass computes the moments of one window precisely with a
// two-pass algorithm. It is the numerical ground truth the cumulative-sum
// path is tested against.
func MeanStdTwoPass(w []float64) (mean, std float64) {
	n := float64(len(w))
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	mean = sum / n
	var ss float64
	for _, v := range w {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / n)
}
