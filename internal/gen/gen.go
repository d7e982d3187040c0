// Package gen synthesizes the evaluation workloads. The paper benchmarks on
// real recordings (ECG, ASTRO celestial series, plus Seismology and
// Entomology demo datasets) that are not redistributable here; these
// generators produce series with the same structural properties the
// algorithms are sensitive to — quasi-periodic repeated patterns whose
// instances vary in length, amplitude and phase, over realistic noise —
// so every code path the paper exercises is exercised.
//
// All generators are deterministic in their seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/seriesmining/valmod/internal/series"
)

// ECG generates an electrocardiogram-like series: a PQRST beat modeled as a
// sum of Gaussian bumps, beat-to-beat (RR) interval and amplitude jitter,
// slow baseline wander, and measurement noise. Typical beat span is ~220
// samples, so motifs live at the scales the paper's Figure 1 explores
// (ℓ ∈ [50, 400]).
func ECG(n int, seed int64) *series.Series {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)

	// PQRST wave template: center (fraction of beat), width (fraction),
	// amplitude — loosely the ECGSYN morphology.
	waves := []struct{ center, width, amp float64 }{
		{0.15, 0.040, 0.18},  // P
		{0.26, 0.012, -0.12}, // Q
		{0.30, 0.016, 1.40},  // R
		{0.34, 0.014, -0.30}, // S
		{0.55, 0.060, 0.35},  // T
	}
	pos := 0
	for pos < n {
		beat := 204 + rng.Intn(22) // ~10% RR jitter, physiological range
		ampScale := 1 + 0.08*rng.NormFloat64()
		for i := 0; i < beat && pos+i < n; i++ {
			f := float64(i) / float64(beat)
			v := 0.0
			for _, w := range waves {
				d := (f - w.center) / w.width
				v += w.amp * math.Exp(-0.5*d*d)
			}
			x[pos+i] += v * ampScale
		}
		pos += beat
	}
	for i := range x {
		wander := 0.15*math.Sin(2*math.Pi*float64(i)/2400) + 0.08*math.Sin(2*math.Pi*float64(i)/901)
		x[i] += wander + 0.02*rng.NormFloat64()
	}
	return series.New("ECG", x)
}

// Astro generates a celestial-object light-curve-like series: superposed
// variable-star pulsation modes with slow amplitude modulation, occasional
// transit-like box dips, and photometric noise.
func Astro(n int, seed int64) *series.Series {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	modes := []struct{ period, amp, phase float64 }{
		{173, 1.00, rng.Float64() * 2 * math.Pi},
		{89, 0.45, rng.Float64() * 2 * math.Pi},
		{311, 0.30, rng.Float64() * 2 * math.Pi},
	}
	for i := range x {
		f := float64(i)
		v := 0.0
		for _, m := range modes {
			mod := 1 + 0.25*math.Sin(2*math.Pi*f/(m.period*13.7)+m.phase)
			v += m.amp * mod * math.Sin(2*math.Pi*f/m.period+m.phase)
		}
		x[i] = v + 0.05*rng.NormFloat64()
	}
	// Transit dips: box-shaped flux drops of varying duration.
	for pos := 900 + rng.Intn(600); pos < n-200; pos += 1500 + rng.Intn(900) {
		dur := 40 + rng.Intn(80)
		depth := 0.6 + 0.5*rng.Float64()
		for i := 0; i < dur && pos+i < n; i++ {
			edge := math.Min(float64(i)/8, math.Min(float64(dur-i)/8, 1))
			x[pos+i] -= depth * edge
		}
	}
	return series.New("ASTRO", x)
}

// Seismic generates a seismogram-like series: a low noise floor punctuated
// by AR(2)-resonant events with exponentially decaying envelopes and
// variable durations — the repeated-event-of-unknown-duration workload that
// motivates variable-length motif discovery.
func Seismic(n int, seed int64) *series.Series {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.03 * rng.NormFloat64()
	}
	pos := 400 + rng.Intn(300)
	for pos < n-600 {
		dur := 250 + rng.Intn(350)
		// AR(2) resonance: y_t = a1·y_{t-1} + a2·y_{t-2} + shock.
		freq := 0.12 + 0.06*rng.Float64()
		r := 0.995
		a1 := 2 * r * math.Cos(freq)
		a2 := -r * r
		y1, y2 := 0.0, 0.0
		for i := 0; i < dur && pos+i < n; i++ {
			shock := 0.0
			if i < 12 {
				shock = rng.NormFloat64()
			}
			y := a1*y1 + a2*y2 + shock
			y2, y1 = y1, y
			env := math.Exp(-3 * float64(i) / float64(dur))
			x[pos+i] += 1.6 * env * y
		}
		pos += dur + 700 + rng.Intn(1200)
	}
	return series.New("SEISMIC", x)
}

// EPG generates an electrical-penetration-graph-like series (entomology:
// insect feeding behavior): alternating behavioral states — non-probing
// baseline, probing (fast small oscillations), and ingestion (slow sawtooth
// waves) — each with a random duration, which is exactly the
// variable-length repeated structure the demo's entomology scenario shows.
func EPG(n int, seed int64) *series.Series {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	pos := 0
	state := 0
	for pos < n {
		var dur int
		switch state {
		case 0: // baseline
			dur = 150 + rng.Intn(250)
			for i := 0; i < dur && pos+i < n; i++ {
				x[pos+i] = 0.1 + 0.02*rng.NormFloat64()
			}
		case 1: // probing: fast oscillation with drift
			dur = 200 + rng.Intn(300)
			phase := rng.Float64() * 2 * math.Pi
			for i := 0; i < dur && pos+i < n; i++ {
				f := float64(i)
				x[pos+i] = 0.8 + 0.3*math.Sin(f*0.9+phase) + 0.004*f + 0.03*rng.NormFloat64()
			}
		default: // ingestion: sawtooth waves, period varies per episode
			dur = 300 + rng.Intn(500)
			period := 45 + rng.Intn(30)
			for i := 0; i < dur && pos+i < n; i++ {
				saw := math.Mod(float64(i), float64(period)) / float64(period)
				x[pos+i] = 1.6 + 0.5*saw + 0.03*rng.NormFloat64()
			}
		}
		pos += dur
		state = (state + 1) % 3
	}
	return series.New("EPG", x)
}

// RandomWalk generates a cumulative-sum-of-Gaussian series, the standard
// unstructured control workload.
func RandomWalk(n int, seed int64) *series.Series {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	v := 0.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
	}
	return series.New("RANDOMWALK", x)
}

// WhiteNoise generates i.i.d. Gaussian samples.
func WhiteNoise(n int, seed int64) *series.Series {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return series.New("NOISE", x)
}

// SineMix generates a deterministic blend of incommensurate sinusoids —
// dense multi-scale motif structure with no randomness at all.
func SineMix(n int) *series.Series {
	x := make([]float64, n)
	for i := range x {
		f := float64(i)
		x[i] = math.Sin(f*0.21) + 0.5*math.Sin(f*0.043) + 0.2*math.Sin(f*0.009)
	}
	return series.New("SINEMIX", x)
}

// PlantMotif overwrites s with reps noisy instances of a smooth pattern of
// length m at the returned offsets (evenly spaced), for ground-truth
// recovery tests. noise is the per-point jitter σ.
func PlantMotif(s *series.Series, m, reps int, noise float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	n := s.Len()
	offsets := make([]int, 0, reps)
	gap := n / (reps + 1)
	shape := make([]float64, m)
	for i := range shape {
		f := float64(i)
		shape[i] = math.Sin(f*0.31) + 0.6*math.Cos(f*0.11)
	}
	for r := 0; r < reps; r++ {
		off := gap * (r + 1)
		if off+m > n {
			break
		}
		offsets = append(offsets, off)
		for i := 0; i < m; i++ {
			s.Values[off+i] = shape[i]*6 + noise*rng.NormFloat64()
		}
	}
	return offsets
}

// Dataset dispatches by name ("ecg", "astro", "seismic", "epg",
// "randomwalk", "noise", "sinemix"); it is the surface the CLI tools and
// the experiment harness share.
func Dataset(name string, n int, seed int64) (*series.Series, error) {
	switch name {
	case "ecg", "ECG":
		return ECG(n, seed), nil
	case "astro", "ASTRO":
		return Astro(n, seed), nil
	case "seismic", "SEISMIC":
		return Seismic(n, seed), nil
	case "epg", "EPG":
		return EPG(n, seed), nil
	case "randomwalk", "RANDOMWALK":
		return RandomWalk(n, seed), nil
	case "noise", "NOISE":
		return WhiteNoise(n, seed), nil
	case "sinemix", "SINEMIX":
		return SineMix(n), nil
	default:
		return nil, fmt.Errorf("gen: unknown dataset %q", name)
	}
}

// Names lists the datasets Dataset accepts.
func Names() []string {
	return []string{"ecg", "astro", "seismic", "epg", "randomwalk", "noise", "sinemix"}
}
