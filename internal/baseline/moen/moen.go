// Package moen reimplements MOEN (Mueen, "Enumeration of Time Series Motifs
// of All Lengths", ICDM 2013): the exact best motif pair for every length in
// a range, computed without a full O(n²) join per length.
//
// Faithfulness note: the original binary is closed; this
// implementation keeps MOEN's architecture — enumerate lengths, carry the
// previous length's best pair forward as the initial best-so-far, prune
// candidate pairs with reference-distance lower bounds (the MK ordering
// Mueen's family of algorithms is built on), verify survivors with
// early-abandoning z-normalized distances. It is exact: every reported pair
// equals the STOMP motif at that length (tested against brute force).
//
// The reference bound relies on the z-normalized distance being a metric on
// the z-normalized vectors, so degenerate (constant) windows — whose
// reported distance follows the √(2m) convention, larger than the metric
// value √m — are bounded with the metric-true value, which only loosens the
// pruning and never sacrifices exactness.
package moen

import (
	"context"
	"math"
	"sort"

	"github.com/seriesmining/valmod/internal/baseline"
	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// DefaultReferences is the number of reference subsequences used for the
// pruning order.
const DefaultReferences = 4

// Config parameterizes a MOEN run.
type Config struct {
	LMin, LMax      int
	ExclusionFactor int // default 4
	References      int // default 4
}

// Run returns the exact best motif pair of every length in [LMin, LMax].
// On context expiry it returns the completed lengths with ErrCanceled.
func Run(ctx context.Context, t []float64, cfg Config) ([]baseline.LengthResult, error) {
	if cfg.References <= 0 {
		cfg.References = DefaultReferences
	}
	var out []baseline.LengthResult
	var prev profile.MotifPair
	havePrev := false
	for m := cfg.LMin; m <= cfg.LMax; m++ {
		if baseline.Canceled(ctx) {
			return out, baseline.ErrCanceled
		}
		var seed []profile.MotifPair
		if havePrev && prev.A+m <= len(t) && prev.B+m <= len(t) {
			seed = append(seed, profile.MotifPair{A: prev.A, B: prev.B, M: m})
		}
		pair, ok := bestPair(t, m, cfg.ExclusionFactor, cfg.References, seed)
		lr := baseline.LengthResult{M: m}
		if ok {
			lr.Pairs = []profile.MotifPair{pair}
			prev, havePrev = pair, true
		}
		out = append(out, lr)
	}
	return out, nil
}

// metricProfile returns distances from the subsequence at ref to every
// offset, using the metric-true degenerate convention (√m for exactly one
// constant window) required by the triangle-inequality bound.
func metricProfile(t []float64, ref, m int, means, stds []float64) []float64 {
	qt := fft.SlidingDotProducts(t[ref:ref+m], t)
	out := make([]float64, len(qt))
	fm := float64(m)
	muR, sdR := means[ref], stds[ref]
	for j := range qt {
		muJ, sdJ := means[j], stds[j]
		switch {
		case sdR == 0 && sdJ == 0:
			out[j] = 0
		case sdR == 0 || sdJ == 0:
			out[j] = math.Sqrt(fm)
		default:
			out[j] = series.DistFromDot(qt[j], fm, muR, sdR, muJ, sdJ)
		}
	}
	return out
}

// bestPair finds the exact motif pair at length m. seed pairs (if any) are
// verified first to initialize the best-so-far.
func bestPair(t []float64, m, exclFactor, nRefs int, seed []profile.MotifPair) (profile.MotifPair, bool) {
	n := len(t)
	s := n - m + 1
	excl := profile.ExclusionZone(m, exclFactor)
	if s <= excl || m < 2 {
		return profile.MotifPair{}, false
	}
	means, stds := series.SlidingMeanStd(t, m)

	bsf := math.Inf(1)
	best := profile.MotifPair{M: m}
	found := false
	try := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if b-a < excl {
			return
		}
		d := earlyAbandonDist(t, a, b, m, means, stds, bsf)
		if d < bsf {
			bsf = d
			best = profile.MotifPair{A: a, B: b, M: m, Dist: d}
			found = true
		}
	}
	for _, p := range seed {
		try(p.A, p.B)
	}

	// Reference distances: first reference orders candidates, all of them
	// sharpen the pairwise lower bound max_r |D_r(a) − D_r(b)|.
	if nRefs > s {
		nRefs = s
	}
	refs := make([]int, 0, nRefs)
	for r := 0; r < nRefs; r++ {
		refs = append(refs, r*(s-1)/maxInt(nRefs-1, 1))
	}
	dRef := make([][]float64, len(refs))
	for ri, r := range refs {
		dRef[ri] = metricProfile(t, r, m, means, stds)
	}

	// Order offsets by distance to the first reference.
	order := make([]int, s)
	for i := range order {
		order[i] = i
	}
	d0 := dRef[0]
	sort.Slice(order, func(a, b int) bool { return d0[order[a]] < d0[order[b]] })

	// MK scan: for growing rank gap g, test pairs (order[i], order[i+g]).
	// Within the first-reference ordering, the gap d0[order[i+g]]−d0[order[i]]
	// is non-decreasing in g for each i, so the scan stops at the first g
	// whose smallest gap reaches bsf.
	for g := 1; g < s; g++ {
		minGap := math.Inf(1)
		for i := 0; i+g < s; i++ {
			a, b := order[i], order[i+g]
			gap := d0[b] - d0[a]
			if gap < minGap {
				minGap = gap
			}
			if gap >= bsf {
				continue
			}
			lbMax := gap
			for ri := 1; ri < len(dRef); ri++ {
				if lb := math.Abs(dRef[ri][a] - dRef[ri][b]); lb > lbMax {
					lbMax = lb
				}
			}
			if lbMax >= bsf {
				continue
			}
			try(a, b)
		}
		if minGap >= bsf {
			break
		}
	}
	return best, found
}

// earlyAbandonDist computes the z-normalized distance between windows a and
// b of length m, abandoning once the running sum exceeds cutoff².
func earlyAbandonDist(t []float64, a, b, m int, means, stds []float64, cutoff float64) float64 {
	sdA, sdB := stds[a], stds[b]
	fm := float64(m)
	if sdA == 0 && sdB == 0 {
		return 0
	}
	if sdA == 0 || sdB == 0 {
		return math.Sqrt(2 * fm)
	}
	muA, muB := means[a], means[b]
	limit := math.Inf(1)
	if !math.IsInf(cutoff, 1) {
		limit = cutoff * cutoff
	}
	var acc float64
	for i := 0; i < m; i++ {
		da := (t[a+i] - muA) / sdA
		db := (t[b+i] - muB) / sdB
		diff := da - db
		acc += diff * diff
		if acc >= limit {
			return math.Sqrt(acc) // already ≥ cutoff; exact value unneeded
		}
	}
	return math.Sqrt(acc)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
