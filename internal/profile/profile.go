// Package profile defines the matrix-profile data structures shared by
// STOMP, VALMOD and the baselines: the MatrixProfile itself (distance +
// index profile, demo Figure 1 a–c), exclusion zones for trivial matches,
// top-k motif-pair extraction and discord extraction.
package profile

import (
	"fmt"
	"math"
	"slices"
)

// DefaultExclusionFactor is the denominator of the trivial-match exclusion
// zone: offsets closer than ⌈m/4⌉ are never matched, the Matrix Profile I
// convention.
const DefaultExclusionFactor = 4

// ExclusionZone returns the trivial-match radius for subsequence length m:
// ⌈m/factor⌉, at least 1. A non-positive factor selects the default.
func ExclusionZone(m, factor int) int {
	if factor <= 0 {
		factor = DefaultExclusionFactor
	}
	z := (m + factor - 1) / factor
	if z < 1 {
		z = 1
	}
	return z
}

// MatrixProfile is the classic meta data series: for every subsequence
// offset, the z-normalized distance to its nearest non-trivial neighbor and
// that neighbor's offset.
type MatrixProfile struct {
	// M is the subsequence length the profile was computed at.
	M int
	// Exclusion is the trivial-match radius used.
	Exclusion int
	// Dist[i] is the distance from subsequence i to its nearest neighbor.
	Dist []float64
	// Index[i] is the offset of that nearest neighbor (-1 when none exists,
	// e.g. the series is too short to have any non-trivial pair).
	Index []int
}

// New returns a MatrixProfile with n slots initialized to +Inf / -1.
func New(m, exclusion, n int) *MatrixProfile {
	mp := &MatrixProfile{}
	mp.Reset(m, exclusion, n)
	return mp
}

// Reset reinitializes mp in place for (m, exclusion, n), reusing the
// backing arrays when they are large enough — the zero-alloc path for
// callers that recycle one scratch profile across lengths.
func (mp *MatrixProfile) Reset(m, exclusion, n int) {
	mp.M = m
	mp.Exclusion = exclusion
	if cap(mp.Dist) < n {
		mp.Dist = make([]float64, n)
		mp.Index = make([]int, n)
	}
	mp.Dist = mp.Dist[:n]
	mp.Index = mp.Index[:n]
	for i := range mp.Dist {
		mp.Dist[i] = math.Inf(1)
		mp.Index[i] = -1
	}
}

// Len returns the number of profile entries.
func (mp *MatrixProfile) Len() int { return len(mp.Dist) }

// Update lowers entry i to (d, j) when d improves on the current value.
func (mp *MatrixProfile) Update(i int, d float64, j int) {
	if d < mp.Dist[i] {
		mp.Dist[i] = d
		mp.Index[i] = j
	}
}

// Min returns the smallest profile value and its offset; (+Inf, -1) when the
// profile is empty or nothing was ever updated.
func (mp *MatrixProfile) Min() (d float64, i int) {
	d, i = math.Inf(1), -1
	for k, v := range mp.Dist {
		if v < d {
			d, i = v, k
		}
	}
	return d, i
}

// MotifPair is a pair of subsequences and their distance. By the paper's
// convention A is the left (smaller-offset) subsequence and B its best
// match.
type MotifPair struct {
	A, B int     // subsequence offsets, A < B
	M    int     // subsequence length
	Dist float64 // z-normalized Euclidean distance
}

// NormDist returns the length-normalized distance d·√(1/m) used to rank
// motif pairs of different lengths.
func (p MotifPair) NormDist() float64 {
	return p.Dist * math.Sqrt(1/float64(p.M))
}

func (p MotifPair) String() string {
	return fmt.Sprintf("motif{A=%d B=%d m=%d d=%.4f}", p.A, p.B, p.M, p.Dist)
}

// TopKScratch is the reusable working memory of TopKPairsInto: the
// bounded candidate heap, the used-offset list, and the output slice.
// A zero value is ready to use; one scratch serves any number of calls.
type TopKScratch struct {
	cands []pairCand
	used  []int
	out   []MotifPair
}

// TopKPairs extracts the k best non-overlapping motif pairs from the
// profile. Pairs are emitted in ascending distance order; once a pair is
// chosen, any candidate whose either endpoint lies within the exclusion zone
// of an already-chosen endpoint is skipped, the standard de-duplication that
// stops one deep valley from occupying all k slots. The returned slice is
// freshly allocated; hot callers use TopKPairsInto with a retained scratch.
func (mp *MatrixProfile) TopKPairs(k int) []MotifPair {
	var sc TopKScratch
	return mp.TopKPairsInto(k, &sc)
}

// TopKPairsInto is TopKPairs backed by caller-owned scratch: the returned
// slice aliases sc and is valid only until the next call with the same
// scratch — callers that retain results must copy them out.
func (mp *MatrixProfile) TopKPairsInto(k int, sc *TopKScratch) []MotifPair {
	if k <= 0 {
		return nil
	}
	// Partial selection instead of a full sort: VALMOD calls this once (or
	// more, in the recompute fixpoint) per length, and sorting all s
	// candidates was the dominant serial cost of a pruned length. The
	// de-duplication can in principle skip many candidates (every anchor
	// may point into one already-used valley), so selection is retried with
	// a growing candidate pool until either k pairs are extracted or the
	// pool provably covers every candidate — the output is identical to the
	// full sort.
	//
	// Every slot holds at most one candidate and every pair consumes one,
	// so k and the pool are bounded by the slot count before any
	// arithmetic: a huge k neither sizes the pool nor overflows 4k, and
	// the output equals the k = len(mp.Dist) call.
	n := len(mp.Dist)
	if k > n {
		k = n
	}
	limit := 4*k + 16
	for {
		if limit > n {
			limit = n
		}
		pairs, exhausted := mp.topKPairsLimited(k, limit, sc)
		if len(pairs) >= k || exhausted {
			return pairs
		}
		limit *= 4
	}
}

type pairCand struct {
	i int
	d float64
}

// candLess is the extraction order: ascending distance, offset-ascending on
// exact ties. It is a total order, so the selected prefix is unambiguous.
func candLess(a, b pairCand) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.i < b.i
}

// topKPairsLimited extracts up to k pairs considering only the `limit`
// best candidates under candLess. exhausted reports that every candidate
// was considered (the pool never overflowed), making the result final.
func (mp *MatrixProfile) topKPairsLimited(k, limit int, sc *TopKScratch) ([]MotifPair, bool) {
	// Max-heap (root = worst kept) of the `limit` best candidates.
	if cap(sc.cands) < limit {
		sc.cands = make([]pairCand, 0, limit+1)
	}
	cands := sc.cands[:0]
	exhausted := true
	for i, d := range mp.Dist {
		if mp.Index[i] < 0 || math.IsInf(d, 1) {
			continue
		}
		c := pairCand{i, d}
		if len(cands) < limit {
			cands = append(cands, c)
			if len(cands) == limit {
				for j := len(cands)/2 - 1; j >= 0; j-- {
					candSiftDown(cands, j)
				}
			}
			continue
		}
		exhausted = false
		if candLess(c, cands[0]) {
			cands[0] = c
			candSiftDown(cands, 0)
		}
	}
	sc.cands = cands
	// candLess is a strict total order (offsets are unique), so the
	// non-stable sort has exactly one possible output.
	slices.SortFunc(cands, func(a, b pairCand) int {
		if candLess(a, b) {
			return -1
		}
		return 1
	})

	out := sc.out[:0]
	used := sc.used[:0]
	zone := mp.Exclusion
	tooClose := func(x int) bool {
		for _, u := range used {
			if abs(x-u) < zone {
				return true
			}
		}
		return false
	}
	for _, c := range cands {
		if len(out) >= k {
			break
		}
		a, b := c.i, mp.Index[c.i]
		if a > b {
			a, b = b, a
		}
		if tooClose(a) || tooClose(b) {
			continue
		}
		out = append(out, MotifPair{A: a, B: b, M: mp.M, Dist: c.d})
		used = append(used, a, b)
	}
	sc.out, sc.used = out, used
	return out, exhausted
}

// candSiftDown restores the max-heap (worst candidate at the root) below i.
func candSiftDown(cands []pairCand, i int) {
	n := len(cands)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && candLess(cands[worst], cands[l]) {
			worst = l
		}
		if r < n && candLess(cands[worst], cands[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		cands[i], cands[worst] = cands[worst], cands[i]
		i = worst
	}
}

// Discord holds a discord (anomaly) candidate: the subsequence whose
// nearest-neighbor distance is largest.
type Discord struct {
	I    int
	Dist float64
}

// TopKDiscords returns the k subsequences with the largest nearest-neighbor
// distances, de-duplicated by the exclusion zone; nil for k ≤ 0. Matrix
// profiles give discords for free (Matrix Profile I), and the suite exposes
// them because the demo positions VALMAP as a general analysis surface.
//
// The extraction order is distance descending, offset ascending on exact
// ties — a total order, so the output is that of a full sort. The
// candidates are heapified once and popped only until k discords survive
// the exclusion check, instead of sorting every slot.
func (mp *MatrixProfile) TopKDiscords(k int) []Discord {
	if k <= 0 {
		return nil
	}
	cands := make([]pairCand, 0, len(mp.Dist))
	for i, d := range mp.Dist {
		if mp.Index[i] >= 0 && !math.IsInf(d, 1) {
			cands = append(cands, pairCand{i, d})
		}
	}
	for j := len(cands)/2 - 1; j >= 0; j-- {
		discordSiftDown(cands, j)
	}
	var out []Discord
	used := make([]int, 0, min(k, len(cands))) // at most one discord per candidate
	for len(out) < k && len(cands) > 0 {
		c := cands[0]
		last := len(cands) - 1
		cands[0] = cands[last]
		cands = cands[:last]
		discordSiftDown(cands, 0)
		skip := false
		for _, u := range used {
			if abs(c.i-u) < mp.Exclusion {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		out = append(out, Discord{I: c.i, Dist: c.d})
		used = append(used, c.i)
	}
	return out
}

// discordSiftDown restores the heap below i whose root is the next discord
// candidate: the largest distance, the smallest offset on exact ties.
func discordSiftDown(cands []pairCand, i int) {
	n := len(cands)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && discordBefore(cands[l], cands[best]) {
			best = l
		}
		if r < n && discordBefore(cands[r], cands[best]) {
			best = r
		}
		if best == i {
			return
		}
		cands[i], cands[best] = cands[best], cands[i]
		i = best
	}
}

func discordBefore(a, b pairCand) bool {
	if a.d != b.d {
		return a.d > b.d
	}
	return a.i < b.i
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
