// Package profile defines the matrix-profile data structures shared by
// STOMP, VALMOD and the baselines: the MatrixProfile itself (distance +
// index profile, demo Figure 1 a–c), exclusion zones for trivial matches,
// top-k motif-pair extraction and discord extraction.
package profile

import (
	"fmt"
	"math"
	"math/bits"
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

// TopKScratch is the working memory of TopKPairsInto: the tournament over
// the profile's slots, the chosen endpoints and the output slice, each
// O(s) for a profile of s slots. A zero value is ready to use; one scratch
// serves any number of calls, and a call allocates only where a buffer
// must grow past every earlier call's.
type TopKScratch struct {
	t    tournament
	used []int
	out  []MotifPair
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
//
// The output is that of a full sort of the candidates (distance ascending,
// offset ascending on exact ties) followed by the de-duplicating scan, in
// one pass: a tournament over the slots yields the candidates in that
// order, and every slot that can no longer be chosen leaves it. Chosen
// endpoints only accumulate, so a slot within the zone of one can never be
// chosen: each accepted pair drops both endpoints' zones, and a candidate
// whose partner is too close drops itself. A partner that is still in the
// tournament is never too close; any other is checked against the chosen
// endpoints, which also covers partners outside the profile (an AB-join
// profile's neighbors are offsets into the other series).
func (mp *MatrixProfile) TopKPairsInto(k int, sc *TopKScratch) []MotifPair {
	if k <= 0 {
		return nil
	}
	t := &sc.t
	t.build(mp, 1)
	out, used := sc.out[:0], sc.used[:0]
	zone := mp.Exclusion
	r := max(zone-1, 0) // a zone spans u±(zone−1); with none, only the slot goes
	for len(out) < k {
		i := t.node[1].i
		if i < 0 {
			break
		}
		j := mp.Index[i]
		if !t.live(j) && tooClose(j, used, zone) {
			t.kill(i, 0)
			continue
		}
		out = append(out, MotifPair{A: min(i, j), B: max(i, j), M: mp.M, Dist: mp.Dist[i]})
		used = append(used, i, j)
		t.kill(i, r)
		if zone > 0 {
			t.kill(j, r)
		}
	}
	sc.out, sc.used = out, used
	return out
}

// tooClose reports whether x lies within zone of an accepted endpoint.
func tooClose(x int, used []int, zone int) bool {
	for _, u := range used {
		if abs(x-u) < zone {
			return true
		}
	}
	return false
}

// bucket is the number of consecutive slots under one tournament leaf.
const bucket = 16

// slotKey is a tournament entry: slot i and its rank key; i < 0 is empty.
type slotKey struct {
	key float64
	i   int
}

// tournament ranks the live slots of a profile — those an extraction can
// still choose — and keeps the first of them at its root: key ascending,
// offset ascending on exact ties, empty last. Each leaf holds the first
// live slot of one bucket; an inner node holds the first of its children,
// the left one on ties, whose slots are the smaller offsets.
type tournament struct {
	dist []float64
	sign float64   // key = sign·Dist: +1 ranks nearest first, −1 farthest first
	leaf int       // node index of bucket 0's leaf, a power of two
	mask []uint16  // bit x of mask[b]: slot b·bucket+x is live
	node []slotKey // node[1] is the root, node[v] the first of node[2v], node[2v+1]
}

// build makes every candidate slot live — a neighbor (Index ≥ 0) at a
// distance below +Inf — and ranks them by sign·Dist.
func (t *tournament) build(mp *MatrixProfile, sign float64) {
	s := len(mp.Dist)
	nb := (s + bucket - 1) / bucket
	leaf := 1
	for leaf < nb {
		leaf *= 2
	}
	t.dist, t.sign, t.leaf = mp.Dist, sign, leaf
	if cap(t.mask) < nb {
		t.mask = make([]uint16, nb)
	}
	if cap(t.node) < 2*leaf {
		t.node = make([]slotKey, 2*leaf)
	}
	t.mask, t.node = t.mask[:nb], t.node[:2*leaf]
	for b := range t.mask {
		lo := b * bucket
		ds := mp.Dist[lo:min(lo+bucket, s)]
		ix := mp.Index[lo : lo+len(ds)]
		var m uint16
		bk := math.Inf(1)
		for x, d := range ds {
			if ix[x] < 0 || math.IsInf(d, 1) {
				continue
			}
			m |= 1 << x
			bk = min(bk, sign*d)
		}
		// The first live slot at the bucket's least key: a branch-free
		// minimum, then one short scan, instead of a compare per slot.
		bi := -1
		for mm := m; mm != 0; mm &= mm - 1 {
			if x := bits.TrailingZeros16(mm); sign*ds[x] == bk {
				bi = lo + x
				break
			}
		}
		t.mask[b] = m
		t.node[leaf+b] = slotKey{bk, bi}
	}
	for v := leaf + nb; v < 2*leaf; v++ {
		t.node[v] = slotKey{math.Inf(1), -1}
	}
	for v := leaf - 1; v > 0; v-- {
		t.node[v] = winner(t.node[2*v], t.node[2*v+1])
	}
}

// live reports whether slot j ≥ 0 is a live slot of the profile.
func (t *tournament) live(j int) bool {
	return j < len(t.dist) && t.mask[j/bucket]>>(j%bucket)&1 != 0
}

// kill drops the slots within r of u ≥ 0, [u−r, u+r] clipped to the
// profile, and replays the tournament above their buckets.
func (t *tournament) kill(u, r int) {
	s := len(t.dist)
	if u-r >= s {
		return
	}
	lo, hi := max(u-r, 0), s-1
	if r < s-1-u {
		hi = u + r
	}
	b0, b1 := lo/bucket, hi/bucket
	for b := b0; b <= b1; b++ {
		x0, x1 := max(lo-b*bucket, 0), min(hi-b*bucket, bucket-1)
		t.mask[b] &^= uint16(1<<(x1+1) - 1<<x0) // bits x0..x1
		t.node[t.leaf+b] = t.best(b)
	}
	for lo, hi := (t.leaf+b0)/2, (t.leaf+b1)/2; lo > 0; lo, hi = lo/2, hi/2 {
		for v := lo; v <= hi; v++ {
			t.node[v] = winner(t.node[2*v], t.node[2*v+1])
		}
	}
}

// best returns the first live slot of bucket b.
func (t *tournament) best(b int) slotKey {
	best := slotKey{math.Inf(1), -1}
	for m := t.mask[b]; m != 0; m &= m - 1 {
		i := b*bucket + bits.TrailingZeros16(m)
		if k := t.sign * t.dist[i]; k < best.key || best.i < 0 {
			best = slotKey{k, i}
		}
	}
	return best
}

// winner returns the entry that ranks first, l on ties.
func winner(l, r slotKey) slotKey {
	if r.key < l.key || l.i < 0 {
		return r
	}
	return l
}

// Discord holds a discord (anomaly) candidate: the subsequence whose
// nearest-neighbor distance is largest.
type Discord struct {
	I    int
	Dist float64
}

// TopKDiscords returns the k subsequences with the largest nearest-neighbor
// distances, de-duplicated by the exclusion zone; nil for k ≤ 0 or when no
// slot has a neighbor at a finite distance. Matrix profiles give discords
// for free (Matrix Profile I), and the suite exposes them because the demo
// positions VALMAP as a general analysis surface.
//
// The order is distance descending, offset ascending on exact ties, and
// the output is that of a full sort: the tournament of TopKPairsInto,
// keyed by −Dist, ranks the slots farthest first, and each discord drops
// its zone, so the root is always the next discord.
func (mp *MatrixProfile) TopKDiscords(k int) []Discord {
	if k <= 0 {
		return nil
	}
	var t tournament
	t.build(mp, -1)
	r := max(mp.Exclusion-1, 0)
	var out []Discord
	for len(out) < k {
		i := t.node[1].i
		if i < 0 {
			break
		}
		out = append(out, Discord{I: i, Dist: mp.Dist[i]})
		t.kill(i, r)
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
