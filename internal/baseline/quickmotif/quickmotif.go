// Package quickmotif reimplements QUICKMOTIF (Li, U, Yiu, Gong, ICDE 2015)
// for the paper's comparative evaluation: exact fixed-length motif pair
// discovery that avoids the full O(n²) join by (1) summarizing every
// z-normalized subsequence with a PAA sketch, (2) packing consecutive
// offsets into MBR blocks (consecutive subsequences are near-identical, so
// their boxes are tight — the insight the original exploits with an R-tree),
// (3) exploring block pairs best-first by MBR MINDIST, and (4) verifying
// surviving candidate pairs with early-abandoning exact distances.
//
// Faithfulness note: the original's R-tree is replaced by
// offset-ordered blocks with the same bounding and the same best-first
// refinement loop; output is exact (tested against brute force), constants
// differ.
package quickmotif

import (
	"container/heap"
	"context"
	"math"

	"github.com/seriesmining/valmod/internal/baseline"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// Defaults for the sketch and block granularity.
const (
	DefaultPAASize   = 8
	DefaultBlockSize = 32
)

// Config parameterizes a QUICKMOTIF run.
type Config struct {
	LMin, LMax      int
	ExclusionFactor int // default 4
	PAASize         int // sketch dimensions (default 8)
	BlockSize       int // offsets per MBR block (default 32)
}

// Run returns the exact best motif pair for every length in [LMin, LMax],
// mirroring the evaluation's range adaptation of the fixed-length original.
func Run(ctx context.Context, t []float64, cfg Config) ([]baseline.LengthResult, error) {
	if cfg.PAASize <= 0 {
		cfg.PAASize = DefaultPAASize
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
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
		pair, ok := bestPair(t, m, cfg, seed)
		lr := baseline.LengthResult{M: m}
		if ok {
			lr.Pairs = []profile.MotifPair{pair}
			prev, havePrev = pair, true
		}
		out = append(out, lr)
	}
	return out, nil
}

// block is an MBR over the PAA sketches of a contiguous offset range.
type block struct {
	lo, hi   int // offset range [lo, hi)
	min, max []float64
}

// blockPair is a heap item: a pair of blocks keyed by MINDIST.
type blockPair struct {
	a, b    int
	minDist float64
}

type pairHeap []blockPair

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].minDist < h[j].minDist }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(blockPair)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// bestPair finds the exact motif pair at length m.
func bestPair(t []float64, m int, cfg Config, seed []profile.MotifPair) (profile.MotifPair, bool) {
	n := len(t)
	s := n - m + 1
	excl := profile.ExclusionZone(m, cfg.ExclusionFactor)
	if s <= excl || m < 2 {
		return profile.MotifPair{}, false
	}
	w := cfg.PAASize
	if w > m {
		w = m
	}
	means, stds := series.SlidingMeanStd(t, m)
	// Sketches carry the √(segment length) weight, so the plain Euclidean
	// distance between sketches lower-bounds the true distance even when m
	// does not divide evenly into w segments.
	paa := buildPAA(t, m, w, means, stds)

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
	// Cheap bsf seeding: a diagonal sample of pairs.
	for step := excl; step < s; step += maxInt(excl, s/64+1) {
		for i := 0; i+step < s; i += maxInt(1, s/64) {
			try(i, i+step)
		}
	}

	// Build blocks over consecutive offsets.
	bs := cfg.BlockSize
	var blocks []block
	for lo := 0; lo < s; lo += bs {
		hi := lo + bs
		if hi > s {
			hi = s
		}
		blk := block{lo: lo, hi: hi, min: make([]float64, w), max: make([]float64, w)}
		for d := 0; d < w; d++ {
			blk.min[d] = math.Inf(1)
			blk.max[d] = math.Inf(-1)
		}
		for i := lo; i < hi; i++ {
			row := paa[i]
			for d := 0; d < w; d++ {
				if row[d] < blk.min[d] {
					blk.min[d] = row[d]
				}
				if row[d] > blk.max[d] {
					blk.max[d] = row[d]
				}
			}
		}
		blocks = append(blocks, blk)
	}

	// Best-first over block pairs by MBR MINDIST.
	h := &pairHeap{}
	heap.Init(h)
	for a := 0; a < len(blocks); a++ {
		for b := a; b < len(blocks); b++ {
			// Skip block pairs whose widest offset gap is still trivial.
			if blocks[b].hi-1-blocks[a].lo < excl {
				continue
			}
			md := mbrMinDist(blocks[a], blocks[b])
			heap.Push(h, blockPair{a: a, b: b, minDist: md})
		}
	}
	for h.Len() > 0 {
		bp := heap.Pop(h).(blockPair)
		if bp.minDist >= bsf {
			break // best-first: everything later is at least this far
		}
		A, B := blocks[bp.a], blocks[bp.b]
		for i := A.lo; i < A.hi; i++ {
			jStart := B.lo
			if bp.a == bp.b {
				jStart = i + 1
			}
			for j := jStart; j < B.hi; j++ {
				if absInt(j-i) < excl {
					continue
				}
				// Per-pair PAA lower bound before the exact distance.
				if paaDist(paa[i], paa[j]) >= bsf {
					continue
				}
				try(i, j)
			}
		}
	}
	return best, found
}

// buildPAA computes the w-dimensional weighted PAA sketch of every
// z-normalized subsequence with one cumulative-sum pass. Dimension d holds
// √(segLen_d)·(segment mean of the z-normalized window), so that for any
// two windows ||x−y|| ≥ ||sketch(x)−sketch(y)|| — the per-segment
// Cauchy–Schwarz bound, valid for uneven segments. Degenerate windows
// sketch to zeros (their z-normalization is the zero vector).
func buildPAA(t []float64, m, w int, means, stds []float64) [][]float64 {
	n := len(t)
	s := n - m + 1
	cum := make([]float64, n+1)
	for i, v := range t {
		cum[i+1] = cum[i] + v
	}
	// Segment boundaries: segment d covers [seg[d], seg[d+1]) within the window.
	seg := make([]int, w+1)
	for d := 0; d <= w; d++ {
		seg[d] = d * m / w
	}
	weights := make([]float64, w)
	for d := 0; d < w; d++ {
		weights[d] = math.Sqrt(float64(seg[d+1] - seg[d]))
	}
	out := make([][]float64, s)
	flat := make([]float64, s*w)
	for i := 0; i < s; i++ {
		row := flat[i*w : (i+1)*w]
		out[i] = row
		sd := stds[i]
		if sd == 0 {
			continue
		}
		mu := means[i]
		for d := 0; d < w; d++ {
			a, b := i+seg[d], i+seg[d+1]
			segLen := float64(b - a)
			row[d] = weights[d] * ((cum[b]-cum[a])/segLen - mu) / sd
		}
	}
	return out
}

// paaDist is the Euclidean distance between two sketches.
func paaDist(a, b []float64) float64 {
	var acc float64
	for d := range a {
		diff := a[d] - b[d]
		acc += diff * diff
	}
	return math.Sqrt(acc)
}

// mbrMinDist is the minimum possible sketch distance between any point of
// block a and any point of block b (0 when the boxes overlap per-dim).
func mbrMinDist(a, b block) float64 {
	var acc float64
	for d := range a.min {
		var gap float64
		switch {
		case a.max[d] < b.min[d]:
			gap = b.min[d] - a.max[d]
		case b.max[d] < a.min[d]:
			gap = a.min[d] - b.max[d]
		}
		acc += gap * gap
	}
	return math.Sqrt(acc)
}

// earlyAbandonDist is the exact z-normalized distance with a running-sum
// cutoff (identical convention to the rest of the suite).
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
			return math.Sqrt(acc)
		}
	}
	return math.Sqrt(acc)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
