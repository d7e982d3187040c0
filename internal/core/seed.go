package core

import (
	"math"

	"github.com/seriesmining/valmod/internal/core/anchors"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// seedAll computes the exact matrix profile at length l and reseeds every
// anchor's partial profile with base l, in one sweep over the diagonal
// pass's block grid: kernels.SeedScan streams every diagonal from one
// from-scratch head row (rows.go), updates both profile slots of each
// cell and offers each endpoint to the other's candidate list. Every worker fills its own
// top-(p+1) lists; Store.Seed merges them under the strict order, so the
// retained entries and NextQ2 are identical at every worker count. The
// lists (Workers·s·(p+1) entries) live only for the sweep.
func (r *run) seedAll(l int) (*profile.MatrixProfile, error) {
	n := len(r.t)
	if err := stomp.ValidateLength(n, l); err != nil {
		return nil, err
	}
	s := n - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	r.momentsAt(l)
	head := r.rows.row(r.rowQT, 0, l)
	sums := make([]float64, s)
	for i := range sums {
		sums[i] = r.st.Sum(i, l)
	}
	blocks := diagBlocks(s, excl)
	workers := r.passWorkers(len(blocks))
	keep := r.cfg.P
	if keep > s {
		keep = s // an anchor never has s candidates
	}
	lists := make([]*kernels.TopLists, workers)
	for w := range lists {
		lists[w] = kernels.NewTopLists(s, keep+1)
	}
	mp, err := r.diagPass(l, excl, s, blocks, workers, func(w int, b diagBlock, corr []float64, idx []int32) {
		kernels.SeedScan(r.t, head, r.means, r.invStds, sums, b.k0, b.k1, l, s, corr, idx, lists[w])
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < s; i++ {
		r.store.Seed(i, r.cfg.P, l, lists, r.invStds[i] == 0)
	}
	// The pruned machinery is live and its retained entries hold dot
	// products at l.
	r.seeded = true
	r.entriesAt = l
	return mp, nil
}

// processRunWith resolves the contiguous recompute run [i0, i0+count)
// exactly at length l: one from-scratch row (rows.go) seeds the
// dot-product row of i0, each following row costs O(s) via the STOMP
// recurrence (kernels.RowNext), and per row the kernel scans find the
// exact profile minimum (division-free correlation compare) and reseed
// the anchor's partial profile. It writes exact values into mp. The row
// handle and row buffer are caller-owned, enabling concurrent runs; the
// moment cache must already be at l.
func (r *run) processRunWith(i0, count, l, excl, s int, mp *profile.MatrixProfile, rows *rowWorker, rowBuf []float64) {
	t := r.t
	row := rows.row(rowBuf, i0, l)
	for i := i0; i < i0+count; i++ {
		if i > i0 {
			kernels.RowNext(row, t, i, l, s)
			row[0] = series.Dot(t[i:i+l], t[0:l])
		}
		r.scanRow(i, l, excl, s, row, mp)
	}
}

// exclSplit maps anchor i's exclusion interval (j excluded when
// i−excl < j < i+excl) onto the two included branch-free ranges
// [0, e1) and [j2, s) the kernels take, clipped at the series edges.
func exclSplit(i, excl, s int) (e1, j2 int) {
	e1 = i - excl + 1
	if e1 < 0 {
		e1 = 0
	}
	j2 = i + excl
	if j2 > s {
		j2 = s
	}
	return e1, j2
}

// scanRow is the per-row pass: exact nearest neighbor of anchor i at
// length l (outside the exclusion zone) plus the partial-profile reseed
// (top-p candidates by q̃²). The moment cache must be filled for l. Each
// anchor touches only its own state, so rows may be scanned concurrently.
func (r *run) scanRow(i, l, excl, s int, row []float64, mp *profile.MatrixProfile) {
	p := r.cfg.P
	means, invs := r.means, r.invStds
	fl := float64(l)
	sumA := r.st.Sum(i, l)
	muA := means[i]
	invA := invs[i]

	a := r.store.BeginReseed(i, p, l)

	// Degenerate anchor: the fused correlation math is undefined; fall back
	// to the convention-aware scalar path for this (rare) row.
	if invA == 0 {
		r.scanRowDegenerate(i, l, excl, s, row, mp)
		a.Degenerate = true
		return
	}

	e1, j2 := exclSplit(i, excl, s)
	st := reseedState{heapMinQ2: math.Inf(-1), bestRejQ2: -1}
	r.reseedRange(a, row, 0, e1, p, sumA, &st)
	r.reseedRange(a, row, j2, s, p, sumA, &st)
	if len(a.Entries) > 0 && len(a.Entries) < p {
		lb.Heapify(a.Entries)
	}
	a.NextQ2 = st.bestRejQ2

	bestCorr, bestJ := kernels.ArgmaxCorr(row, means, invs, e1, j2, s, 1/fl, muA, invA, math.Inf(-1), -1)
	if bestJ >= 0 {
		if bestCorr > 1 {
			bestCorr = 1
		} else if bestCorr < -1 {
			bestCorr = -1
		}
		mp.Update(i, math.Sqrt(2*fl*(1-bestCorr)), bestJ)
	}
}

// reseedState carries the top-p selection thresholds across the two
// included j-ranges of one row's reseed.
type reseedState struct {
	heapMinQ2 float64 // q̃² of the heap root once the heap is full
	bestRejQ2 float64 // best q̃² among rejected/evicted candidates
}

// reseedRange runs the top-p-by-q̃² selection of the partial-profile
// reseed over the included candidate range [j0, j1) — the same selection
// the pre-kernel fused loop performed, minus the per-cell exclusion test.
// The fill phase (heap not yet full) is peeled off the front so the
// steady-state loop is just compute-q̃²-and-compare with hoisted slice
// bounds; candidates are visited in the identical ascending order.
func (r *run) reseedRange(a *anchors.State, row []float64, j0, j1, p int, sumA float64, st *reseedState) {
	if j1 <= j0 {
		return
	}
	means, invs := r.means, r.invStds
	j := j0
	for ; j < j1 && len(a.Entries) < p; j++ {
		qtj := row[j]
		q := (qtj - means[j]*sumA) * invs[j] // q̃ (0 for degenerate candidate)
		a.Entries = append(a.Entries, lb.Entry{J: int32(j), QT: qtj, QTilde: q})
	}
	if len(a.Entries) < p {
		return // range exhausted while filling; heapMinQ2 stays unset
	}
	if math.IsInf(st.heapMinQ2, -1) {
		// The p-th entry was just appended: order the heap once.
		lb.Heapify(a.Entries)
		q0 := a.Entries[0].QTilde
		st.heapMinQ2 = q0 * q0
	}
	rr := row[j:j1]
	mm := means[j:j1]
	mm = mm[:len(rr)]
	vv := invs[j:j1]
	vv = vv[:len(rr)]
	heapMin, bestRej := st.heapMinQ2, st.bestRejQ2
	for x := 0; x < len(rr); x++ {
		qtj := rr[x]
		q := (qtj - mm[x]*sumA) * vv[x]
		q2 := q * q
		if q2 > heapMin {
			if heapMin > bestRej {
				bestRej = heapMin // evicted root joins the unkept set
			}
			a.Entries[0] = lb.Entry{J: int32(j + x), QT: qtj, QTilde: q}
			lb.SiftDown(a.Entries, 0)
			q0 := a.Entries[0].QTilde
			heapMin = q0 * q0
		} else if q2 > bestRej {
			bestRej = q2
		}
	}
	st.heapMinQ2, st.bestRejQ2 = heapMin, bestRej
}

// scanRowDegenerate resolves a σ=0 anchor's row with the convention-aware
// scalar distance (the correlation kernels cannot express it).
func (r *run) scanRowDegenerate(i, l, excl, s int, row []float64, mp *profile.MatrixProfile) {
	fl := float64(l)
	muA := r.means[i]
	for j := 0; j < s; j++ {
		if j > i-excl && j < i+excl {
			continue
		}
		d := series.DistFromDot(row[j], fl, muA, 0, r.means[j], r.stds[j])
		mp.Update(i, d, j)
	}
}
