package core

import (
	"fmt"
	"math"

	"github.com/seriesmining/valmod/internal/core/anchors"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// seedKeep is the most entries the seed sweep keeps per partial profile
// (fewer when Config.P is smaller). The sweep offers every candidate of
// every anchor, and its sorted inserts grow with the list; a recompute's
// refill (scanRow) selects from one row and keeps the full P. The anchors
// that fail certification are the only ones whose bound the kept set
// leaves open, so they are the ones given more entries. Any kept set
// keeps certification sound; the size moves only speed.
const seedKeep = 4

// seedAll computes the exact matrix profile at length l and reseeds every
// anchor's partial profile with base l, in one sweep over the diagonal
// pass's block grid: kernels.SeedScan streams every diagonal from one
// from-scratch head row (rows.go), updates both profile slots of each
// cell and offers each endpoint to the other's candidate list. Every
// worker fills its own top-(keep+1) lists, keep = min(P, seedKeep); the
// merge folds them under the strict order into the first, so the kept
// entries and NextQ2 are identical at every worker count. The lists and
// head sums are run-owned scratch (ensureSeedScratch), and the store is
// allocated at the first seed.
func (r *run) seedAll(l int) (*profile.MatrixProfile, error) {
	n := len(r.t)
	if err := stomp.ValidateLength(n, l); err != nil {
		return nil, err
	}
	if err := r.ensureSeedScratch(); err != nil {
		return nil, err
	}
	s := n - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	r.momentsAt(l)
	head := r.rows.row(r.rowQT, 0, l)
	sums := r.seedSums[:s]
	for i := range sums {
		sums[i] = r.st.Sum(i, l)
	}
	blocks := diagBlocks(s, excl)
	workers := r.passWorkers(len(blocks))
	for len(r.seedLists) < workers {
		r.seedLists = append(r.seedLists, kernels.NewTopLists(r.sMin, min(r.store.Cap, seedKeep)+1))
	}
	lists := r.seedLists[:workers]
	for _, tl := range lists {
		tl.Reset(s)
	}
	mp, err := r.diagPass(l, excl, s, blocks, workers, func(w int, b diagBlock, corr []float64, idx []int32) {
		kernels.SeedScan(r.t, head, r.means, r.invStds, sums, b.k0, b.k1, l, s, corr, idx, lists[w])
	})
	if err != nil {
		return nil, err
	}
	top := lists[0]
	for i := 0; i < s; i++ {
		for _, o := range lists[1:] {
			top.Merge(o, i)
		}
		r.store.Set(i, l, top.Cap-1, top, i, r.invStds[i] == 0)
	}
	// The pruned machinery is live and its retained entries hold dot
	// products at l.
	r.seeded = true
	r.entriesAt = l
	return mp, nil
}

// ensureSeedScratch allocates, at the run's first seed, the partial
// profile store (P entries for each of the ℓmin anchors) and the seed
// sweep's head sums; runs that never seed allocate neither.
func (r *run) ensureSeedScratch() error {
	if r.store == nil {
		st, err := anchors.NewStore(r.sMin, r.cfg.P)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		r.store = st
	}
	if r.seedSums == nil {
		r.seedSums = make([]float64, r.sMin)
	}
	return nil
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
// length l (outside the exclusion zone) plus the partial-profile refill,
// which keeps the P best candidates by q̃² through top, a one-anchor list
// of capacity P+1 owned by the calling worker. The moment cache must be
// filled for l. Each anchor touches only its own state, so rows may be
// scanned concurrently.
func (r *run) scanRow(i, l, excl, s int, row []float64, mp *profile.MatrixProfile, top *kernels.TopLists) {
	means, invs := r.means, r.invStds
	fl := float64(l)
	muA := means[i]
	invA := invs[i]

	// Degenerate anchor: the fused correlation math is undefined; fall back
	// to the convention-aware scalar path for this (rare) row.
	if invA == 0 {
		r.scanRowDegenerate(i, l, excl, s, row, mp)
		r.store.Set(i, l, 0, top, 0, true)
		return
	}

	e1, j2 := exclSplit(i, excl, s)
	sumA := r.st.Sum(i, l)
	top.Reset(1)
	r.refill(top, row, 0, e1, sumA)
	r.refill(top, row, j2, s, sumA)
	r.store.Set(i, l, r.store.Cap, top, 0, false)

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

// refill offers the candidates of the included range [j0, j1) of an
// anchor's row to top's list 0, keyed as the seed sweep keys its offers
// (sumA is the anchor's window sum). The threshold test is inline, so
// only the candidates that reach the list call TopLists.Offer.
func (r *run) refill(top *kernels.TopLists, row []float64, j0, j1 int, sumA float64) {
	if j1 <= j0 {
		return
	}
	rr := row[j0:j1]
	mm := r.means[j0:j1]
	mm = mm[:len(rr)]
	vv := r.invStds[j0:j1]
	vv = vv[:len(rr)]
	thr := top.Thr[0]
	for x, qt := range rr {
		if q := (qt - mm[x]*sumA) * vv[x]; q*q >= thr {
			top.Offer(0, int32(j0+x), qt, q)
			thr = top.Thr[0]
		}
	}
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
