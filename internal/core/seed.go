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
// cell and offers each endpoint to the other's candidate list, keyed by
// the cell's correlation. Every worker fills its own top-(keep+1) lists,
// keep = min(P, seedKeep); the merge folds them under the strict order
// into the first, so the kept entries and NextQ2 are identical at every
// worker count. The lists are run-owned scratch, and the store is
// allocated at the first seed (ensureStore).
func (r *run) seedAll(l int) (*profile.MatrixProfile, error) {
	n := len(r.t)
	if err := stomp.ValidateLength(n, l); err != nil {
		return nil, err
	}
	if err := r.ensureStore(); err != nil {
		return nil, err
	}
	s := n - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	r.momentsAt(l)
	head := r.rows.row(r.rowQT, 0, l)
	blocks := diagBlocks(s, excl)
	workers := r.passWorkers(len(blocks))
	for len(r.seedLists) < workers {
		r.seedLists = append(r.seedLists, kernels.NewTopLists(r.sMin, min(r.store.Cap, seedKeep)+1))
	}
	lists := r.seedLists[:workers]
	for _, tl := range lists {
		tl.Reset(s)
		if r.degCount == 0 {
			continue
		}
		// A σ = 0 anchor keeps no entries (Store.Set), and every offer to
		// it keys c = 0, so an open list would pass each one to Offer.
		for i, v := range r.invStds[:s] {
			if v == 0 {
				tl.Thr[i] = math.Inf(1)
			}
		}
	}
	mp, err := r.diagPass(l, excl, s, blocks, workers, func(w int, b diagBlock, corr []float64, idx []int32) {
		kernels.SeedScan(r.t, head, r.means, r.invStds, b.k0, b.k1, l, s, corr, idx, lists[w])
	})
	if err != nil {
		return nil, err
	}
	top := lists[0]
	fl := float64(l)
	for i := 0; i < s; i++ {
		for _, o := range lists[1:] {
			top.Merge(o, i)
		}
		r.store.Set(i, l, top.Cap-1, top, i, fl*r.stds[i])
	}
	// The pruned machinery is live and its retained entries hold dot
	// products at l.
	r.seeded = true
	r.entriesAt = l
	return mp, nil
}

// ensureStore allocates, at the run's first seed, the partial profile
// store (P entries for each of the ℓmin anchors); runs that never seed
// allocate none.
func (r *run) ensureStore() error {
	if r.store == nil {
		st, err := anchors.NewStore(r.sMin, r.cfg.P)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		r.store = st
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
// length l (outside the exclusion zone) and the partial-profile refill,
// which keeps the P best candidates by c² through top, a one-anchor list
// of capacity P+1 owned by the calling worker — both from one
// kernels.RowScan over the row. The moment cache must be filled for l.
// Each anchor touches only its own state, so rows may be scanned
// concurrently.
func (r *run) scanRow(i, l, excl, s int, row []float64, mp *profile.MatrixProfile, top *kernels.TopLists) {
	fl := float64(l)
	// Degenerate anchor: the fused correlation math is undefined; fall back
	// to the convention-aware scalar path for this (rare) row.
	if r.invStds[i] == 0 {
		r.scanRowDegenerate(i, l, excl, s, row, mp)
		r.store.Set(i, l, 0, top, 0, 0)
		return
	}

	e1, j2 := exclSplit(i, excl, s)
	top.Reset(1)
	bestCorr, bestJ := kernels.RowScan(row, r.means, r.invStds, e1, j2, s, 1/fl, r.means[i], r.invStds[i], math.Inf(-1), -1, top)
	r.store.Set(i, l, r.store.Cap, top, 0, fl*r.stds[i])
	if bestJ >= 0 {
		if bestCorr > 1 {
			bestCorr = 1
		} else if bestCorr < -1 {
			bestCorr = -1
		}
		mp.Update(i, math.Sqrt(2*fl*(1-bestCorr)), bestJ)
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
