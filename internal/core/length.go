package core

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// hotRowBudgetBytes bounds the memory the hot-row cache may hold.
const hotRowBudgetBytes = 64 << 20

// advanceShardRows is the minimum anchors-per-worker below which the
// advance→certify pass stays serial (goroutine handoff would cost more
// than the work).
const advanceShardRows = 256

// processLengthFull resolves length l with the seed sweep (seedAll) and
// returns both the top-k pairs and the full profile. The planner runs it
// instead of processLengthIncremental when a whole-profile length comes
// before pruned lengths and so doubles as the pruned machinery's seed:
// the sweep reseeds every anchor's partial profile, which the
// incremental pass does not.
func (r *run) processLengthFull(l int) (LengthResult, *profile.MatrixProfile, error) {
	s := len(r.t) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	lr := LengthResult{M: l}

	if s <= excl {
		// No non-trivial pair (hence no finite NN distance) can exist.
		return lr, nil, nil
	}
	mp, err := r.seedAll(l)
	if err != nil {
		return lr, nil, err
	}
	lr.Pairs = mp.TopKPairsInto(r.cfg.TopK, &r.topk)
	lr.Stats.FullRecompute = true
	return lr, mp, nil
}

// processLength resolves length l exactly, using pruning where possible:
// the data-parallel advance→certify pass over anchor shards, then the
// serial recompute-to-fixpoint over the (few) uncertified stragglers.
// The returned profile is non-nil only when the fixpoint fell back to a
// whole-profile recompute (so callers that also want discords can reuse
// the pass instead of paying a second one); on the pruned path it is nil
// and r.lmp holds the certified-or-upper-bound candidate profile.
func (r *run) processLength(l int) (LengthResult, *profile.MatrixProfile, error) {
	n := len(r.t)
	s := n - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	lr := LengthResult{M: l}

	if s <= excl {
		// No non-trivial pair can exist at this length.
		return lr, nil, nil
	}

	r.momentsAt(l)
	r.advanceAll(l, excl, s)

	// Assemble the candidate profile. Certified anchors contribute their
	// exact profile value; uncertified anchors contribute minDist — a true
	// pair distance (upper bound on their profile value), which sharpens τ
	// and provably never survives into the reported top-k: a chosen
	// uncertified pair would have minDist ≤ τ, hence maxLB < τ, putting
	// its anchor into the recompute set below. lmp is run-owned scratch:
	// it never leaves processLength, so recycling it across lengths is
	// invisible outside (and makes the steady state allocation-free).
	lmp := &r.lmp
	lmp.Reset(l, excl, s)
	certified := 0
	for i := 0; i < s; i++ {
		if r.indexes[i] >= 0 {
			lmp.Dist[i] = r.dists[i]
			lmp.Index[i] = r.indexes[i]
		}
		if r.cert[i] {
			certified++
		}
	}
	lr.Stats.Certified = certified

	// Recompute-to-fixpoint: extraction with pair de-duplication is not
	// monotone in its candidate set (a newly recomputed anchor can block
	// two others and *raise* the k-th best distance τ), so one recompute
	// pass is not enough — iterate until no non-certified anchor's maxLB
	// falls at or below the current τ. Each round certifies at least one
	// new anchor, so the loop terminates.
	recomputed := 0
	for {
		if err := r.ctx.Err(); err != nil {
			return lr, nil, err
		}
		pairs := lmp.TopKPairsInto(r.cfg.TopK, &r.topk)
		// τ is the certification threshold: with a full top-k in hand, the
		// k-th best distance; otherwise +Inf (anything could still improve
		// the set).
		tau := math.Inf(1)
		if len(pairs) == r.cfg.TopK {
			tau = pairs[len(pairs)-1].Dist
		}
		need := r.need[:0]
		for i := 0; i < s; i++ {
			if !r.cert[i] && r.maxLBs[i] <= tau {
				need = append(need, i)
			}
		}
		r.need = need
		if len(need) == 0 {
			lr.Pairs = pairs
			lr.Stats.Recomputed = recomputed
			return lr, nil, nil
		}
		if float64(recomputed+len(need)) >= r.cfg.RecomputeFraction*float64(s) {
			mp, err := r.seedAll(l)
			if err != nil {
				return lr, nil, err
			}
			lr.Pairs = mp.TopKPairsInto(r.cfg.TopK, &r.topk)
			lr.Stats.Recomputed = recomputed
			lr.Stats.FullRecompute = true
			return lr, mp, nil
		}
		r.recomputeBatch(need, l, excl, s, lmp)
		recomputed += len(need)
	}
}

// recomputeBatch resolves the anchors in need (ascending) exactly at
// length l. Neighboring anchors fail certification together (their windows
// overlap), so contiguous runs are recomputed with one from-scratch head
// row + O(s) row recurrences and reseeded; isolated hard anchors get a
// from-scratch row each (rows.go: direct, or two per FFT round trip via
// the packed correlator) and their rows join the hot-row cache (one row
// now, O(s) per length afterwards). The jobs — one per run, one per
// anchor pair — are fixed by the need list alone and touch disjoint
// anchors, so they are distributed across Workers goroutines with
// bit-identical results; only the hot-cache retention stays serial, in
// need order, so the cache contents are deterministic too.
// recSpan is one contiguous recompute run [lo, lo+count).
type recSpan struct{ lo, count int }

func (r *run) recomputeBatch(need []int, l, excl, s int, lmp *profile.MatrixProfile) {
	const runReseedMin = 8
	runs := r.runs[:0]
	hotPend := r.hotPend[:0]
	for start := 0; start < len(need); {
		end := start + 1
		for end < len(need) && need[end] == need[end-1]+1 {
			end++
		}
		if end-start >= runReseedMin {
			runs = append(runs, recSpan{need[start], end - start})
		} else {
			hotPend = append(hotPend, need[start:end]...)
		}
		for _, i := range need[start:end] {
			r.cert[i] = true // exact now at this length
		}
		start = end
	}

	r.runs, r.hotPend = runs, hotPend

	nJobs := len(runs) + (len(hotPend)+1)/2
	if cap(r.hotRows) < len(hotPend) {
		r.hotRows = make([][]float64, len(hotPend))
	}
	hotRows := r.hotRows[:len(hotPend)]
	runJob := func(k int, rows *rowWorker, rowBuf []float64) {
		if k < len(runs) {
			r.processRunWith(runs[k].lo, runs[k].count, l, excl, s, lmp, rows, rowBuf)
			return
		}
		x := (k - len(runs)) * 2
		if x+1 < len(hotPend) {
			i1, i2 := hotPend[x], hotPend[x+1]
			row1, row2 := rows.rowPair(r.eng.getRow(s), r.eng.getRow(s), i1, i2, l)
			r.scanRow(i1, l, excl, s, row1, lmp)
			r.scanRow(i2, l, excl, s, row2, lmp)
			hotRows[x], hotRows[x+1] = row1, row2
		} else {
			i := hotPend[x]
			row := rows.row(r.eng.getRow(s), i, l)
			r.scanRow(i, l, excl, s, row, lmp)
			hotRows[x] = row
		}
	}

	workers := r.workers
	if workers > nJobs {
		workers = nJobs
	}
	if workers <= 1 {
		for k := 0; k < nJobs; k++ {
			runJob(k, &r.rows, r.rowQT[:s])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows := rowWorker{src: r.rows.src, clone: true}
				defer rows.release()
				rowBuf := r.eng.getRow(s)
				defer r.eng.putRow(rowBuf)
				for {
					k := int(next.Add(1)) - 1
					if k >= nJobs {
						return
					}
					runJob(k, &rows, rowBuf)
				}
			}()
		}
		wg.Wait()
	}

	// Hot-cache retention: serial, in need order. Every recomputed row is
	// either retained by the store (and returned to the pool when the run
	// drains the hot cache) or returned here — no third path, so the
	// engine's get/put balance stays exact.
	for x, i := range hotPend {
		if !r.store.MakeHot(i, hotRows[x], l) {
			r.eng.putRow(hotRows[x])
		}
		hotRows[x] = nil // no stale row outlives the batch
	}
}

// advanceAll runs the advance→certify pass over every anchor, partitioned
// into shards across Workers goroutines when the length is big enough.
// Each anchor reads shared immutable state (series, moments, stats) and
// writes only its own anchor state and its own slots of the per-anchor
// scratch arrays, so any shard schedule computes bit-identical results.
func (r *run) advanceAll(l, excl, s int) {
	workers := r.workers
	if workers > s/advanceShardRows {
		workers = s / advanceShardRows
	}
	if workers <= 1 {
		r.advanceShard(0, s, l, excl, s)
		r.entriesAt = l
		return
	}
	// More shards than workers evens out load skew (hot anchors cluster);
	// the shard grid is fixed by s alone, assignment order is irrelevant.
	shards := r.store.ShardsInto(s, workers*4, r.shards)
	r.shards = shards
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(shards) {
					return
				}
				r.advanceShard(shards[k].Lo, shards[k].Hi, l, excl, s)
			}
		}()
	}
	wg.Wait()
	r.entriesAt = l
}

// advanceShard advances anchors [lo, hi) to length l: hot anchors resolve
// exactly from their cached row; the rest advance their retained entries —
// one fused multiply-add per intervening length, so entries catch up
// across lengths the planner resolved incrementally or skipped — and
// compare their best exact distance against the lower bound covering
// every unretained candidate (certification).
func (r *run) advanceShard(lo, hi, l, excl, s int) {
	fl := float64(l)
	from := r.entriesAt + 1 // entries currently hold QT at length entriesAt
	for i := lo; i < hi; i++ {
		a := r.store.At(i)
		r.cert[i] = false
		r.dists[i] = math.Inf(1)
		r.indexes[i] = -1

		// Hot anchors resolve exactly with one advance-and-scan pass.
		if row, cur, ok := r.store.HotRow(i); ok {
			r.advanceAndScanHot(i, l, excl, s, row, cur)
			continue
		}

		muA, sdA := r.means[i], r.stds[i]
		switch {
		case a.Degenerate:
			// Constant anchor at seed time: no bound exists; always
			// resolved by recompute when within τ.
			r.maxLBs[i] = 0
		case a.NextQ2 < 0:
			// Every candidate is retained: nothing unseen to bound.
			r.maxLBs[i] = math.Inf(1)
		default:
			terms := lb.NewAnchorTerms(r.st, i, int(a.Base), l-int(a.Base))
			r.maxLBs[i] = terms.Bound(math.Sqrt(a.NextQ2))
		}
		if a.Degenerate {
			continue
		}

		minDist := math.Inf(1)
		minIdx := -1
		for e := range a.Entries {
			ent := &a.Entries[e]
			j := int(ent.J)
			if j >= s {
				continue // candidate no longer long enough
			}
			// All pending length steps in one fused pass (the per-length
			// lb.Entry.Advance loop, carried through every step at once).
			ent.QT = kernels.AdvanceDot(ent.QT, r.t, i, j, from-1, l)
			if j > i-excl && j < i+excl {
				continue // grown exclusion zone swallowed it
			}
			d := series.DistFromDot(ent.QT, fl, muA, sdA, r.means[j], r.stds[j])
			if d < minDist {
				minDist, minIdx = d, j
			}
		}
		// Record the best retained pair unconditionally: it is a true
		// distance either way, exact iff certified.
		r.dists[i] = minDist
		r.indexes[i] = minIdx
		if minDist <= r.maxLBs[i] {
			r.cert[i] = true
		}
	}
}

// advanceAndScanHot advances anchor i's cached dot-product row from length
// cur to length l (every pending length step carried through each cell in
// one fused kernels.ExtendRow pass) and scans it for the exact profile
// value — certification without a from-scratch row.
func (r *run) advanceAndScanHot(i, l, excl, s int, row []float64, cur int) {
	fl := float64(l)
	kernels.ExtendRow(row, r.t, i, cur, l)
	r.store.SetHotLen(i, l)

	means, stds, invs := r.means, r.stds, r.invStds
	muA, invA := means[i], invs[i]
	if invA == 0 {
		best, bestJ := math.Inf(1), -1
		for j := 0; j < s; j++ {
			if j > i-excl && j < i+excl {
				continue
			}
			d := series.DistFromDot(row[j], fl, muA, 0, means[j], stds[j])
			if d < best {
				best, bestJ = d, j
			}
		}
		r.dists[i], r.indexes[i], r.cert[i] = best, bestJ, true
		return
	}
	e1, j2 := exclSplit(i, excl, s)
	bestCorr, bestJ := kernels.ArgmaxCorr(row, means, invs, e1, j2, s, 1/fl, muA, invA, math.Inf(-1), -1)
	if bestJ >= 0 {
		if bestCorr > 1 {
			bestCorr = 1
		} else if bestCorr < -1 {
			bestCorr = -1
		}
		r.dists[i] = math.Sqrt(2 * fl * (1 - bestCorr))
		r.indexes[i] = bestJ
	}
	r.cert[i] = true
}
