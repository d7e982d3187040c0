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
	for r.rounds = 1; ; r.rounds++ {
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
		r.recomputeBatch(need, l, excl, s)
		recomputed += len(need)
	}
}

// recomputeBatch resolves the anchors in need (ascending) exactly at
// length l, each from a from-scratch row that scanRow reads for the exact
// profile value and the partial-profile refill. Neighboring anchors fail
// certification together (their windows overlap), so contiguous runs are
// recomputed with one from-scratch head row + O(s) row recurrences;
// isolated anchors get a from-scratch row each (rows.go: direct, or two
// per FFT round trip via the packed correlator). The jobs — one per run,
// one per anchor pair — are fixed by the need list alone and touch
// disjoint anchors, so they are distributed across Workers goroutines with
// bit-identical results. Every row lives in its worker's two row buffers
// (the run's own on the serial path) and dies with its job.
func (r *run) recomputeBatch(need []int, l, excl, s int) {
	const runReseedMin = 8
	runs := r.runs[:0]
	singles := r.singles[:0]
	for start := 0; start < len(need); {
		end := start + 1
		for end < len(need) && need[end] == need[end-1]+1 {
			end++
		}
		if end-start >= runReseedMin {
			runs = append(runs, recSpan{need[start], end - start})
		} else {
			singles = append(singles, need[start:end]...)
		}
		for _, i := range need[start:end] {
			r.cert[i] = true // exact now at this length
		}
		start = end
	}
	r.runs, r.singles = runs, singles

	nJobs := len(runs) + (len(singles)+1)/2
	workers := min(r.workers, nJobs)
	for len(r.refills) < max(workers, 1) {
		r.refills = append(r.refills, kernels.NewTopLists(1, r.store.Cap+1))
	}
	if workers <= 1 {
		for k := 0; k < nJobs; k++ {
			r.recomputeJob(k, l, excl, s, &r.rows, r.rowQT[:s], r.rowQT2[:s], r.refills[0])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(top *kernels.TopLists) {
			defer wg.Done()
			rows := rowWorker{src: r.rows.src, clone: true}
			defer rows.release()
			buf1, buf2 := r.eng.getRow(s), r.eng.getRow(s)
			defer r.eng.putRow(buf1)
			defer r.eng.putRow(buf2)
			for {
				k := int(next.Add(1)) - 1
				if k >= nJobs {
					return
				}
				r.recomputeJob(k, l, excl, s, &rows, buf1, buf2, top)
			}
		}(r.refills[w])
	}
	wg.Wait()
}

// recSpan is one contiguous recompute run [lo, lo+count).
type recSpan struct{ lo, count int }

// recomputeJob runs job k of the batch recomputeBatch laid out in r.runs
// and r.singles: run k, or else the next pair of isolated anchors (the
// last one alone when their count is odd), with rows in buf1 and buf2 and
// the refills selected through top.
func (r *run) recomputeJob(k, l, excl, s int, rows *rowWorker, buf1, buf2 []float64, top *kernels.TopLists) {
	lmp := &r.lmp
	if k < len(r.runs) {
		sp := r.runs[k]
		rows.runRows(buf1, sp.lo, sp.count, l, func(i int, row []float64) {
			r.scanRow(i, l, excl, s, row, lmp, top)
		})
		return
	}
	x := (k - len(r.runs)) * 2
	if x+1 < len(r.singles) {
		i1, i2 := r.singles[x], r.singles[x+1]
		row1, row2 := rows.rowPair(buf1, buf2, i1, i2, l)
		r.scanRow(i1, l, excl, s, row1, lmp, top)
		r.scanRow(i2, l, excl, s, row2, lmp, top)
		return
	}
	i := r.singles[x]
	r.scanRow(i, l, excl, s, rows.row(buf1, i, l), lmp, top)
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
	// More shards than workers evens out load skew (failing anchors cluster);
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

// advanceShard advances anchors [lo, hi) to length l: each advances its
// retained entries — one fused multiply-add per intervening length, so
// entries catch up across lengths the planner resolved incrementally or
// skipped — and compares its best exact distance against the lower bound
// covering every unretained candidate (certification).
func (r *run) advanceShard(lo, hi, l, excl, s int) {
	fl := float64(l)
	from := r.entriesAt + 1 // entries currently hold QT at length entriesAt
	st := r.store
	for i := lo; i < hi; i++ {
		r.cert[i] = false
		r.dists[i] = math.Inf(1)
		r.indexes[i] = -1

		muA, sdA := r.means[i], r.stds[i]
		switch {
		case st.Degenerate[i]:
			// Constant anchor at seed time: no bound exists; always
			// resolved by recompute when within τ.
			r.maxLBs[i] = 0
			continue
		case st.NextQ2[i] < 0:
			// Every candidate is retained: nothing unseen to bound.
			r.maxLBs[i] = math.Inf(1)
		default:
			base := int(st.Base[i])
			terms := lb.NewAnchorTerms(r.st, i, base, l-base)
			r.maxLBs[i] = terms.Bound(math.Sqrt(st.NextQ2[i]))
		}

		minDist := math.Inf(1)
		minIdx := -1
		at := i * st.Cap
		js := st.J[at : at+int(st.Len[i])]
		qts := st.QT[at : at+len(js)]
		for e, j32 := range js {
			j := int(j32)
			if j >= s {
				continue // candidate no longer long enough
			}
			// All pending length steps in one fused pass.
			qts[e] = kernels.AdvanceDot(qts[e], r.t, i, j, from-1, l)
			if j > i-excl && j < i+excl {
				continue // grown exclusion zone swallowed it
			}
			d := series.DistFromDot(qts[e], fl, muA, sdA, r.means[j], r.stds[j])
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
