package core

// The fast coarse-to-fine plan (Config.LengthSkip / Config.LengthStride):
// length-level pruning layered on top of the per-length machinery. The
// exhaustive plan pays one whole-profile diagonal pass per length because
// the discord sink needs every offset's exact NN distance; this mode
// observes that almost no length can change the discord output, and proves
// it per anchor with the same lower-bound state the pruned pairs pass
// already maintains.
//
// Phase 1 walks every length ascending, exactly like the legacy loop, but
// resolves each length one of three ways:
//
//   - scanned lengths (the stride grid; just ℓmin when only LengthSkip is
//     set) pay a whole-profile pass — seedAll when the strict machinery
//     needs seeding, the incremental diagonal pass otherwise;
//   - strict unscanned lengths run the exact pruned pairs pass, then feed
//     the discord machinery from its certificate: each anchor's candidate
//     profile value is a true pair distance, hence an upper bound on its
//     NN distance, so any anchor whose bound length-normalizes below the
//     running k-th best discord candidate (with (1−1e−9) slack) provably
//     cannot carry the top discord. The few surviving anchors get one
//     exact MASS row each (scanRowProfileOnly — the same kernels as the
//     seed scan, so values are exact);
//   - non-strict unscanned lengths (stride without Strict) carry each
//     anchor's scan-time nearest neighbor forward with one FMA per length
//     (kernels.AdvanceDot): the carried dot product yields the exact
//     distance of a real pair at the current length — an upper bound on
//     the NN distance — which drives the same survivor machinery, plus a
//     best-effort top-k pairs extraction over the carried distances.
//
// Phase 2 (stride runs only) refines: the global best pair's length and
// the top discord's length are re-resolved — together with the unscanned
// lengths within RefineRadius of them — by full incremental passes over a
// fresh head-row state, upgrading those records in place.
//
// Exactness: per-length pairs are exact at every length in strict mode
// (the pruned pass certifies them) and at scanned/refined lengths
// otherwise; the top-1 discord is exact in every mode (the global argmax
// anchor's upper bound beats every pool threshold, so it is always
// recomputed exactly, wins its per-length extraction, and wins the final
// cross-length ranking); discord candidates beyond the top-1 carry exact
// distances but may differ in selection depth from the exhaustive plan
// (the per-length candidate lists are threshold-filtered). Progress emits
// one tick per length in phase 1, so Done reaches Total regardless of how
// many lengths were skipped; sinks are fed once, ascending, after refine.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// How a fast-mode length record was resolved (and counted), so a refine
// upgrade can move it between PlanStats counters.
const (
	recLBSkip uint8 = iota // candidate machinery, no whole-profile pass
	recPruned              // pruned pass fell back to a full recompute
	recFull                // whole-profile pass (scanned or refined)
)

// fastRecord buffers one length's output until the post-refine replay.
type fastRecord struct {
	lr      LengthResult           // Pairs owned by the record
	profile *profile.MatrixProfile // retained at ℓmin only (the sinks' seed)
	cands   []Discord              // stage-one discord candidates
	counter uint8
}

// fastMode is the orchestration state of one coarse-to-fine run.
type fastMode struct {
	r     *run
	sinks []Sink
	ds    *discordSink

	stride     int // ≥ 1; > 1 selects the stride grid + refine phase
	strict     bool
	radius     int
	lmin, lmax int
	k          int // discord depth (ds.k)

	records []fastRecord

	// Discord threshold pool: the k largest candidate norm-dists seen so
	// far, ascending (topNorms[0] is the running k-th best).
	topNorms []float64

	// Carried nearest neighbors (non-strict): anchor i's NN at the last
	// scanned length and its dot product advanced to carryAt.
	nnIdx   []int
	nnQT    []float64
	carryAt int

	survivors []int // per-length scratch
}

// newFastMode decides whether the run takes the coarse-to-fine plan. It
// declines — leaving the legacy loop and its bit-identical default output
// untouched — unless the new flags are set on a pairs+discords run: the
// plan's whole point is avoiding per-length whole-profile passes, which
// only exist when a discord sink is registered. External FullProfile
// sinks keep the legacy loop too (they need real profiles at their
// lengths), as does a degenerate range whose ℓmin admits no pair (the
// built-in sinks seed from the ℓmin profile).
func newFastMode(r *run, sinks []Sink) *fastMode {
	cfg := r.cfg
	stride := cfg.LengthStride
	if stride < 1 {
		stride = 1
	}
	if !cfg.LengthSkip && stride == 1 {
		return nil
	}
	var ds *discordSink
	for _, s := range sinks {
		if d, ok := s.(*discordSink); ok {
			if ds != nil {
				return nil
			}
			ds = d
			continue
		}
		if s.Requires() == FullProfile {
			return nil
		}
	}
	if ds == nil {
		return nil
	}
	if len(r.t)-cfg.LMin+1 <= profile.ExclusionZone(cfg.LMin, cfg.ExclusionFactor) {
		return nil
	}
	radius := cfg.RefineRadius
	if radius <= 0 {
		radius = stride - 1
	}
	return &fastMode{
		r:      r,
		sinks:  sinks,
		ds:     ds,
		stride: stride,
		strict: cfg.LengthSkip || cfg.Strict,
		radius: radius,
		lmin:   cfg.LMin,
		lmax:   cfg.LMax,
		k:      ds.k,
	}
}

// isScanned reports whether length l is on the scan grid: every stride-th
// length from ℓmin under a stride plan, just ℓmin under pure LengthSkip.
func (fm *fastMode) isScanned(l int) bool {
	if fm.stride > 1 {
		return (l-fm.lmin)%fm.stride == 0
	}
	return l == fm.lmin
}

// run executes the coarse-to-fine plan: phase-1 scan, refine, then one
// ascending replay into the sinks.
func (fm *fastMode) run() (PlanStats, error) {
	r := fm.r
	total := fm.lmax - fm.lmin + 1
	fm.records = make([]fastRecord, total)
	for idx, l := 0, fm.lmin; l <= fm.lmax; idx, l = idx+1, l+1 {
		if err := r.ctx.Err(); err != nil {
			return r.planStats, err
		}
		var err error
		switch {
		case fm.isScanned(l):
			err = fm.resolveFull(idx, l)
		case fm.strict:
			err = fm.resolveCheap(idx, l)
		default:
			err = fm.resolveCarry(idx, l)
		}
		if err != nil {
			return r.planStats, err
		}
		if r.cfg.OnLength != nil {
			r.cfg.OnLength(Progress{Done: idx + 1, Total: total, Result: fm.records[idx].lr})
		}
	}
	if fm.stride > 1 {
		if err := fm.refine(); err != nil {
			return r.planStats, err
		}
	}
	for idx := range fm.records {
		l := fm.lmin + idx
		rec := &fm.records[idx]
		ld := LengthData{L: l, Result: rec.lr, Profile: rec.profile}
		for _, s := range fm.sinks {
			if s == Sink(fm.ds) {
				continue // fed candidates directly below
			}
			if sinkWants(s, l) {
				s.Consume(ld)
			}
		}
	}
	fm.ds.addCandidates(fm.allCands())
	return r.planStats, nil
}

// resolveFull resolves a scanned length with a whole-profile pass. The
// first one under the strict plan is the seed scan (it reseeds every
// anchor's partial profile, which the unscanned lengths' pruned pass
// needs); everything else is the incremental diagonal pass.
func (fm *fastMode) resolveFull(idx, l int) error {
	r := fm.r
	var (
		lr  LengthResult
		mp  *profile.MatrixProfile
		err error
	)
	if fm.strict && !r.seeded {
		mp, err = r.seedAll(l)
		if err != nil {
			return err
		}
		lr = LengthResult{M: l, Pairs: mp.TopKPairsInto(r.cfg.TopK, &r.topk)}
		lr.Stats.FullRecompute = true
		r.planStats.RecomputeLengths++
	} else {
		lr, mp, err = r.processLengthIncremental(l)
		if err != nil {
			return err
		}
		r.planStats.IncrementalLengths++
	}
	if fm.stride > 1 {
		r.planStats.StrideScanned++
	}
	rec := &fm.records[idx]
	rec.counter = recFull
	rec.lr = lr
	rec.lr.Pairs = append([]profile.MotifPair(nil), lr.Pairs...)
	if l == fm.lmin {
		rec.profile = mp
	}
	if mp != nil {
		rec.cands = fm.takeCands(mp.TopKDiscords(fm.k), l)
		if !fm.strict {
			fm.reseedCarry(mp, l)
		}
	}
	return nil
}

// resolveCheap resolves a strict unscanned length: the exact pruned pairs
// pass, then the lower-bound discord certificate. When the pairs fixpoint
// fell back to a whole-profile recompute anyway, the profile is reused
// for exact discord extraction instead.
func (fm *fastMode) resolveCheap(idx, l int) error {
	r := fm.r
	s := len(r.t) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	rec := &fm.records[idx]
	lr, mp, err := r.processLength(l)
	if err != nil {
		return err
	}
	rec.lr = lr
	rec.lr.Pairs = append([]profile.MotifPair(nil), lr.Pairs...)
	if mp != nil {
		r.planStats.PrunedLengths++
		rec.counter = recPruned
		rec.cands = fm.takeCands(mp.TopKDiscords(fm.k), l)
		return nil
	}
	r.planStats.LBSkippedLengths++
	rec.counter = recLBSkip
	if s <= excl {
		return nil
	}
	// r.lmp now holds each anchor's certified-exact value or its best
	// retained true-pair distance (an NN upper bound); r.cert marks which
	// anchors are exact (certified or recomputed by the fixpoint).
	if err := fm.recomputeSurvivors(l, excl, s, r.cert); err != nil {
		return err
	}
	for _, i := range fm.survivors {
		r.cert[i] = true // exact now (scratch; reset by the next advance pass)
	}
	rec.cands = fm.extractCands(l, func(yield func(int)) {
		for i := 0; i < s; i++ {
			if r.cert[i] {
				yield(i)
			}
		}
	})
	return nil
}

// resolveCarry resolves a non-strict unscanned length from the carried
// nearest neighbors: advance each anchor's scan-time NN dot product to l
// (one fused AdvanceDot per anchor), turn it into the exact distance of
// that real pair — an upper bound on the anchor's NN distance — and run
// the same survivor machinery. Pairs are extracted best-effort from the
// carried (plus recomputed-exact) distances: every reported pair is a
// real pair with its exact distance, but the per-length top-k is not
// certified at carried lengths.
func (fm *fastMode) resolveCarry(idx, l int) error {
	r := fm.r
	s := len(r.t) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	rec := &fm.records[idx]
	rec.counter = recLBSkip
	r.planStats.LBSkippedLengths++
	rec.lr = LengthResult{M: l}
	if s <= excl {
		return nil
	}
	r.momentsAt(l)
	lmp := &r.lmp
	lmp.Reset(l, excl, s)
	t := r.t
	fl := float64(l)
	from := fm.carryAt
	for i := 0; i < s; i++ {
		j := fm.nnIdx[i]
		if j < 0 {
			continue
		}
		if j >= s || (j > i-excl && j < i+excl) {
			// The neighbor no longer exists at this length (or the grown
			// exclusion zone swallowed it); the carry dies until the next
			// scanned length reseeds it.
			fm.nnIdx[i] = -1
			continue
		}
		qt := kernels.AdvanceDot(fm.nnQT[i], t, i, j, from, l)
		fm.nnQT[i] = qt
		lmp.Dist[i] = series.DistFromDot(qt, fl, r.means[i], r.stds[i], r.means[j], r.stds[j])
		lmp.Index[i] = j
	}
	fm.carryAt = l
	if err := fm.recomputeSurvivors(l, excl, s, nil); err != nil {
		return err
	}
	rec.lr.Pairs = append([]profile.MotifPair(nil), lmp.TopKPairsInto(r.cfg.TopK, &r.topk)...)
	rec.cands = fm.extractCands(l, func(yield func(int)) {
		for _, i := range fm.survivors {
			yield(i)
		}
	})
	return nil
}

// reseedCarry records each anchor's nearest neighbor at scanned length l
// and its exact dot product (recomputed directly, so the carry starts
// from exact state rather than reconstructed kernel intermediates).
func (fm *fastMode) reseedCarry(mp *profile.MatrixProfile, l int) {
	r := fm.r
	s := len(r.t) - l + 1
	if fm.nnIdx == nil {
		fm.nnIdx = make([]int, r.sMin)
		fm.nnQT = make([]float64, r.sMin)
	}
	t := r.t
	for i := 0; i < s; i++ {
		j := mp.Index[i]
		fm.nnIdx[i] = j
		if j >= 0 {
			fm.nnQT[i] = series.Dot(t[i:i+l], t[j:j+l])
		}
	}
	fm.carryAt = l
}

// tau returns the survivor threshold: the running k-th best candidate
// norm-dist with (1−1e−9) relative slack (so an anchor whose upper bound
// ties the threshold within rounding still survives), or −Inf while the
// pool holds fewer than k candidates.
func (fm *fastMode) tau() float64 {
	if len(fm.topNorms) < fm.k {
		return math.Inf(-1)
	}
	return fm.topNorms[0] * (1 - 1e-9)
}

// poolAdd feeds one candidate norm-dist into the threshold pool.
func (fm *fastMode) poolAdd(nd float64) {
	if len(fm.topNorms) < fm.k {
		fm.topNorms = append(fm.topNorms, nd)
		sort.Float64s(fm.topNorms)
		return
	}
	if nd > fm.topNorms[0] {
		fm.topNorms[0] = nd
		for i := 1; i < len(fm.topNorms) && fm.topNorms[i] < fm.topNorms[i-1]; i++ {
			fm.topNorms[i-1], fm.topNorms[i] = fm.topNorms[i], fm.topNorms[i-1]
		}
	}
}

// takeCands converts a per-length profile.TopKDiscords extraction into
// pooled cross-length candidates.
func (fm *fastMode) takeCands(ds []profile.Discord, l int) []Discord {
	out := make([]Discord, 0, len(ds))
	for _, d := range ds {
		c := Discord{I: d.I, L: l, Dist: d.Dist}
		out = append(out, c)
		fm.poolAdd(c.NormDist())
	}
	return out
}

// recomputeSurvivors selects the anchors whose NN upper bound (r.lmp)
// still length-normalizes at or above the pool threshold — everything
// below it provably cannot carry the top discord — and resolves each
// survivor's exact NN with one MASS row (distributed across Workers with
// per-anchor slot writes, so results are worker-count independent).
// exact, when non-nil, marks anchors already holding exact values (they
// need no recompute). Anchors with no upper bound at all (+Inf) always
// survive.
func (fm *fastMode) recomputeSurvivors(l, excl, s int, exact []bool) error {
	r := fm.r
	tau := fm.tau()
	norm := math.Sqrt(1 / float64(l))
	lmp := &r.lmp
	surv := fm.survivors[:0]
	for i := 0; i < s; i++ {
		if exact != nil && exact[i] {
			continue
		}
		u := math.Inf(1)
		if lmp.Index[i] >= 0 {
			u = lmp.Dist[i]
		}
		if u*norm >= tau {
			surv = append(surv, i)
		}
	}
	fm.survivors = surv
	if len(surv) == 0 {
		return nil
	}
	workers := r.workers
	if workers > len(surv) {
		workers = len(surv)
	}
	if workers <= 1 {
		for _, i := range surv {
			row := r.corr.Dots(r.t[i:i+l], r.rowQT[:s])
			r.scanRowProfileOnly(i, l, excl, s, row, lmp)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				corr := r.corr.Clone()
				defer corr.Release()
				row := r.eng.getRow(s)
				defer r.eng.putRow(row)
				for {
					x := int(next.Add(1)) - 1
					if x >= len(surv) {
						return
					}
					i := surv[x]
					r.scanRowProfileOnly(i, l, excl, s, corr.Dots(r.t[i:i+l], row), lmp)
				}
			}()
		}
		wg.Wait()
	}
	// lmp.Update keeps the minimum, so each survivor's slot now holds its
	// exact NN (the exact value can only undercut the stored upper bound).
	return r.ctx.Err()
}

// extractCands mimics profile.TopKDiscords over the anchors iter yields,
// reading their (now exact) values from r.lmp: threshold-filter, sort by
// distance descending (offset ascending on ties), greedy within-length
// exclusion, cap k. Restricting extraction to exact anchors at or above
// the pool threshold is what makes deeper candidate depth best-effort —
// and what keeps the top-1 discord exact, since the global argmax always
// clears every threshold.
func (fm *fastMode) extractCands(l int, iter func(yield func(int))) []Discord {
	r := fm.r
	lmp := &r.lmp
	tau := fm.tau()
	norm := math.Sqrt(1 / float64(l))
	type cand struct {
		i int
		d float64
	}
	var cands []cand
	iter(func(i int) {
		if lmp.Index[i] < 0 || math.IsInf(lmp.Dist[i], 1) {
			return
		}
		if d := lmp.Dist[i]; d*norm >= tau {
			cands = append(cands, cand{i, d})
		}
	})
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d > cands[b].d
		}
		return cands[a].i < cands[b].i
	})
	var out []profile.Discord
	used := make([]int, 0, fm.k)
	for _, c := range cands {
		if len(out) >= fm.k {
			break
		}
		skip := false
		for _, u := range used {
			if abs(c.i-u) < lmp.Exclusion {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		out = append(out, profile.Discord{I: c.i, Dist: c.d})
		used = append(used, c.i)
	}
	return fm.takeCands(out, l)
}

// refine re-resolves the lengths around the phase-1 winners — the global
// best pair's length and the top discord's length — with full incremental
// passes over a fresh head-row state (the primary carried state has moved
// past them), upgrading the buffered records in place. Only unscanned
// records are refined; scanned ones are already exact. No progress ticks
// are emitted (phase 1 already reached Done == Total).
func (fm *fastMode) refine() error {
	r := fm.r
	pairL := -1
	bestNorm := math.Inf(1)
	for idx := range fm.records {
		for _, p := range fm.records[idx].lr.Pairs {
			if nd := p.NormDist(); nd < bestNorm {
				bestNorm = nd
				pairL = fm.lmin + idx
			}
		}
	}
	discL := -1
	tmp := newDiscordSink(fm.k, r.cfg.ExclusionFactor)
	tmp.addCandidates(fm.allCands())
	if ds := tmp.Discords(); len(ds) > 0 {
		discL = ds[0].L
	}
	set := make(map[int]bool)
	addWindow := func(w int) {
		if w < 0 {
			return
		}
		for l := w - fm.radius; l <= w+fm.radius; l++ {
			if l < fm.lmin || l > fm.lmax {
				continue
			}
			if fm.records[l-fm.lmin].counter != recFull {
				set[l] = true
			}
		}
	}
	addWindow(pairL)
	addWindow(discL)
	if len(set) == 0 {
		return nil
	}
	ls := make([]int, 0, len(set))
	for l := range set {
		ls = append(ls, l)
	}
	sort.Ints(ls)

	var st incState
	for _, l := range ls {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		lr, mp, err := r.processLengthIncrementalAt(&st, l)
		if err != nil {
			return err
		}
		rec := &fm.records[l-fm.lmin]
		if rec.counter == recPruned {
			r.planStats.PrunedLengths--
		} else {
			r.planStats.LBSkippedLengths--
		}
		rec.counter = recFull
		r.planStats.IncrementalLengths++
		r.planStats.RefinedLengths++
		rec.lr = lr
		rec.lr.Pairs = append([]profile.MotifPair(nil), lr.Pairs...)
		rec.cands = nil
		if mp != nil {
			rec.cands = fm.takeCands(mp.TopKDiscords(fm.k), l)
		}
	}
	return nil
}

// allCands concatenates the buffered stage-one candidates in ascending
// length order — the order the legacy per-length Consume would have fed
// the discord sink.
func (fm *fastMode) allCands() []Discord {
	var out []Discord
	for idx := range fm.records {
		out = append(out, fm.records[idx].cands...)
	}
	return out
}
