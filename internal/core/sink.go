package core

import (
	"math"
	"sort"

	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/valmap"
)

// Requirement is the level of per-length data a Sink needs. The engine
// plans every length individually from the sinks that want that length
// (see planLengths), so adding a cheap consumer never forces expensive
// work, adding an expensive one never forks the pipeline, and an
// expensive sink restricted to a length subset (LengthSelector) only
// upgrades the lengths it actually wants.
type Requirement int

const (
	// TopKPairs is served by the pruned VALMOD pass: the exact top-k
	// motif pairs of each length, certified by the lower-bound machinery
	// without materializing every nearest-neighbor distance — or, once
	// the cost model predicts it to be cheaper, by the incremental
	// whole-profile pass (the same pairs within floating tolerance).
	TopKPairs Requirement = iota
	// FullProfile requires the exact nearest-neighbor distance of every
	// subsequence offset at the lengths the sink wants. The pruned pass
	// cannot provide it (it certifies only the reported top-k), so those
	// lengths run a whole-profile pass — the incremental cross-length
	// engine (incremental.go), which carries the diagonal dot-product
	// state from length to length on a fixed diagonal-block grid, so
	// output stays bit-identical at any worker count.
	FullProfile
)

// LengthData is delivered to every registered sink after one subsequence
// length resolves, in increasing-length order. Sinks run on the engine
// goroutine. A delivered Profile is never mutated by the engine
// afterwards, so a sink may retain it — but that holds O(s) memory per
// length; sinks that only need a reduction should extract it during
// Consume and let the profile go. Result.Pairs, in contrast, is backed by
// engine-owned scratch recycled at the next length (the zero-alloc steady
// state): it is valid only during Consume, and a sink that retains pairs
// must copy them (as the built-in pairs sink does).
type LengthData struct {
	// L is the completed subsequence length.
	L int
	// Result carries the exact top-k pairs and the resolution stats.
	Result LengthResult
	// Profile is the exact matrix profile at L. It is present whenever
	// the engine resolved the length with a whole-profile pass
	// (Result.Stats.FullRecompute): at every length planned FullProfile,
	// at the length that seeds the pruned machinery (the first pruned
	// length — ℓmin on the default plan, so the first delivery always
	// carries a profile when every sink wants every length), at a pruned
	// length whose fixpoint fell back to a seed sweep, and at the pruned
	// lengths the cost model moved to the incremental pass. At lengths
	// admitting no non-trivial pair it is nil on the FullProfile paths.
	Profile *profile.MatrixProfile
}

// Sink is one consumer of the per-length pipeline. Built-in sinks
// implement the top-k-pairs result, the VALMAP, and variable-length
// discords; external workloads (motif sets, streaming stats) plug in
// through Engine.RunSinks without touching the length loop.
type Sink interface {
	// Requires declares the per-length data this sink needs; the engine
	// plans each length from the sinks that want that length.
	Requires() Requirement
	// Consume receives each completed length this sink wants (every
	// length, unless the sink also implements LengthSelector), in
	// increasing order, on the goroutine running the engine.
	Consume(ld LengthData)
}

// LengthSelector optionally restricts a Sink to a subset of the run's
// lengths — discords over a sub-range, a downsampled length grid for a
// preview, a single checkpoint length. The engine consults it when
// planning: a length only FullProfile sinks *don't* want runs the cheap
// pruned pass instead, and a length no sink wants at all is skipped.
// WantsLength must be pure (the planner may evaluate it once up front and
// the dispatcher again per delivery).
type LengthSelector interface {
	WantsLength(l int) bool
}

// sinkWants reports whether sink s consumes length l: every length,
// unless the sink narrows itself via LengthSelector.
func sinkWants(s Sink, l int) bool {
	if sel, ok := s.(LengthSelector); ok {
		return sel.WantsLength(l)
	}
	return true
}

// lengthPlan is the planner's decision for one length.
type lengthPlan uint8

const (
	// planSkip: no sink wants the length; nothing runs.
	planSkip lengthPlan = iota
	// planPruned: only TopKPairs sinks want it; the pruned
	// advance→certify pass resolves it, until the cost model (cost.go)
	// latches the run onto the incremental pass.
	planPruned
	// planFull: a FullProfile sink wants it; a whole-profile pass
	// resolves it — incrementally, unless the pass doubles as the pruned
	// machinery's seed.
	planFull
)

// planLengths decides one plan per length from the sinks that want it.
// The static plan is refined while the run executes: the cost model may
// move the remaining planPruned lengths to the incremental pass
// (runSinksFrom, cost.go).
func planLengths(cfg Config, sinks []Sink) []lengthPlan {
	plans := make([]lengthPlan, cfg.LMax-cfg.LMin+1)
	for idx := range plans {
		l := cfg.LMin + idx
		full, pairs := false, false
		for _, s := range sinks {
			if !sinkWants(s, l) {
				continue
			}
			if s.Requires() == FullProfile {
				full = true
			} else {
				pairs = true
			}
		}
		switch {
		case full:
			plans[idx] = planFull
		case pairs:
			plans[idx] = planPruned
		default:
			plans[idx] = planSkip
		}
	}
	return plans
}

// pairsSink accumulates the per-length results and the ℓmin profile —
// the classic VALMOD output, reimplemented as the first pipeline sink.
type pairsSink struct {
	perLength []LengthResult
	mpMin     *profile.MatrixProfile
}

func (*pairsSink) Requires() Requirement { return TopKPairs }

func (s *pairsSink) Consume(ld LengthData) {
	if s.mpMin == nil {
		s.mpMin = ld.Profile // first delivery is ℓmin; its profile is always present
	}
	lr := ld.Result
	lr.Pairs = append([]profile.MotifPair(nil), lr.Pairs...) // engine scratch → owned copy
	s.perLength = append(s.perLength, lr)
}

// valmapSink folds each length's pairs into the VALMAP meta structure:
// seeded from the (always present) ℓmin profile, then one checkpoint per
// improving length.
type valmapSink struct {
	vm *valmap.VALMAP
}

func newValmapSink(lmin, lmax, sMin int) (*valmapSink, error) {
	vm, err := valmap.New(lmin, lmax, sMin)
	if err != nil {
		return nil, err
	}
	return &valmapSink{vm: vm}, nil
}

func (*valmapSink) Requires() Requirement { return TopKPairs }

func (s *valmapSink) Consume(ld LengthData) {
	if ld.L == s.vm.LMin {
		seedValmap(s.vm, ld.Profile, ld.L)
		return
	}
	s.vm.BeginLength(ld.L)
	for _, p := range ld.Result.Pairs {
		nd := p.NormDist()
		s.vm.Apply(p.A, nd, p.B, ld.L)
		s.vm.Apply(p.B, nd, p.A, ld.L)
	}
	s.vm.EndLength()
}

// seedValmap starts vm as the length-normalized profile mp at ℓmin = l
// (flat LP) and seals it. A nil profile means ℓmin admits no non-trivial
// pair (the range starts flush against the series end): the empty map is
// sealed, and longer lengths, if any, improve nothing. A resumed run
// re-derives the sealed state through it from the checkpointed ℓmin
// profile (resumeValmap).
func seedValmap(vm *valmap.VALMAP, mp *profile.MatrixProfile, l int) {
	if mp != nil {
		for i := range mp.Dist {
			if mp.Index[i] >= 0 {
				vm.InitFromProfile(i, series.LengthNormalize(mp.Dist[i], l), mp.Index[i], l)
			}
		}
	}
	vm.Seal()
}

// Discord is one variable-length anomaly: the subsequence at offset I of
// length L whose nearest non-trivial neighbor is Dist away — the larger,
// the more isolated the subsequence.
type Discord struct {
	I    int     // subsequence offset
	L    int     // subsequence length
	Dist float64 // exact z-normalized nearest-neighbor distance
}

// NormDist returns the length-normalized distance d·√(1/L) used to rank
// discords of different lengths, mirroring MotifPair.NormDist.
func (d Discord) NormDist() float64 {
	return d.Dist * math.Sqrt(1/float64(d.L))
}

// discordSink extracts the top-k variable-length discords under the
// two-stage definition the suite documents (the discord analogue of
// Result.TopMotifs, which likewise ranks the per-length *reported*
// pairs): stage one keeps each length's k best discords from the exact
// profile (largest NN distance, trivial matches de-duplicated — the
// classic fixed-length extraction); stage two ranks those candidates by
// length-normalized distance and greedily selects under cross-length
// trivial-match exclusion. Every reported distance is the exact NN
// distance — that is what FullProfile buys; the pruned pass certifies
// only the top-k pairs, never per-offset NN distances. Note the
// cross-length exclusion applies to stage-one survivors only: a
// candidate below a length's top k is never reconsidered, even if
// exclusion removes that length's retained candidates.
type discordSink struct {
	k      int
	factor int // exclusion factor (already defaulted by Config.Fill)
	cands  []Discord
}

func newDiscordSink(k, factor int) *discordSink {
	return &discordSink{k: k, factor: factor}
}

func (*discordSink) Requires() Requirement { return FullProfile }

func (s *discordSink) Consume(ld LengthData) {
	if ld.Profile == nil {
		return // length admits no non-trivial pair: no finite NN distance exists
	}
	for _, d := range ld.Profile.TopKDiscords(s.k) {
		s.cands = append(s.cands, Discord{I: d.I, L: ld.L, Dist: d.Dist})
	}
}

// Discords returns the final cross-length ranking: candidates sorted by
// length-normalized distance descending (ties: shorter length, then
// smaller offset — a total order, so the selection is deterministic),
// greedily keeping a candidate unless it is a trivial match of an
// already-chosen discord: |I−I'| < ⌈max(L, L')/factor⌉.
func (s *discordSink) Discords() []Discord {
	cands := append([]Discord(nil), s.cands...)
	sort.Slice(cands, func(a, b int) bool {
		da, db := cands[a].NormDist(), cands[b].NormDist()
		if da != db {
			return da > db
		}
		if cands[a].L != cands[b].L {
			return cands[a].L < cands[b].L
		}
		return cands[a].I < cands[b].I
	})
	var out []Discord
	for _, c := range cands {
		if len(out) >= s.k {
			break
		}
		trivial := false
		for _, u := range out {
			lz := c.L
			if u.L > lz {
				lz = u.L
			}
			if abs(c.I-u.I) < profile.ExclusionZone(lz, s.factor) {
				trivial = true
				break
			}
		}
		if !trivial {
			out = append(out, c)
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
