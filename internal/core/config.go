// Package core implements VALMOD (Variable-Length Motif Discovery), the
// paper's primary contribution: exact top-k motif pairs for every
// subsequence length in [ℓmin, ℓmax], at a fraction of the cost of running
// a fixed-length algorithm per length.
//
// The algorithm follows the demo paper §2 exactly:
//
//  1. Compute the matrix profile at ℓmin with STOMP-style row recurrences.
//     While each distance-profile row is in memory, retain the p entries
//     with the smallest lower-bounding distance (internal/lb; rank
//     preservation makes this the p largest q̃²) — the "partial distance
//     profiles".
//  2. For each longer length, advance each retained entry's dot product in
//     O(1), recompute its exact distance, and compare the anchor's best
//     exact distance (minDist) against the bound covering every
//     non-retained candidate (maxLB). minDist ≤ maxLB certifies the anchor:
//     its matrix-profile value at this length is exact (a "valid partial
//     distance profile", Figure 2b top). Otherwise the anchor is non-valid
//     (Figure 2b bottom).
//  3. minLBAbs — the smallest maxLB among non-valid anchors — certifies the
//     extracted top-k pairs; anchors that could still hide better matches
//     (maxLB below the current k-th best distance) get their distance
//     profile recomputed with MASS and their partial profile reseeded.
//     When too many anchors need recomputing, fall back to one full
//     STOMP pass at that length and reseed everything.
//
// The implementation is structured as a pipeline around a reusable Engine:
// config.go (parameters), engine.go (Engine, pooled scratch, the per-run
// orchestration), seed.go (the seeding / full-recompute block scan),
// length.go (the per-length advance→certify→recompute loop),
// incremental.go (the incremental cross-length profile engine serving
// FullProfile lengths: diagonal dot-product state carried from length to
// length with one FMA per cell, one FFT per run), sink.go (the per-length
// Sink pipeline: the planner deciding pruned/full/skip per length plus
// the built-in pairs, VALMAP and discord sinks), cost.go (the cost model
// that switches a run from the pruned to the incremental pass once the
// counted work says it is cheaper), result.go (outputs),
// with the per-anchor state in internal/core/anchors.
package core

import (
	"errors"
	"fmt"

	"github.com/seriesmining/valmod/internal/profile"
)

// Default parameter values; see Config.
const (
	DefaultTopK = 10
	DefaultP    = 10
	// DefaultRecomputeFraction: one MASS recompute costs Θ(n log n), a full
	// STOMP pass Θ(s²) — but the full pass also reseeds every partial
	// profile with tight bounds at the current length, so the breakeven
	// sits near s/log n ≈ 5% of anchors, not 25%.
	DefaultRecomputeFraction = 0.05
)

// ErrBadConfig is returned when the configuration is inconsistent with the
// series.
var ErrBadConfig = errors.New("core: bad config")

// Config parameterizes a VALMOD run.
type Config struct {
	// LMin, LMax bound the subsequence lengths (inclusive).
	LMin, LMax int
	// TopK is the number of motif pairs reported per length (default 10).
	TopK int
	// P is the number of entries retained per partial distance profile
	// (default 10). Larger P certifies more anchors per length at the cost
	// of memory and per-length work.
	P int
	// ExclusionFactor sets the trivial-match zone ⌈ℓ/factor⌉ (default 4).
	ExclusionFactor int
	// RecomputeFraction is the fraction of anchors above which a full
	// per-length STOMP recompute replaces individual MASS recomputes
	// (default 0.05; see DefaultRecomputeFraction for the cost model).
	RecomputeFraction float64
	// DisablePruning forces a whole-profile pass at every length — the
	// lower-bound ablation. The pairs match the pruned plan's within the
	// cross-plan floating tolerance (identical pair sets, distances equal
	// to ~1e-12 relative), not bit for bit: the two passes route dot
	// products along different arithmetic paths.
	DisablePruning bool
	// DisableIncremental forces every whole-profile length to recompute
	// from scratch (FFT reseeds + STOMP row scan) instead of extending
	// the carried cross-length dot-product state — the incremental-engine
	// ablation, and the parity reference the CI smoke checks the
	// incremental plan against. Equivalent output, one full pass per
	// length.
	DisableIncremental bool
	// Discords, when positive, reports that many variable-length
	// discords (Result.Discords): per length the k largest exact NN
	// distances with trivial-match de-dup, then ranked across lengths by
	// length-normalized distance under cross-length exclusion (see
	// discordSink). The exact per-offset NN distances require the
	// FullProfile plan, so a positive value switches every length to the
	// incremental whole-profile pass (pairs and VALMAP stay equivalent
	// within floating tolerance; per-length resolution stats report
	// full — incremental — recomputes).
	Discords int
	// WindowCap, when positive, puts the streaming engine (Streamer) in
	// sliding-window mode: after every Append the retained series is
	// trimmed to exactly the trailing WindowCap points, evicted offsets
	// are dropped and surviving profile entries whose nearest neighbor
	// was evicted are repaired exactly over the remaining window — so
	// results are always a pure function of the last min(n, WindowCap)
	// points, independent of how the stream was chunked. Must be at least
	// LMax (every length needs one window). Batch runs ignore it.
	WindowCap int
	// LengthSkip enables LB length skipping on pairs+discords runs
	// (Discords > 0): only ℓmin pays a whole-profile pass; every later
	// length runs the cheap pruned pairs pass, and its discord candidates
	// come from the lower-bound certificate instead of an O(s²) profile —
	// each anchor's best retained-entry distance is a true pair distance,
	// hence an upper bound on its NN distance, so anchors whose bound
	// normalizes below the running k-th best discord (with 1−1e−9 slack)
	// provably cannot carry the top discord and are skipped; the few
	// survivors get one exact MASS row each. Per-length pairs stay exact,
	// the top-1 discord is exact, and deeper discord candidates keep exact
	// distances but may differ in selection depth from the exhaustive
	// plan. Ignored when Discords == 0 (the default plan is already
	// all-pruned) and under the DisablePruning/DisableIncremental
	// ablations.
	LengthSkip bool
	// LengthStride, when > 1, switches pairs+discords runs to the
	// coarse-to-fine plan: whole-profile passes run only at every
	// LengthStride-th length starting from ℓmin (the scan grid), and after
	// the scan a refine phase re-resolves the unscanned lengths within
	// RefineRadius of the winners (the global best pair's length and the
	// top discord's length) with full passes. Between scanned lengths the
	// engine carries each anchor's scan-time NN dot product forward (one
	// FMA per anchor per length), which yields exact distances of real
	// pairs — approximate per-length top-k — plus the same lower-bound
	// discord certificate LengthSkip uses, so the top discord stays exact
	// while per-length pairs at strided-over lengths are best-effort
	// unless Strict is set. 0 or 1 means every length is scanned
	// (exhaustive). Ignored when Discords == 0 and under the ablations.
	LengthStride int
	// RefineRadius bounds the refine window: unscanned lengths within
	// this distance of a winner length are re-resolved exhaustively.
	// 0 selects the full gap (LengthStride − 1), which makes Strict
	// stride/refine cover every length adjacent to a winner; large-n runs
	// can shrink it to bound the number of O(s²) refine passes.
	RefineRadius int
	// Strict upgrades strided-over lengths from the carried-NN
	// approximation to the LengthSkip treatment: the run seeds the pruned
	// machinery at ℓmin with a full row scan, every strided-over length
	// runs the exact pruned pairs pass, and discord candidates keep the
	// lower-bound certificate — so stride/refine reports exact per-length
	// pairs at every length and the exact top discord. No effect unless
	// LengthStride > 1 (LengthSkip already implies the strict treatment).
	Strict bool
	// Carry32 stores the incremental engine's cross-length diagonal carry
	// — the head row and the series copy feeding the in-length recurrence
	// — in float32 with float64 accumulation (kernels.DiagScan32 /
	// ExtendRow32), halving the bandwidth of the arrays the diagonal pass
	// streams at large n. Whole-profile correlations then differ from the
	// float64 plan in the last bits (pair/discord identities are expected
	// to agree; tolerance-tested, not bit-identical). The pruned pass and
	// the seed row scan always stay float64: their rows feed the q̃² ranks
	// that drive lower-bound certification. The lengths of a pairs-only
	// run that the cost model switches to the incremental pass use the
	// float32 carry too.
	Carry32 bool
	// Workers bounds the goroutines used by the data-parallel phases: the
	// ℓmin seed, full-recompute fallbacks, and the per-length
	// advance→certify pass over anchor shards. 0 selects GOMAXPROCS;
	// 1 runs serially. Both phases are partitioned on fixed grids that do
	// not depend on the worker count, so the output is bit-identical at
	// every setting.
	Workers int
	// OnLength, when non-nil, receives a Progress notification after each
	// completed length (ℓmin included), in increasing-length order, on the
	// goroutine running the engine. A slow callback slows the run; the run
	// still honors context cancellation between lengths.
	OnLength func(Progress)
	// OnCheckpoint, when non-nil, receives a serialized engine checkpoint
	// (see checkpoint.go) after completed lengths, on the engine goroutine;
	// the blob is valid only during the callback (durable consumers write
	// it out before returning). Resume through Engine.ResumeRun is
	// byte-identical to the uninterrupted run at every worker count. An
	// error return disables further checkpoints for the run without
	// failing it. Ignored by the fast coarse-to-fine plans
	// (LengthSkip/LengthStride) and rejected when custom RunSinks
	// consumers are registered — only Engine.Run's built-in sink pipeline
	// is serializable.
	OnCheckpoint func(ckpt []byte) error
	// CheckpointEvery emits a checkpoint every k-th completed length
	// (default 1 — every length boundary). Larger values amortize the
	// O(state) serialization over more compute at the cost of more lost
	// work on a crash. No effect unless OnCheckpoint is set.
	CheckpointEvery int

	// pinPruned keeps every pruned length on the pruned pass, bypassing
	// the cost model's switch to the incremental pass (cost.go). Tests set
	// it to drive the pruned machinery across a whole range; it is
	// unexported, so no caller outside this package can.
	pinPruned bool
}

// Fill substitutes the effective defaults for zero/out-of-range fields.
// Run applies it on entry; the serving layer calls it too, so cache keys
// are derived from exactly the configuration that runs — keep this the
// single place the default rules live.
func (c *Config) Fill() {
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.P <= 0 {
		c.P = DefaultP
	}
	if c.ExclusionFactor <= 0 {
		c.ExclusionFactor = profile.DefaultExclusionFactor
	}
	if c.RecomputeFraction <= 0 || c.RecomputeFraction > 1 {
		c.RecomputeFraction = DefaultRecomputeFraction
	}
}

// ValidateRange is the single statement of the length-range rules, shared
// by Config.validate and the public API's pre-flight Validate so the two
// can never drift. The error is unwrapped; callers add their sentinel.
func ValidateRange(n, lmin, lmax int) error {
	if lmin < 4 {
		return fmt.Errorf("lmin=%d: must be >= 4", lmin)
	}
	if lmax < lmin {
		return fmt.Errorf("lmax=%d: must be >= lmin (%d)", lmax, lmin)
	}
	if lmax > n {
		return fmt.Errorf("lmax=%d: exceeds series length %d", lmax, n)
	}
	return nil
}

func (c Config) validate(n int) error {
	if err := ValidateRange(n, c.LMin, c.LMax); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}
