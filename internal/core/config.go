// Package core implements VALMOD (Variable-Length Motif Discovery), the
// paper's primary contribution: exact top-k motif pairs for every
// subsequence length in [ℓmin, ℓmax], at a fraction of the cost of running
// a fixed-length algorithm per length.
//
// The algorithm follows the demo paper §2 exactly:
//
//  1. Compute the matrix profile at ℓmin and, for every anchor, retain the
//     entries with the smallest lower-bounding distance (internal/lb;
//     rank preservation makes this the largest q̃², and q̃ = ℓ·σ·ρ makes
//     it the largest ρ², ρ the pair's correlation) — the "partial
//     distance profiles", min(p, 4) entries each at the seed and p for an
//     anchor refilled by a recompute. One sweep over the diagonals does
//     both: each pair is visited once, and its correlation updates both
//     endpoints' profile values and keys both endpoints' candidate-list
//     offers.
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
//     profile recomputed from a from-scratch dot-product row (the paper's
//     MASS; rows.go computes it directly below an FFT cutover) and their
//     partial profile reseeded, both from one correlation pass over the
//     row (kernels.RowScan).
//     When too many anchors need recomputing, fall back to one seed
//     sweep at that length and reseed everything.
//
// The implementation is structured as a pipeline around a reusable Engine:
// config.go (parameters), engine.go (Engine, pooled scratch, the per-run
// orchestration), seed.go (the seed sweep, also the full-recompute
// fallback, and the per-anchor row scan of recomputes),
// length.go (the per-length advance→certify→recompute loop), rows.go
// (every dot-product row computed from scratch: direct below the FFT
// cutover, through the correlator above it), incremental.go (the
// incremental cross-length profile engine serving FullProfile lengths:
// diagonal dot-product state carried from length to length with one FMA
// per cell, one head row per run), sink.go (the per-length
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
	// MaxP bounds Config.P. The partial-profile store is allocated at
	// the first seed with s·min(P, s) slots, so an unbounded P would ask
	// for s² of them; 256 is well above every measured optimum (at most
	// 40) and every P the repository runs (at most 50).
	MaxP = 256
	// DefaultRecomputeFraction: one anchor recompute costs a
	// dot-product row and its scan — s·ℓ multiply-adds below the FFT
	// cutover of rows.go, Θ(n log n) above it — and a full seed sweep
	// Θ(s²) cells, which also reseed every partial profile with tight
	// bounds at the current length. The 0.05 was set against the FFT row
	// (breakeven near s/log n); against the direct row the breakeven
	// falls as 1/ℓ, and the default is kept until it is re-derived.
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
	// P is the most entries a partial distance profile retains (default
	// 10, at most MaxP). The seed sweep keeps min(P, seedKeep) entries
	// per anchor, seedKeep = 4, and an anchor recomputed after failing
	// certification keeps P. Larger P certifies more recomputed anchors
	// at the cost of memory and per-length work.
	P int
	// ExclusionFactor sets the trivial-match zone ⌈ℓ/factor⌉ (default 4).
	ExclusionFactor int
	// RecomputeFraction is the fraction of anchors above which one seed
	// sweep at the length replaces individual anchor recomputes
	// (default 0.05; see DefaultRecomputeFraction for the cost model).
	RecomputeFraction float64
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
	// results always give the same pairs as a batch run over the last
	// min(n, WindowCap) points, within floating tolerance. They are
	// bit-identical across worker counts and across checkpoint/resume,
	// but not across chunkings: a sparse repair keeps the survivors'
	// carried dot products, whose recurrences began on points since
	// evicted. Must be at least LMax (every length needs one window).
	// Batch runs ignore it.
	WindowCap int
	// Workers bounds the goroutines used by the data-parallel phases: the
	// ℓmin seed sweep, full-recompute fallbacks, the per-length
	// advance→certify pass over anchor shards, the recompute batches, and
	// the incremental diagonal pass over diagonal blocks; a Streamer
	// spreads its lengths across them. 0 selects GOMAXPROCS; 1 runs
	// serially. Every phase is partitioned on fixed grids that do not
	// depend on the worker count, so the output is bit-identical at every
	// setting.
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
	// failing it. Rejected when custom RunSinks consumers are registered —
	// only Engine.Run's built-in sink pipeline is serializable.
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
	if c.P > MaxP {
		return fmt.Errorf("%w: p=%d: must be at most %d", ErrBadConfig, c.P, MaxP)
	}
	return nil
}
