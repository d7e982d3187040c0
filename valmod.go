package valmod

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/seriesmining/valmod/internal/core"
	"github.com/seriesmining/valmod/internal/motifset"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/rank"
	"github.com/seriesmining/valmod/internal/valmap"
)

// ErrBadInput is returned for inconsistent arguments (empty series, bad
// length ranges, invalid options, non-finite values). Every validation
// failure wraps ErrBadInput and names the offending argument or Options
// field — "Options.TopK=-1: …", "lmin=2: …", "values[17]: …" — so callers
// can test with errors.Is and surface the message verbatim.
var ErrBadInput = errors.New("valmod: bad input")

// ErrBadCheckpoint is returned by DiscoverResume and ResumeStream when a
// checkpoint blob is malformed, corrupted, of an unknown version, or does
// not match the series and options it is being resumed against. The
// recovery path is always available: run the discovery from scratch — the
// engine's determinism contract makes the scratch run byte-identical to
// what the resumed run would have produced.
var ErrBadCheckpoint = core.ErrBadCheckpoint

// Options tunes Discover. The zero value selects the published defaults.
//
// Validation contract: for every numeric field, zero selects the default;
// a negative value (and, for RecomputeFraction, a non-finite value or one
// above 1) is rejected with an error that wraps ErrBadInput and names the
// field. Use Validate to check a full input set without running anything.
type Options struct {
	// TopK is the number of motif pairs reported per length (default 10).
	TopK int
	// P is the number of entries retained per partial distance profile
	// (default 10); the memory/pruning trade-off knob from the paper.
	P int
	// ExclusionFactor sets the trivial-match zone ⌈ℓ/factor⌉ (default 4).
	ExclusionFactor int
	// RecomputeFraction is the fraction of anchors beyond which a length
	// is recomputed wholesale rather than anchor-by-anchor (default 0.05).
	// One anchor recompute costs a dot-product row — s·ℓ multiply-adds
	// below the engine's FFT cutover, Θ(n log n) above it — against a
	// full pass's Θ(s²), and the full pass also reseeds every partial
	// profile. The default was set where an FFT row breaks even, near
	// s/log n ≈ 5% of anchors; against the direct row the breakeven falls
	// as 1/ℓ (see internal/core).
	RecomputeFraction float64
	// Discords, when positive, additionally reports that many
	// variable-length discords (Result.Discords): the subsequences whose
	// nearest non-trivial neighbor is farthest. The extraction is
	// two-stage, mirroring TopMotifs: each length's top-k discords are
	// taken from that length's exact profile (trivial matches
	// de-duplicated), then ranked across lengths by the length-normalized
	// distance under cross-length trivial-match exclusion. Every reported
	// distance is the exact nearest-neighbor distance, which requires the
	// exact per-length profile pass — pairs and the VALMAP stay
	// equivalent (identical pair sets; distances equal within floating
	// tolerance, as the two plans take different arithmetic paths), but
	// the run costs one full matrix-profile pass per length instead of
	// the pruned pass (the per-length stats report full recomputes).
	Discords int
	// WindowCap, when positive, puts a Stream in sliding-window mode: the
	// retained series is trimmed to exactly the trailing WindowCap points
	// after every Append, so results always give the same pairs as a batch
	// Discover over the last min(n, WindowCap) points, within floating
	// tolerance. An eviction repairs, per length, only the entries whose
	// recorded neighbor left the window: by runs of consecutive offsets
	// (one from-scratch row per run, then the row recurrence), or by
	// replaying the window when a count-based cost rule prices that lower
	// — the larger the chunk relative to the window, the more lengths
	// replay. Results are bit-identical across Workers settings, kernel
	// tiers and checkpoint/resume, but not across chunkings: a run repair
	// keeps the survivors' carried dot products, whose recurrences began
	// on points since evicted. Must be at least lmax when set (every
	// length needs one window). Batch Discover ignores it.
	WindowCap int
	// Workers bounds the goroutines used by the data-parallel phases: the
	// ℓmin seed, full recomputes, the per-length advance→certify pass
	// over anchor shards, and the incremental diagonal pass over
	// diagonal blocks that resolves every length of a discords run and
	// a pairs run's lengths after the cost-model switch (0 = all cores,
	// 1 = serial). The work is partitioned on fixed grids independent of
	// the worker count, so results are identical at any setting.
	Workers int
	// Progress, when non-nil, is called after each subsequence length
	// completes (ℓmin first, then in increasing length order), on the
	// goroutine running the discovery. A slow callback slows the run;
	// cancellation is still honored between lengths, between seed blocks,
	// and between recompute rounds.
	Progress func(Progress)
	// Checkpoint, when non-nil, receives a serialized engine checkpoint
	// after completed lengths (cadence set by CheckpointEvery), on the
	// goroutine running the discovery; the blob is valid only during the
	// callback — durable consumers write it out before returning.
	// DiscoverResume over the same series and options continues from the
	// blob and returns results byte-identical to the uninterrupted run's,
	// at any Workers setting. An error return disables further checkpoints
	// for the run without failing it.
	Checkpoint func(ckpt []byte) error
	// CheckpointEvery emits a checkpoint every k-th completed length
	// (default 1 — every length boundary). Larger values amortize the
	// serialization cost over more compute at the price of more repeated
	// work after a crash. No effect unless Checkpoint is set.
	CheckpointEvery int
}

// Progress reports one completed subsequence length of a running discovery.
type Progress struct {
	// Done counts completed lengths, this one included; Total is the
	// number of lengths the run covers (lmax − lmin + 1).
	Done, Total int
	// Result is the completed length's exact result.
	Result LengthResult
}

// MotifPair is a pair of similar subsequences. It doubles as the wire DTO
// of the serving layer, hence the JSON tags.
type MotifPair struct {
	// A and B are the subsequence offsets, A < B.
	A int `json:"a"`
	B int `json:"b"`
	// Length is the subsequence length the pair was found at.
	Length int `json:"length"`
	// Distance is the z-normalized Euclidean distance.
	Distance float64 `json:"distance"`
	// NormDistance is Distance·√(1/Length), comparable across lengths.
	NormDistance float64 `json:"norm_distance"`
}

func (p MotifPair) String() string {
	return fmt.Sprintf("motif{A=%d B=%d len=%d d=%.4f dn=%.4f}", p.A, p.B, p.Length, p.Distance, p.NormDistance)
}

// Discord is an anomalous subsequence: the one whose nearest non-trivial
// neighbor is farthest. It doubles as the wire DTO of the serving layer,
// hence the JSON tags; fixed-length (FixedProfile.Discords) and
// variable-length (Result.Discords) discords share this shape.
type Discord struct {
	// Offset is the subsequence offset.
	Offset int `json:"offset"`
	// Length is the subsequence length the discord was found at.
	Length int `json:"length"`
	// Distance is the exact z-normalized distance to the nearest
	// non-trivial neighbor (larger = more anomalous).
	Distance float64 `json:"distance"`
	// NormDistance is Distance·√(1/Length), comparable across lengths.
	NormDistance float64 `json:"norm_distance"`
}

func (d Discord) String() string {
	return fmt.Sprintf("discord{off=%d len=%d d=%.4f dn=%.4f}", d.Offset, d.Length, d.Distance, d.NormDistance)
}

// LengthResult is the exact result for one subsequence length. It doubles
// as the wire DTO of the serving layer, hence the JSON tags.
type LengthResult struct {
	// Length is the subsequence length.
	Length int `json:"length"`
	// Pairs are the exact top-k motif pairs, ascending distance.
	Pairs []MotifPair `json:"pairs"`
	// Certified counts anchors resolved by the lower bound alone;
	// Recomputed counts per-anchor recomputations; FullRecompute marks a
	// whole-profile resolution; Incremental refines it (the pass
	// extended the carried cross-length state instead of recomputing
	// from scratch). Together they instrument the per-length work.
	Certified     int  `json:"certified"`
	Recomputed    int  `json:"recomputed"`
	FullRecompute bool `json:"full_recompute"`
	Incremental   bool `json:"incremental,omitempty"`
}

// PlanStats instruments the engine's per-length planner over one run: how
// many lengths ran the pruned pass, the incremental whole-profile pass,
// or the seed sweep that seeds the pruned pass (plus how often the
// incremental engine's carried head row was seeded from scratch and
// FMA-extended). It doubles as the wire DTO of the serving layer, hence
// the JSON tags.
type PlanStats struct {
	PrunedLengths      int `json:"pruned_lengths"`
	IncrementalLengths int `json:"incremental_lengths"`
	RecomputeLengths   int `json:"recompute_lengths"`
	SkippedLengths     int `json:"skipped_lengths"`
	HeadSeeds          int `json:"head_seeds"`
	HeadExtensions     int `json:"head_extensions"`
}

// VALMAP is the variable-length matrix profile (demo Figure 1 d–f): for
// every subsequence offset, the best length-normalized match across all
// lengths, where it is, and at which length it was found.
type VALMAP struct {
	LMin, LMax int
	// MPn is the length-normalized profile; +Inf where no match exists.
	MPn []float64
	// IP holds best-match offsets (-1 where none).
	IP []int
	// LP holds best-match lengths (0 where none).
	LP []int

	inner *valmap.VALMAP
}

// StateAt reconstructs the VALMAP as of length l (the demo GUI's
// checkpoint slider).
func (v *VALMAP) StateAt(l int) (mpn []float64, ip, lp []int, err error) {
	return v.inner.StateAt(l)
}

// Checkpoints returns the lengths at which at least one VALMAP cell
// improved, in increasing order.
func (v *VALMAP) Checkpoints() []int {
	out := make([]int, len(v.inner.Checkpoints))
	for i, cp := range v.inner.Checkpoints {
		out[i] = cp.L
	}
	return out
}

// WriteJSON serializes the VALMAP (checkpoints included).
func (v *VALMAP) WriteJSON(w io.Writer) error { return v.inner.WriteJSON(w) }

// Result is a completed variable-length motif discovery.
type Result struct {
	// N is the series length; LMin/LMax echo the range.
	N, LMin, LMax int
	// PerLength holds one exact result per length, ℓmin first.
	PerLength []LengthResult
	// Profile is the exact matrix profile at ℓmin and ProfileIndex its
	// index profile (demo Figure 1 b–c).
	Profile      []float64
	ProfileIndex []int
	// VALMAP is the variable-length meta structure.
	VALMAP *VALMAP
	// Discords holds the top-k variable-length discords (exact
	// nearest-neighbor distances; extraction as documented on
	// Options.Discords), ranked by length-normalized distance
	// descending; nil unless Options.Discords was positive.
	Discords []Discord
	// Plan reports how the per-length planner resolved the run.
	Plan PlanStats

	values []float64
	excl   int
}

// Engine is a reusable motif-discovery pipeline bound to a fixed set of
// Options. It owns pooled scratch (dot-product row buffers, and FFT
// correlator buffers for lengths above the direct-row cutover) that
// repeated Discover calls reuse instead of re-allocating,
// and it is safe for concurrent use. The package-level Discover helpers
// remain thin wrappers over a shared engine.
type Engine struct {
	opts Options
	core *core.Engine
}

// NewEngine returns an Engine that runs every discovery with opts.
func NewEngine(opts Options) *Engine {
	return &Engine{opts: opts, core: core.NewEngine()}
}

// Options echoes the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// WithOptions returns an Engine bound to opts that shares e's pooled
// scratch (dot-product rows, FFT correlator buffers). It is how a serving
// layer gives every job its own Options — in particular a per-job Progress
// callback — without abandoning the warm pools a long-lived engine has
// built up. Both engines stay safe for concurrent use.
func (e *Engine) WithOptions(opts Options) *Engine {
	return &Engine{opts: opts, core: e.core}
}

// validate enforces the Options contract: zero selects a default, anything
// else out of range is an error wrapping ErrBadInput that names the field.
func (o Options) validate() error {
	if o.TopK < 0 {
		return fmt.Errorf("%w: Options.TopK=%d: must be >= 0 (0 selects the default)", ErrBadInput, o.TopK)
	}
	if o.P < 0 {
		return fmt.Errorf("%w: Options.P=%d: must be >= 0 (0 selects the default)", ErrBadInput, o.P)
	}
	if o.ExclusionFactor < 0 {
		return fmt.Errorf("%w: Options.ExclusionFactor=%d: must be >= 0 (0 selects the default)", ErrBadInput, o.ExclusionFactor)
	}
	if math.IsNaN(o.RecomputeFraction) || o.RecomputeFraction < 0 || o.RecomputeFraction > 1 {
		return fmt.Errorf("%w: Options.RecomputeFraction=%v: must be in [0, 1] (0 selects the default)", ErrBadInput, o.RecomputeFraction)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Options.Workers=%d: must be >= 0 (0 selects all cores)", ErrBadInput, o.Workers)
	}
	if o.Discords < 0 {
		return fmt.Errorf("%w: Options.Discords=%d: must be >= 0 (0 disables discord discovery)", ErrBadInput, o.Discords)
	}
	if o.WindowCap < 0 {
		return fmt.Errorf("%w: Options.WindowCap=%d: must be >= 0 (0 disables the sliding window)", ErrBadInput, o.WindowCap)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("%w: Options.CheckpointEvery=%d: must be >= 0 (0 selects every length)", ErrBadInput, o.CheckpointEvery)
	}
	return nil
}

// ValidateSeries checks that values is a non-empty, all-finite series —
// the data half of Validate's contract. Serving layers use it to reject
// bad data at upload time, before any job references it.
func ValidateSeries(values []float64) error {
	if len(values) == 0 {
		return fmt.Errorf("%w: values: empty series", ErrBadInput)
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: values[%d]: non-finite value %v", ErrBadInput, i, v)
		}
	}
	return nil
}

// ValidateQuery checks the [lmin, lmax] range against a series of length
// n and the opts — everything Validate checks except the O(n) series
// scan. Serving layers use it for series already validated at upload
// time.
func ValidateQuery(n, lmin, lmax int, opts Options) error {
	if err := opts.validate(); err != nil {
		return err
	}
	return validateRange(n, lmin, lmax)
}

// validateRange delegates to the engine's own rule so the pre-flight
// contract ("nil iff Discover would start") cannot drift from it.
func validateRange(n, lmin, lmax int) error {
	if err := core.ValidateRange(n, lmin, lmax); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return nil
}

// Validate checks values, the [lmin, lmax] range and opts exactly as
// Discover would, without running anything. It returns nil when Discover
// would start, and otherwise an error wrapping ErrBadInput that names the
// offending argument or Options field. Serving layers use it to reject bad
// submissions synchronously.
func Validate(values []float64, lmin, lmax int, opts Options) error {
	if err := opts.validate(); err != nil {
		return err
	}
	if err := ValidateSeries(values); err != nil {
		return err
	}
	return validateRange(len(values), lmin, lmax)
}

// Discover runs VALMOD over values for every subsequence length in
// [lmin, lmax].
func (e *Engine) Discover(values []float64, lmin, lmax int) (*Result, error) {
	return e.DiscoverContext(context.Background(), values, lmin, lmax)
}

// DiscoverContext is Discover with cooperative cancellation, checked
// between lengths, between seed blocks, and between recompute rounds. On
// cancellation it returns ctx.Err().
func (e *Engine) DiscoverContext(ctx context.Context, values []float64, lmin, lmax int) (*Result, error) {
	opts := e.opts
	if err := Validate(values, lmin, lmax, opts); err != nil {
		return nil, err
	}
	res, err := e.core.Run(ctx, values, coreConfig(opts, lmin, lmax))
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return resultFromCore(res, values), nil
}

// DiscoverResume continues a discovery from a checkpoint blob emitted by
// Options.Checkpoint during an earlier run over the same values and
// length range. The completed Result is byte-identical to the one the
// uninterrupted run would have returned, at any Options.Workers setting.
// A blob that is corrupted or belongs to a different series/configuration
// fails with an error wrapping ErrBadCheckpoint — the caller then falls
// back to a plain Discover, which determinism makes equally exact.
func (e *Engine) DiscoverResume(ctx context.Context, values []float64, lmin, lmax int, ckpt []byte) (*Result, error) {
	opts := e.opts
	if err := Validate(values, lmin, lmax, opts); err != nil {
		return nil, err
	}
	res, err := e.core.ResumeRun(ctx, values, coreConfig(opts, lmin, lmax), ckpt)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, ErrBadCheckpoint) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return resultFromCore(res, values), nil
}

// coreConfig maps public Options onto the engine configuration, shared by
// DiscoverContext and DiscoverResume (a resumed run must execute under
// exactly the configuration mapping of the original, or the checkpoint
// digest check would reject it).
func coreConfig(opts Options, lmin, lmax int) core.Config {
	cfg := core.Config{
		LMin:              lmin,
		LMax:              lmax,
		TopK:              opts.TopK,
		P:                 opts.P,
		ExclusionFactor:   opts.ExclusionFactor,
		RecomputeFraction: opts.RecomputeFraction,
		Discords:          opts.Discords,
		Workers:           opts.Workers,
		OnCheckpoint:      opts.Checkpoint,
		CheckpointEvery:   opts.CheckpointEvery,
	}
	if cb := opts.Progress; cb != nil {
		cfg.OnLength = func(p core.Progress) {
			cb(Progress{Done: p.Done, Total: p.Total, Result: lengthResultFromCore(p.Result)})
		}
	}
	return cfg
}

// resultFromCore converts a completed internal run into the public Result,
// shared by batch DiscoverContext and Stream.Snapshot so the two surfaces
// can never drift.
func resultFromCore(res *core.Result, values []float64) *Result {
	out := &Result{
		N:      res.N,
		LMin:   res.Cfg.LMin,
		LMax:   res.Cfg.LMax,
		Plan:   PlanStats(res.Plan),
		values: values,
		excl:   res.Cfg.ExclusionFactor,
	}
	for _, lr := range res.PerLength {
		out.PerLength = append(out.PerLength, lengthResultFromCore(lr))
	}
	for _, d := range res.Discords {
		out.Discords = append(out.Discords, Discord{
			Offset: d.I, Length: d.L, Distance: d.Dist, NormDistance: d.NormDist(),
		})
	}
	out.Profile = res.MPMin.Dist
	out.ProfileIndex = res.MPMin.Index
	out.VALMAP = &VALMAP{
		LMin: res.Cfg.LMin, LMax: res.Cfg.LMax,
		MPn: res.VMap.MPn, IP: res.VMap.IP, LP: res.VMap.LP,
		inner: res.VMap,
	}
	return out
}

// defaultCore backs the package-level Discover helpers so one-shot calls
// still share pooled scratch process-wide.
var defaultCore = core.NewEngine()

// Discover runs VALMOD over values for every subsequence length in
// [lmin, lmax].
func Discover(values []float64, lmin, lmax int, opts Options) (*Result, error) {
	return DiscoverContext(context.Background(), values, lmin, lmax, opts)
}

// DiscoverContext is Discover with cooperative cancellation, checked
// between lengths, between seed blocks, and between recompute rounds. On
// cancellation it returns ctx.Err().
func DiscoverContext(ctx context.Context, values []float64, lmin, lmax int, opts Options) (*Result, error) {
	e := Engine{opts: opts, core: defaultCore}
	return e.DiscoverContext(ctx, values, lmin, lmax)
}

// lengthResultFromCore converts one internal per-length result.
func lengthResultFromCore(lr core.LengthResult) LengthResult {
	plr := LengthResult{
		Length:        lr.M,
		Certified:     lr.Stats.Certified,
		Recomputed:    lr.Stats.Recomputed,
		FullRecompute: lr.Stats.FullRecompute,
		Incremental:   lr.Stats.Incremental,
	}
	for _, p := range lr.Pairs {
		plr.Pairs = append(plr.Pairs, fromInternal(p))
	}
	return plr
}

func fromInternal(p profile.MotifPair) MotifPair {
	return MotifPair{A: p.A, B: p.B, Length: p.M, Distance: p.Dist, NormDistance: p.NormDist()}
}

func toInternal(p MotifPair) profile.MotifPair {
	return profile.MotifPair{A: p.A, B: p.B, M: p.Length, Dist: p.Distance}
}

// OfLength returns the result for one length, or false when l is outside
// the range.
func (r *Result) OfLength(l int) (LengthResult, bool) {
	i := l - r.LMin
	if i < 0 || i >= len(r.PerLength) {
		return LengthResult{}, false
	}
	return r.PerLength[i], true
}

// BestOverall returns the single best pair across all lengths under the
// length-normalized distance, or false when no pair exists.
func (r *Result) BestOverall() (MotifPair, bool) {
	best := MotifPair{NormDistance: math.Inf(1)}
	found := false
	for _, lr := range r.PerLength {
		for _, p := range lr.Pairs {
			if p.NormDistance < best.NormDistance {
				best = p
				found = true
			}
		}
	}
	return best, found
}

// TopMotifs ranks all reported pairs across lengths by the length-
// normalized distance, folding overlapping reports of the same discovery
// (>50% interval overlap) together, and returns the k best.
func (r *Result) TopMotifs(k int) []MotifPair {
	var all []profile.MotifPair
	for _, lr := range r.PerLength {
		for _, p := range lr.Pairs {
			all = append(all, toInternal(p))
		}
	}
	ranked := rank.TopK(all, k, 0)
	out := make([]MotifPair, len(ranked))
	for i, p := range ranked {
		out[i] = fromInternal(p)
	}
	return out
}

// MotifSet expands a pair into all its occurrences within radius (≤ 0
// selects 2× the pair distance, floored for near-identical pairs). Members
// are offset/distance pairs in ascending distance; the pair's own
// subsequences come first.
func (r *Result) MotifSet(p MotifPair, radius float64) ([]SetMember, error) {
	set, err := motifset.Expand(r.values, toInternal(p), radius, r.excl)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	out := make([]SetMember, len(set.Members))
	for i, m := range set.Members {
		out[i] = SetMember{Offset: m.I, Distance: m.Dist}
	}
	return out, nil
}

// SetMember is one occurrence in a motif set.
type SetMember struct {
	Offset   int
	Distance float64
}
