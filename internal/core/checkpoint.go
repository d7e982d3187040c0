package core

// Checkpointing: the engine can serialize the carried state of an
// in-flight run at a length-pass boundary — the diagonal head row, the
// per-anchor partial profiles (once the cost model has latched the run
// onto the incremental pass they are retired and left out), the
// accumulated sink state and the plan counters — into a self-describing
// blob, and later resume from it.
// A resumed run produces byte-identical results to the uninterrupted one
// at every worker count, because everything the remaining lengths read is
// either restored exactly (float64 bits survive gob) or recomputed by a
// deterministic pure function of the series (moments, correlator plans).
//
// Blob layout: an 8-byte magic, a big-endian version and payload length,
// the SHA-256 of the payload, then the gob-encoded payload. The hash makes
// torn or corrupted writes detectable before any field is trusted; the
// version gates format evolution. The payload additionally pins the series
// (length + SHA-256 of its float64 bits) and the result-affecting
// configuration, so a checkpoint can never silently resume against the
// wrong input, and every section's shape is checked against them before
// the run is rebuilt from it (validateResume). Workers is deliberately
// excluded from the digest: the determinism contract makes worker count
// output-neutral, so a run may resume with a different parallelism than
// it started with.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"github.com/seriesmining/valmod/internal/core/anchors"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/valmap"
)

// ErrBadCheckpoint is returned when a checkpoint blob is malformed,
// corrupted, of an unknown version, or does not match the series and
// configuration it is being resumed against.
var ErrBadCheckpoint = fmt.Errorf("core: bad checkpoint")

const (
	// ckptMagic frames batch-run checkpoints; streamMagic (stream.go's
	// Checkpoint) frames streaming ones. Same layout, disjoint magics, so
	// neither kind can be resumed as the other.
	ckptMagic   = "VALCKPT1"
	streamMagic = "VALSTRM1"
	// ckptVersion 2 added the cost-model latch (ckptPayload.Latched); a
	// version-1 frame predates it and is refused. Stream frames are
	// unchanged since version 1.
	ckptVersion   = 2
	streamVersion = 1
	// ckptHeaderLen = magic(8) + version(4) + payloadLen(8) + sha256(32).
	ckptHeaderLen = 8 + 4 + 8 + 32
)

// ckptPayload is the gob image of a run at a length-pass boundary. Slices
// alias live engine state at capture time — encoding happens synchronously
// before the engine mutates anything, so no defensive copies are taken.
type ckptPayload struct {
	// Identity pins: the checkpoint resumes only against the same series
	// (length and content hash) and the same result-affecting config.
	N          int
	SeriesHash [32]byte
	CfgDigest  string

	// NextIdx is the plan index (0 = ℓmin) of the first length the resumed
	// run must process; everything before it is already folded into the
	// sink sections below.
	NextIdx int
	Plan    PlanStats

	// Pruned-machinery carry (see run.seeded / run.entriesAt / run.latched).
	// Once latched the machinery is retired, so Anchors (the bulk of a
	// pruned frame) is omitted.
	Seeded    bool
	Latched   bool
	EntriesAt int
	Anchors   *anchors.Snapshot // nil unless seeded

	// Incremental-engine carry (see incState).
	IncCur  int
	IncHead []float64

	// Built-in sink state: per-length results + ℓmin profile (pairsSink),
	// the VALMAP (valmapSink), and discord candidates (discordSink, only
	// when the run has one).
	PerLength   []LengthResult
	MPMin       *profile.MatrixProfile
	VM          *valmap.VALMAP
	HasDiscords bool
	Cands       []Discord
}

// cfgDigest renders the result-affecting configuration of a batch run.
// The prefix versions what the configuration computes: v2 added the
// cost-model latch, v3 the diagonal seed, whose partial profiles and ℓmin
// profile differ in the last bits from the row scan's — a v2 frame's
// anchors would not resume byte-identically to an uninterrupted run. v4
// computes from-scratch rows directly below the FFT cutover (rows.go), so
// a v3 frame's retained entries and hot rows, computed through the FFT,
// differ in the last bits from this engine's. v5 gives windows of one
// repeated value σ = 0 exactly (series.Stats), where a v4 frame of such a
// series can carry the small σ > 0 the cumulative sums left them. v6
// retires the hot-row cache and re-prices the cost model: anchors a v5
// frame kept hot now resolve by certification or a fresh row, and switch
// lengths move, so a v5 frame (whose hot rows gob would drop unread) does
// not resume byte-identically.
func cfgDigest(c Config) string {
	return "v6 " + cfgFields(c)
}

// cfgFields renders the result-affecting configuration fields. Workers and
// the callback fields are excluded (output-neutral); WindowCap is a
// streaming-only knob batch runs ignore.
func cfgFields(c Config) string {
	return fmt.Sprintf(
		"lmin=%d lmax=%d k=%d p=%d ex=%d rf=%g disc=%d",
		c.LMin, c.LMax, c.TopK, c.P, c.ExclusionFactor, c.RecomputeFraction, c.Discords)
}

// seriesHash is the SHA-256 of the series' float64 bits (little-endian),
// pinning a checkpoint to the exact input it was taken over.
func seriesHash(t []float64) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, v := range t {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// encodeFrame gob-encodes v and frames it: header with magic, version,
// payload length and payload hash, then the gob bytes.
func encodeFrame(magic string, version uint32, v interface{}) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		return nil, fmt.Errorf("core: encode checkpoint: %w", err)
	}
	payload := body.Bytes()
	out := make([]byte, ckptHeaderLen+len(payload))
	copy(out, magic)
	binary.BigEndian.PutUint32(out[8:], version)
	binary.BigEndian.PutUint64(out[12:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[20:], sum[:])
	copy(out[ckptHeaderLen:], payload)
	return out, nil
}

// decodeFrame validates the frame (magic, version, length, hash) and
// decodes the payload into v. Every failure wraps ErrBadCheckpoint.
func decodeFrame(magic string, version uint32, b []byte, v interface{}) error {
	if len(b) < ckptHeaderLen {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrBadCheckpoint, len(b))
	}
	if string(b[:8]) != magic {
		return fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if ver := binary.BigEndian.Uint32(b[8:]); ver != version {
		return fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, ver)
	}
	plen := binary.BigEndian.Uint64(b[12:])
	if plen != uint64(len(b)-ckptHeaderLen) {
		return fmt.Errorf("%w: payload length %d, have %d bytes", ErrBadCheckpoint, plen, len(b)-ckptHeaderLen)
	}
	payload := b[ckptHeaderLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], b[20:20+32]) {
		return fmt.Errorf("%w: payload checksum mismatch", ErrBadCheckpoint)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return nil
}

// encodeCheckpoint / decodeCheckpoint frame the batch-run payload.
func encodeCheckpoint(p *ckptPayload) ([]byte, error) {
	return encodeFrame(ckptMagic, ckptVersion, p)
}

func decodeCheckpoint(b []byte) (*ckptPayload, error) {
	p := &ckptPayload{}
	if err := decodeFrame(ckptMagic, ckptVersion, b, p); err != nil {
		return nil, err
	}
	return p, nil
}

// ckptSinks are the built-in sink pipeline a checkpoint can serialize.
// Checkpointing is defined only over this pipeline (Engine.Run's): external
// RunSinks consumers carry arbitrary state the engine cannot capture.
type ckptSinks struct {
	pairs *pairsSink
	vms   *valmapSink
	ds    *discordSink // nil when the run has no discord sink
}

// builtinSinks recognizes the Engine.Run sink pipeline, in any order.
// ok is false when any sink is not one of the built-in types or the
// mandatory pairs/valmap sinks are missing.
func builtinSinks(sinks []Sink) (cs ckptSinks, ok bool) {
	for _, s := range sinks {
		switch v := s.(type) {
		case *pairsSink:
			cs.pairs = v
		case *valmapSink:
			cs.vms = v
		case *discordSink:
			cs.ds = v
		default:
			return ckptSinks{}, false
		}
	}
	return cs, cs.pairs != nil && cs.vms != nil
}

// maybeCheckpoint emits a checkpoint through cfg.OnCheckpoint after the
// length at plan index nextIdx−1 completed, when the cadence says so and
// work remains. Emission failures are non-fatal: the run keeps computing,
// it just stops checkpointing (the caller's durable fallback is a scratch
// re-run, which the determinism contract makes byte-identical anyway).
func (r *run) maybeCheckpoint(cs ckptSinks, nextIdx, total int) {
	if r.cfg.OnCheckpoint == nil || r.ckptOff || nextIdx >= total {
		return
	}
	every := r.cfg.CheckpointEvery
	if every < 1 {
		every = 1
	}
	if nextIdx%every != 0 {
		return
	}
	b, err := r.captureCheckpoint(cs, nextIdx)
	if err != nil {
		r.ckptOff = true
		return
	}
	if err := r.cfg.OnCheckpoint(b); err != nil {
		r.ckptOff = true
	}
}

// captureCheckpoint serializes the run's carried state with the next plan
// index to process.
func (r *run) captureCheckpoint(cs ckptSinks, nextIdx int) ([]byte, error) {
	p := &ckptPayload{
		N:          len(r.t),
		SeriesHash: r.seriesSum(),
		CfgDigest:  cfgDigest(r.cfg),
		NextIdx:    nextIdx,
		Plan:       r.planStats,
		Seeded:     r.seeded,
		Latched:    r.latched,
		EntriesAt:  r.entriesAt,
		IncCur:     r.inc.cur,
		IncHead:    r.inc.head,
		PerLength:  cs.pairs.perLength,
		MPMin:      cs.pairs.mpMin,
		VM:         cs.vms.vm,
	}
	if r.seeded {
		p.Anchors = r.store.Snapshot()
	}
	if cs.ds != nil {
		p.HasDiscords = true
		p.Cands = cs.ds.cands
	}
	return encodeCheckpoint(p)
}

// seriesSum returns the (lazily computed, per-run cached) series hash.
func (r *run) seriesSum() [32]byte {
	if !r.hashed {
		r.tHash = seriesHash(r.t)
		r.hashed = true
	}
	return r.tHash
}

// restore loads a decoded, validated checkpoint into a freshly
// constructed run and returns the plan index to resume at.
func (r *run) restore(p *ckptPayload) int {
	r.planStats = p.Plan
	r.seeded = p.Seeded
	r.latched = p.Latched
	r.entriesAt = p.EntriesAt
	r.inc = incState{head: p.IncHead, cur: p.IncCur}
	if p.Anchors != nil {
		r.store.Restore(p.Anchors)
	}
	return p.NextIdx
}

// validateResume checks a decoded checkpoint against the series and config
// of the resuming run: the identity pins, then the shape of every section
// the run is rebuilt from. A frame whose hash matches but whose sections
// disagree with each other would otherwise panic on resume or return a
// wrong-shaped result, where ErrBadCheckpoint sends the caller to its
// byte-identical scratch re-run.
func (p *ckptPayload) validateResume(t []float64, cfg Config) error {
	n := len(t)
	if p.N != n {
		return fmt.Errorf("%w: checkpoint is for n=%d, series has n=%d", ErrBadCheckpoint, p.N, n)
	}
	if got := cfgDigest(cfg); p.CfgDigest != got {
		return fmt.Errorf("%w: config mismatch (checkpoint %q, run %q)", ErrBadCheckpoint, p.CfgDigest, got)
	}
	if p.SeriesHash != seriesHash(t) {
		return fmt.Errorf("%w: series content mismatch", ErrBadCheckpoint)
	}
	if p.NextIdx < 1 || p.NextIdx > cfg.LMax-cfg.LMin+1 {
		return fmt.Errorf("%w: resume index %d out of range", ErrBadCheckpoint, p.NextIdx)
	}
	if len(p.PerLength) != p.NextIdx {
		return fmt.Errorf("%w: %d per-length results for resume index %d", ErrBadCheckpoint, len(p.PerLength), p.NextIdx)
	}
	for k, lr := range p.PerLength {
		if lr.M != cfg.LMin+k {
			return fmt.Errorf("%w: per-length result %d is for length %d, want %d", ErrBadCheckpoint, k, lr.M, cfg.LMin+k)
		}
	}
	sMin := n - cfg.LMin + 1
	if mp := p.MPMin; mp != nil && (mp.M != cfg.LMin || len(mp.Dist) != sMin || len(mp.Index) != sMin) {
		return fmt.Errorf("%w: ℓmin profile shaped (m=%d, %d, %d), want (m=%d, %d slots)",
			ErrBadCheckpoint, mp.M, len(mp.Dist), len(mp.Index), cfg.LMin, sMin)
	}
	if vm := p.VM; vm != nil && (vm.LMin != cfg.LMin || vm.LMax != cfg.LMax ||
		len(vm.MPn) != sMin || len(vm.IP) != sMin || len(vm.LP) != sMin) {
		return fmt.Errorf("%w: VALMAP shaped [%d, %d] × (%d, %d, %d), want [%d, %d] × %d",
			ErrBadCheckpoint, vm.LMin, vm.LMax, len(vm.MPn), len(vm.IP), len(vm.LP), cfg.LMin, cfg.LMax, sMin)
	}
	if p.IncCur == 0 {
		if len(p.IncHead) != 0 {
			return fmt.Errorf("%w: head row of %d cells with no head length", ErrBadCheckpoint, len(p.IncHead))
		}
	} else if p.IncCur < cfg.LMin || p.IncCur > cfg.LMax || len(p.IncHead) != n-p.IncCur+1 {
		return fmt.Errorf("%w: head row of %d cells at length %d", ErrBadCheckpoint, len(p.IncHead), p.IncCur)
	}
	if p.Seeded != (p.Anchors != nil) || (p.Seeded && p.Latched) {
		return fmt.Errorf("%w: seeded=%v latched=%v with anchors present=%v",
			ErrBadCheckpoint, p.Seeded, p.Latched, p.Anchors != nil)
	}
	if p.Seeded {
		if last := cfg.LMin + p.NextIdx - 1; p.EntriesAt < cfg.LMin || p.EntriesAt > last {
			return fmt.Errorf("%w: entries at length %d, outside [%d, %d]", ErrBadCheckpoint, p.EntriesAt, cfg.LMin, last)
		}
		// The built-in pipeline seeds at ℓmin, every anchor of the run.
		if err := p.Anchors.Validate(sMin, cfg.P, cfg.LMin, p.EntriesAt); err != nil {
			return fmt.Errorf("%w: anchors: %v", ErrBadCheckpoint, err)
		}
	}
	return nil
}

// ResumeRun continues a checkpointed Engine.Run over the same series and
// configuration (Workers may differ — the output is worker-count
// invariant) and returns the completed Result, byte-identical to the
// uninterrupted run's. The checkpoint must have been produced through
// Config.OnCheckpoint by a run over the identical series and
// result-affecting configuration; anything else fails with
// ErrBadCheckpoint, in which case the caller's fallback is a fresh run
// (deterministically identical, just slower).
func (e *Engine) ResumeRun(ctx context.Context, t []float64, cfg Config, ckpt []byte) (*Result, error) {
	cfg.Fill()
	if err := cfg.validate(len(t)); err != nil {
		return nil, err
	}
	p, err := decodeCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	if err := p.validateResume(t, cfg); err != nil {
		return nil, err
	}
	pairs := &pairsSink{perLength: p.PerLength, mpMin: p.MPMin}
	vms := &valmapSink{vm: p.VM}
	if vms.vm == nil {
		return nil, fmt.Errorf("%w: missing VALMAP section", ErrBadCheckpoint)
	}
	sinks := []Sink{pairs, vms}
	var ds *discordSink
	if cfg.Discords > 0 {
		if !p.HasDiscords {
			return nil, fmt.Errorf("%w: missing discord section", ErrBadCheckpoint)
		}
		ds = newDiscordSink(cfg.Discords, cfg.ExclusionFactor)
		ds.cands = p.Cands
		sinks = append(sinks, ds)
	}
	plan, err := e.runSinksFrom(ctx, t, cfg, sinks, p)
	if err != nil {
		return nil, err
	}
	res := &Result{
		N:         len(t),
		Cfg:       cfg,
		MPMin:     pairs.mpMin,
		PerLength: pairs.perLength,
		VMap:      vms.vm,
		Plan:      plan,
	}
	if ds != nil {
		res.Discords = ds.Discords()
	}
	return res, nil
}
