package core

// Checkpointing: the engine can serialize the carried state of an
// in-flight run at a length-pass boundary — the per-anchor partial
// profiles (once the cost model has latched the run onto the incremental
// pass they are retired and left out), the accumulated sink state and the
// plan counters — into a self-describing blob, and later resume from it.
// The incremental pass carries nothing across lengths, so a frame holds
// no head row.
// A resumed run produces byte-identical results to the uninterrupted one
// at every worker count, because everything the remaining lengths read is
// either restored exactly (floats travel as their IEEE-754 bits) or
// recomputed by a deterministic pure function of the series and the
// frame (moments, correlator plans, the VALMAP's sealed ℓmin state).
//
// Blob layout (frame.go): an 8-byte magic, a big-endian version and
// payload length, the SHA-256 of the payload, then the payload's
// little-endian sections in ckptPayload.write's order. The hash makes
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
	"context"
	"crypto/sha256"
	"encoding/binary"
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
	// Checkpoint) frames streaming ones. Same header, disjoint magics, so
	// neither kind can be resumed as the other.
	ckptMagic   = "VALCKPT1"
	streamMagic = "VALSTRM1"
	// ckptVersion 2 added the cost-model latch (ckptPayload.Latched); 3
	// and streamVersion 2 replaced the gob payloads with frame.go's flat
	// sections. Older frames are refused, and the caller's fallback is a
	// byte-identical scratch re-run.
	ckptVersion   = 3
	streamVersion = 2
)

// ckptPayload is a run at a length-pass boundary, as a frame carries it.
// A captured payload aliases live engine state — the frame is written
// synchronously before the engine mutates anything, so no defensive
// copies are taken — and its anchors section is written straight from
// the live store's slots (store). The section reads back into Anchors,
// with each anchor's entries back to back.
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
	// Once latched the machinery is retired, so the anchors (the bulk of a
	// pruned frame) are omitted.
	Seeded    bool
	Latched   bool
	EntriesAt int
	store     *anchors.Store    // captured: the live store, nil unless seeded
	Anchors   *anchors.Snapshot // decoded: nil unless the frame has the section

	// Built-in sink state: per-length results + ℓmin profile (pairsSink),
	// the VALMAP (valmapSink), and discord candidates (discordSink, only
	// when the run has one). A decoded VM carries the current state and
	// the per-length checkpoints only; ResumeRun re-derives its sealed
	// ℓmin state from MPMin (resumeValmap).
	PerLength   []LengthResult
	MPMin       *profile.MatrixProfile
	VM          *valmap.VALMAP
	HasDiscords bool
	Cands       []Discord
}

// write lays down the payload's sections: the run's (writeRun), the
// anchors (writeAnchors), then the sinks' (writeSinks).
func (p *ckptPayload) write(w *frameWriter) {
	p.writeRun(w)
	p.writeAnchors(w)
	p.writeSinks(w)
}

// writeRun writes the identity and resume index, the plan counters and
// the pruned-machinery carry.
func (p *ckptPayload) writeRun(w *frameWriter) {
	w.int(p.N)
	w.raw(p.SeriesHash[:])
	w.str(p.CfgDigest)
	w.int(p.NextIdx)
	writePlan(w, p.Plan)
	w.flag(p.Seeded)
	w.flag(p.Latched)
	w.int(p.EntriesAt)
}

// writeAnchors writes the anchors section, present while the run is
// seeded: the slot count, the per-anchor arrays, then every anchor's Len
// entries straight from the store's slots, offsets first.
func (p *ckptPayload) writeAnchors(w *frameWriter) {
	st := p.store
	w.flag(st != nil)
	if st == nil {
		return
	}
	w.int(st.Cap)
	w.i32s(st.Len)
	w.i32s(st.Base)
	w.f64s(st.NextQ2)
	w.flags(st.Degenerate)
	kept := st.Kept(len(st.Len))
	w.count(kept)
	for i, c := range st.Len {
		w.i32Vals(st.J[i*st.Cap : i*st.Cap+int(c)])
	}
	w.count(kept)
	for i, c := range st.Len {
		w.f64Vals(st.QT[i*st.Cap : i*st.Cap+int(c)])
	}
}

// writeSinks writes the per-length results, the ℓmin profile (when
// present), the VALMAP, and the discord candidates (when the run has a
// discord sink).
func (p *ckptPayload) writeSinks(w *frameWriter) {
	w.count(len(p.PerLength))
	for _, lr := range p.PerLength {
		w.int(lr.M)
		w.count(len(lr.Pairs))
		for _, pr := range lr.Pairs {
			w.int(pr.A)
			w.int(pr.B)
			w.int(pr.M)
			w.f64(pr.Dist)
		}
		w.int(lr.Stats.Certified)
		w.int(lr.Stats.Recomputed)
		w.flag(lr.Stats.FullRecompute)
		w.flag(lr.Stats.Incremental)
	}

	w.flag(p.MPMin != nil)
	if mp := p.MPMin; mp != nil {
		w.int(mp.M)
		w.int(mp.Exclusion)
		w.f64s(mp.Dist)
		w.ints(mp.Index)
	}

	vm := p.VM
	w.int(vm.LMin)
	w.int(vm.LMax)
	w.f64s(vm.MPn)
	w.ints(vm.IP)
	w.ints(vm.LP)
	w.count(len(vm.Checkpoints))
	for _, cp := range vm.Checkpoints {
		w.int(cp.L)
		w.count(len(cp.Updates))
		for _, u := range cp.Updates {
			w.int(u.I)
			w.int(u.J)
			w.int(u.L)
			w.f64(u.NormDist)
		}
	}

	w.flag(p.HasDiscords)
	if p.HasDiscords {
		w.count(len(p.Cands))
		for _, d := range p.Cands {
			w.int(d.I)
			w.int(d.L)
			w.f64(d.Dist)
		}
	}
}

// readCkptPayload reads the sections write lays down. The anchors'
// entries land back to back in Anchors.J and Anchors.QT; every shape is
// left to validateResume.
func readCkptPayload(r *frameReader) *ckptPayload {
	p := &ckptPayload{}
	p.N = r.int()
	r.raw(p.SeriesHash[:])
	p.CfgDigest = r.str()
	p.NextIdx = r.int()
	p.Plan = readPlan(r)
	p.Seeded = r.flag()
	p.Latched = r.flag()
	p.EntriesAt = r.int()

	if r.flag() {
		sn := &anchors.Snapshot{Cap: r.int()}
		sn.Len = r.i32s()
		sn.Base = r.i32s()
		sn.NextQ2 = r.f64s()
		sn.Degenerate = r.flags()
		sn.J = r.i32s()
		sn.QT = r.f64s()
		p.Anchors = sn
	}

	// The minimum wire size of a length result is M, the pair count, the
	// two stat counters and the two flags; of a pair three offsets and a
	// distance.
	if n := r.count(4 + 4 + 4 + 4 + 1 + 1); n > 0 {
		p.PerLength = make([]LengthResult, n)
		for k := range p.PerLength {
			lr := &p.PerLength[k]
			lr.M = r.int()
			if m := r.count(4 + 4 + 4 + 8); m > 0 {
				lr.Pairs = make([]profile.MotifPair, m)
				for x := range lr.Pairs {
					pr := &lr.Pairs[x]
					pr.A, pr.B, pr.M = r.int(), r.int(), r.int()
					pr.Dist = r.f64()
				}
			}
			lr.Stats.Certified = r.int()
			lr.Stats.Recomputed = r.int()
			lr.Stats.FullRecompute = r.flag()
			lr.Stats.Incremental = r.flag()
		}
	}

	if r.flag() {
		mp := &profile.MatrixProfile{M: r.int(), Exclusion: r.int()}
		mp.Dist = r.f64s()
		mp.Index = r.ints()
		p.MPMin = mp
	}

	vm := &valmap.VALMAP{LMin: r.int(), LMax: r.int()}
	vm.MPn = r.f64s()
	vm.IP = r.ints()
	vm.LP = r.ints()
	if n := r.count(4 + 4); n > 0 {
		vm.Checkpoints = make([]valmap.Checkpoint, n)
		for k := range vm.Checkpoints {
			cp := &vm.Checkpoints[k]
			cp.L = r.int()
			if m := r.count(4 + 4 + 4 + 8); m > 0 {
				cp.Updates = make([]valmap.Update, m)
				for x := range cp.Updates {
					u := &cp.Updates[x]
					u.I, u.J, u.L = r.int(), r.int(), r.int()
					u.NormDist = r.f64()
				}
			}
		}
	}
	p.VM = vm

	p.HasDiscords = r.flag()
	if p.HasDiscords {
		if n := r.count(4 + 4 + 8); n > 0 {
			p.Cands = make([]Discord, n)
			for k := range p.Cands {
				d := &p.Cands[k]
				d.I, d.L = r.int(), r.int()
				d.Dist = r.f64()
			}
		}
	}
	return p
}

func writePlan(w *frameWriter, ps PlanStats) {
	for _, v := range [...]int{ps.PrunedLengths, ps.IncrementalLengths, ps.RecomputeLengths,
		ps.SkippedLengths, ps.HeadSeeds, ps.HeadExtensions} {
		w.int(v)
	}
}

func readPlan(r *frameReader) PlanStats {
	return PlanStats{
		PrunedLengths:      r.int(),
		IncrementalLengths: r.int(),
		RecomputeLengths:   r.int(),
		SkippedLengths:     r.int(),
		HeadSeeds:          r.int(),
		HeadExtensions:     r.int(),
	}
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
// not resume byte-identically. v7 keeps seedKeep entries per seeded
// partial profile and P per refilled one, in flat arrays: a v6 frame's
// P-entry seed lists would certify differently from a fresh run's. v8
// ranks the partial profiles by the pair's correlation and derives NextQ2
// from it: a v7 frame's kept entries and NextQ2 came from the q̃
// expression, which rounds differently, so it need not resume
// byte-identically. v9 resolves incremental lengths on the centred
// covariance recurrence with a fresh head row per length: a v8 frame
// carries a raw head row this engine no longer reads, and its profiles
// of incremental lengths differ in the last bits from this engine's.
func cfgDigest(c Config) string {
	return "v9 " + cfgFields(c)
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

// encodeCheckpoint frames a batch-run payload in buf's storage
// (encodeFrame).
func encodeCheckpoint(buf []byte, p *ckptPayload) ([]byte, error) {
	return encodeFrame(buf, ckptMagic, ckptVersion, p.write)
}

// decodeCheckpoint reads a batch-run frame back into its payload.
func decodeCheckpoint(b []byte) (*ckptPayload, error) {
	r, err := decodeFrame(ckptMagic, ckptVersion, b)
	if err != nil {
		return nil, err
	}
	p := readCkptPayload(r)
	if err := r.done(); err != nil {
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
// index to process into the run's frame buffer, which the run's later
// captures reuse. The frame is valid until the next capture, which the
// OnCheckpoint contract (valid only during the callback) allows.
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
		PerLength:  cs.pairs.perLength,
		MPMin:      cs.pairs.mpMin,
		VM:         cs.vms.vm,
	}
	if r.seeded {
		p.store = r.store
	}
	if cs.ds != nil {
		p.HasDiscords = true
		p.Cands = cs.ds.cands
	}
	if r.frame == nil {
		// Grown from empty by append, the first frame would be copied
		// through a chain of ever larger buffers, together about four
		// times its size. The quarter's headroom is for the later
		// frames, which carry more results and refilled partial profiles.
		n := p.bulk()
		r.frame = make([]byte, 0, n+n/4)
	}
	b, err := encodeCheckpoint(r.frame, p)
	if err != nil {
		return nil, err
	}
	r.frame = b
	return b, nil
}

// bulk is the size in bytes of the payload's per-slot sections, all but a
// few kilobytes of a frame: the anchors (17 bytes of per-anchor arrays
// and 12 per kept entry, when seeded), the ℓmin profile (12 bytes a slot)
// and the VALMAP (16 bytes a slot).
func (p *ckptPayload) bulk() int {
	n := 16 * len(p.VM.MPn)
	if mp := p.MPMin; mp != nil {
		n += 12 * len(mp.Dist)
	}
	if st := p.store; st != nil {
		n += 17*len(st.Len) + 12*st.Kept(len(st.Len))
	}
	return n
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
	if p.Anchors != nil {
		r.store = anchors.Restore(p.Anchors)
	}
	return p.NextIdx
}

// resumeValmap rebuilds a validated frame's VALMAP. The frame carries the
// current state and the per-length checkpoints but not the sealed ℓmin
// state StateAt replays from: that is a pure function of the ℓmin
// profile, so it is re-derived by the same seedValmap the sink ran at
// ℓmin, bit for bit.
func resumeValmap(dec *valmap.VALMAP, mpMin *profile.MatrixProfile) (*valmap.VALMAP, error) {
	vm, err := valmap.New(dec.LMin, dec.LMax, len(dec.MPn))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	seedValmap(vm, mpMin, dec.LMin)
	vm.MPn, vm.IP, vm.LP, vm.Checkpoints = dec.MPn, dec.IP, dec.LP, dec.Checkpoints
	return vm, nil
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
	if vm := p.VM; vm.LMin != cfg.LMin || vm.LMax != cfg.LMax ||
		len(vm.MPn) != sMin || len(vm.IP) != sMin || len(vm.LP) != sMin {
		return fmt.Errorf("%w: VALMAP shaped [%d, %d] × (%d, %d, %d), want [%d, %d] × %d",
			ErrBadCheckpoint, vm.LMin, vm.LMax, len(vm.MPn), len(vm.IP), len(vm.LP), cfg.LMin, cfg.LMax, sMin)
	}
	// StateAt replays the checkpoints in order into slots they name.
	prev := cfg.LMin
	for _, cp := range p.VM.Checkpoints {
		if cp.L <= prev || cp.L >= cfg.LMin+p.NextIdx {
			return fmt.Errorf("%w: VALMAP checkpoint at length %d after %d, resume index %d", ErrBadCheckpoint, cp.L, prev, p.NextIdx)
		}
		for _, u := range cp.Updates {
			if u.I < 0 || u.I >= sMin {
				return fmt.Errorf("%w: VALMAP update of slot %d, outside [0, %d)", ErrBadCheckpoint, u.I, sMin)
			}
		}
		prev = cp.L
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
	vm, err := resumeValmap(p.VM, p.MPMin)
	if err != nil {
		return nil, err
	}
	vms := &valmapSink{vm: vm}
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
