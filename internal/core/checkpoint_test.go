package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/valmap"
)

// captureAll runs cfg over x collecting every emitted checkpoint blob
// (copied — blobs are valid only during the callback) and returns the
// final result with them.
func captureAll(t testing.TB, e *Engine, x []float64, cfg Config) (*Result, [][]byte) {
	t.Helper()
	var ckpts [][]byte
	cfg.OnCheckpoint = func(b []byte) error {
		ckpts = append(ckpts, append([]byte(nil), b...))
		return nil
	}
	res, err := e.Run(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, ckpts
}

// assertResultsBitIdentical fails unless a and b agree byte-for-byte on
// every output surface: ℓmin profile, per-length pairs and stats, VALMAP,
// discords and plan counters.
func assertResultsBitIdentical(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if (a.MPMin == nil) != (b.MPMin == nil) {
		t.Fatalf("%s: MPMin presence differs", tag)
	}
	if a.MPMin != nil {
		for i := range a.MPMin.Dist {
			if a.MPMin.Dist[i] != b.MPMin.Dist[i] || a.MPMin.Index[i] != b.MPMin.Index[i] {
				t.Fatalf("%s: profile slot %d: (%v,%d) vs (%v,%d)", tag, i,
					a.MPMin.Dist[i], a.MPMin.Index[i], b.MPMin.Dist[i], b.MPMin.Index[i])
			}
		}
	}
	if len(a.PerLength) != len(b.PerLength) {
		t.Fatalf("%s: %d vs %d lengths", tag, len(a.PerLength), len(b.PerLength))
	}
	for li := range a.PerLength {
		pa, pb := a.PerLength[li], b.PerLength[li]
		if pa.M != pb.M || pa.Stats != pb.Stats || len(pa.Pairs) != len(pb.Pairs) {
			t.Fatalf("%s: m=%d header differs: %+v vs %+v", tag, pa.M, pa.Stats, pb.Stats)
		}
		for pi := range pa.Pairs {
			if pa.Pairs[pi] != pb.Pairs[pi] {
				t.Fatalf("%s: m=%d pair %d: %v vs %v", tag, pa.M, pi, pa.Pairs[pi], pb.Pairs[pi])
			}
		}
	}
	for i := range a.VMap.MPn {
		if a.VMap.MPn[i] != b.VMap.MPn[i] || a.VMap.IP[i] != b.VMap.IP[i] || a.VMap.LP[i] != b.VMap.LP[i] {
			t.Fatalf("%s: VALMAP slot %d differs", tag, i)
		}
	}
	if len(a.Discords) != len(b.Discords) {
		t.Fatalf("%s: %d vs %d discords", tag, len(a.Discords), len(b.Discords))
	}
	for i := range a.Discords {
		if a.Discords[i] != b.Discords[i] {
			t.Fatalf("%s: discord %d: %+v vs %+v", tag, i, a.Discords[i], b.Discords[i])
		}
	}
	if a.Plan != b.Plan {
		t.Fatalf("%s: plan stats %+v vs %+v", tag, a.Plan, b.Plan)
	}
}

// TestCheckpointResumeBitIdentical is the tentpole contract: killing a run
// at ANY length boundary and resuming from the last checkpoint yields
// results byte-identical to the uninterrupted run — across the pruned plan
// and the incremental discords plan, and with a different worker count on
// the resume side (the checkpoint digest deliberately ignores Workers).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randWalk(rng, 900)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pruned", Config{LMin: 12, LMax: 44, TopK: 4, P: 6, Workers: 1, pinPruned: true}},
		{"discords", Config{LMin: 12, LMax: 36, TopK: 3, P: 6, Discords: 3, Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			base, ckpts := captureAll(t, e, x, tc.cfg)
			total := tc.cfg.LMax - tc.cfg.LMin + 1
			if len(ckpts) != total-1 {
				t.Fatalf("expected %d checkpoints, got %d", total-1, len(ckpts))
			}
			for i, ck := range ckpts {
				for _, w := range []int{1, 3} {
					cfg := tc.cfg
					cfg.Workers = w
					res, err := e.ResumeRun(context.Background(), x, cfg, ck)
					if err != nil {
						t.Fatalf("resume from boundary %d (workers=%d): %v", i+1, w, err)
					}
					assertResultsBitIdentical(t, tc.name, base, res)
				}
			}
			if bal := e.rowPoolBalance(); bal != 0 {
				t.Fatalf("row pool unbalanced after resumes: %d", bal)
			}
		})
	}
}

// TestCheckpointRejectsTampering: the frame validation must catch every
// way a blob can be wrong before any field is trusted.
func TestCheckpointRejectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randWalk(rng, 400)
	cfg := Config{LMin: 10, LMax: 20, TopK: 3, Workers: 1}
	e := NewEngine()
	_, ckpts := captureAll(t, e, x, cfg)
	ck := ckpts[len(ckpts)/2]

	expectBad := func(tag string, blob []byte, series []float64, c Config) {
		t.Helper()
		if _, err := e.ResumeRun(context.Background(), series, c, blob); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: want ErrBadCheckpoint, got %v", tag, err)
		}
	}

	flipped := append([]byte(nil), ck...)
	flipped[len(flipped)-1] ^= 0x40
	expectBad("payload corruption", flipped, x, cfg)

	expectBad("truncated", ck[:30], x, cfg)

	badMagic := append([]byte(nil), ck...)
	badMagic[0] = 'X'
	expectBad("bad magic", badMagic, x, cfg)

	badVer := append([]byte(nil), ck...)
	badVer[11] = 9
	expectBad("unknown version", badVer, x, cfg)

	otherSeries := randWalk(rand.New(rand.NewSource(9)), 400)
	expectBad("different series content", ck, otherSeries, cfg)

	otherCfg := cfg
	otherCfg.TopK = 5
	expectBad("different config", ck, x, otherCfg)

	// Payloads re-framed with a valid header and SHA-256, so the section
	// reader itself must refuse them.
	payload := ck[ckptHeaderLen:]
	expectBad("trailing bytes", reframe(ckptMagic, ckptVersion, append(append([]byte(nil), payload...), 0)), x, cfg)
	expectBad("short payload", reframe(ckptMagic, ckptVersion, payload[:len(payload)-1]), x, cfg)
	overrun := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(overrun[4+32:], math.MaxUint32) // the digest's length
	expectBad("count past the bytes left", reframe(ckptMagic, ckptVersion, overrun), x, cfg)
	filled := cfg
	filled.Fill()
	badFlag := append([]byte(nil), payload...)
	badFlag[4+32+4+len(cfgDigest(filled))+4+6*4] = 2 // Seeded
	expectBad("flag byte other than 0 or 1", reframe(ckptMagic, ckptVersion, badFlag), x, cfg)
}

// TestCheckpointRefusesMalformedSections: a frame whose hash matches (it
// is re-encoded after the edit) but whose sections disagree with the
// series, the configuration or each other is refused with
// ErrBadCheckpoint, never resumed into a panic or a wrong-shaped result.
func TestCheckpointRefusesMalformedSections(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randWalk(rng, 600)
	e := NewEngine()
	pruned := Config{LMin: 10, LMax: 30, TopK: 3, Workers: 1, pinPruned: true}
	_, prunedCkpts := captureAll(t, e, x, pruned)
	discords := Config{LMin: 10, LMax: 30, TopK: 3, Discords: 2, Workers: 1}
	_, discordCkpts := captureAll(t, e, x, discords)
	sMin := len(x) - pruned.LMin + 1

	for _, tc := range []struct {
		name   string
		cfg    Config
		frame  []byte
		mutate func(p *ckptPayload)
	}{
		{"control: unchanged pruned frame", pruned, prunedCkpts[10], nil},
		{"control: unchanged discords frame", discords, discordCkpts[10], nil},
		{"retained offset negative", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.J[5] = -7
		}},
		{"retained offset past the anchors", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.J[5] = int32(sMin)
		}},
		{"entry count above P", pruned, prunedCkpts[10], func(p *ckptPayload) {
			a := p.Anchors
			for a.Len[5] <= DefaultP {
				a.Len[5]++
				a.J, a.QT = append(a.J, a.J[0]), append(a.QT, a.QT[0])
			}
		}},
		{"entry count negative", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.Len[5] = -1
		}},
		{"slots per anchor other than P", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.Cap = DefaultP + 1
		}},
		{"entries on a degenerate anchor", pruned, prunedCkpts[10], func(p *ckptPayload) {
			a := p.Anchors
			for i := range a.Len {
				if a.Len[i] > 0 {
					a.Degenerate[i] = true
					return
				}
			}
		}},
		{"base array short", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.Base = p.Anchors.Base[:sMin-1]
		}},
		{"entry counts short", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.Len = p.Anchors.Len[:sMin-1]
		}},
		{"bound keys short", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.NextQ2 = p.Anchors.NextQ2[:sMin-1]
		}},
		{"degenerate flags long", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.Degenerate = append(p.Anchors.Degenerate, false)
		}},
		{"offsets short of the entry counts", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.J = p.Anchors.J[:len(p.Anchors.J)-1]
		}},
		{"dot products past the entry counts", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.QT = append(p.Anchors.QT, 1)
		}},
		{"seed length past the entries' length", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.Base[5] = int32(p.EntriesAt + 1)
		}},
		{"anchor never seeded", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors.Base[5] = 0
		}},
		{"entries past the resume point", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.EntriesAt = pruned.LMin + p.NextIdx
		}},
		{"seeded without anchors", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.Anchors = nil
		}},
		{"per-length results cut short", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.PerLength = p.PerLength[:1]
		}},
		{"per-length result at the wrong length", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.PerLength[3].M++
		}},
		{"ℓmin profile short", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.MPMin.Dist = p.MPMin.Dist[:sMin-1]
			p.MPMin.Index = p.MPMin.Index[:sMin-1]
		}},
		{"ℓmin profile at another length", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.MPMin.M++
		}},
		{"VALMAP short", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.VM.MPn, p.VM.IP, p.VM.LP = p.VM.MPn[:sMin-1], p.VM.IP[:sMin-1], p.VM.LP[:sMin-1]
		}},
		{"VALMAP over another range", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.VM.LMin++
		}},
		{"VALMAP update past the slots", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.VM.Checkpoints[0].Updates[0].I = sMin
		}},
		{"VALMAP checkpoint past the resume point", pruned, prunedCkpts[10], func(p *ckptPayload) {
			p.VM.Checkpoints[len(p.VM.Checkpoints)-1].L = pruned.LMin + p.NextIdx
		}},
		{"VALMAP checkpoints out of order", pruned, prunedCkpts[10], func(p *ckptPayload) {
			cps := p.VM.Checkpoints
			cps[0], cps[1] = cps[1], cps[0]
		}},
	} {
		p, err := decodeCheckpoint(tc.frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.mutate != nil {
			tc.mutate(p)
		}
		blob, err := encodeDecoded(p, ckptVersion)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err = e.ResumeRun(context.Background(), x, tc.cfg, blob)
		if tc.mutate == nil {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: want ErrBadCheckpoint, got %v", tc.name, err)
		}
	}
}

// TestCheckpointEveryCadence: CheckpointEvery k emits only at every k-th
// completed length, and never after the final length (nothing remains to
// resume).
func TestCheckpointEveryCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randWalk(rng, 400)
	cfg := Config{LMin: 10, LMax: 29, TopK: 3, Workers: 1, CheckpointEvery: 5}
	_, ckpts := captureAll(t, NewEngine(), x, cfg)
	if len(ckpts) != 3 { // boundaries 5, 10, 15 of 20 lengths; 20 is final
		t.Fatalf("expected 3 checkpoints at cadence 5 over 20 lengths, got %d", len(ckpts))
	}
}

// TestCheckpointCallbackErrorNonFatal: a failing OnCheckpoint must not
// fail the run — it just stops checkpointing.
func TestCheckpointCallbackErrorNonFatal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randWalk(rng, 400)
	calls := 0
	cfg := Config{LMin: 10, LMax: 24, TopK: 3, Workers: 1,
		OnCheckpoint: func([]byte) error { calls++; return errors.New("disk full") }}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatalf("run failed on checkpoint error: %v", err)
	}
	if calls != 1 {
		t.Fatalf("checkpointing not disabled after first failure: %d calls", calls)
	}
	if len(res.PerLength) != 15 {
		t.Fatalf("run incomplete: %d lengths", len(res.PerLength))
	}
}

// TestCheckpointRequiresBuiltinSinks: checkpointing is defined only over
// the Engine.Run pipeline; a custom sink's state cannot be captured.
func TestCheckpointRequiresBuiltinSinks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randWalk(rng, 300)
	cfg := Config{LMin: 10, LMax: 14, Workers: 1, OnCheckpoint: func([]byte) error { return nil }}
	err := NewEngine().RunSinks(context.Background(), x, cfg, &collectSink{out: new([]LengthData)})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

// reframe wraps payload in a frame header of the given kind with a
// correct length and SHA-256, so a fuzzed payload reaches the section
// reader and the shape checks instead of being turned away by the hash.
func reframe(magic string, version uint32, payload []byte) []byte {
	blob := make([]byte, ckptHeaderLen+len(payload))
	copy(blob, magic)
	binary.BigEndian.PutUint32(blob[8:], version)
	binary.BigEndian.PutUint64(blob[12:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(blob[20:], sum[:])
	copy(blob[ckptHeaderLen:], payload)
	return blob
}

// encodeDecoded frames a decoded, perhaps edited, payload at the given
// format version. The engine writes the anchors section only from a live
// store; a decoded payload holds it packed in Anchors, so the section is
// written here from the packed arrays, between the run's and the sinks'
// sections, in the layout writeAnchors lays down.
func encodeDecoded(p *ckptPayload, version uint32) ([]byte, error) {
	return encodeFrame(nil, ckptMagic, version, func(w *frameWriter) {
		p.writeRun(w)
		w.flag(p.Anchors != nil)
		if sn := p.Anchors; sn != nil {
			w.int(sn.Cap)
			w.i32s(sn.Len)
			w.i32s(sn.Base)
			w.f64s(sn.NextQ2)
			w.flags(sn.Degenerate)
			w.i32s(sn.J)
			w.f64s(sn.QT)
		}
		p.writeSinks(w)
	})
}

// FuzzCheckpointDecode feeds mutated VALCKPT1 payloads to ResumeRun. The
// seed corpus is the payload of a real frame taken mid-run by a small
// pruned run, and its first half; each input is re-framed with a correct
// header and SHA-256. Every input must resume to a finished run whose
// VALMAP replays at every length, or fail with ErrBadCheckpoint, never
// panic.
func FuzzCheckpointDecode(f *testing.F) {
	x := randWalk(rand.New(rand.NewSource(21)), 160)
	cfg := Config{LMin: 8, LMax: 16, TopK: 3, Workers: 1, pinPruned: true}
	e := NewEngine()
	_, frames := captureAll(f, e, x, cfg)
	payload := frames[len(frames)/2][ckptHeaderLen:]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := e.ResumeRun(context.Background(), x, cfg, reframe(ckptMagic, ckptVersion, payload))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("want ErrBadCheckpoint or a finished run, got %v", err)
			}
			return
		}
		if n := len(res.PerLength); n != cfg.LMax-cfg.LMin+1 {
			t.Fatalf("finished run holds %d lengths", n)
		}
		for l := cfg.LMin; l <= cfg.LMax; l++ {
			if _, _, _, err := res.VMap.StateAt(l); err != nil {
				t.Fatalf("VALMAP at length %d: %v", l, err)
			}
		}
	})
}

// FuzzStreamCheckpointDecode feeds mutated VALSTRM1 payloads to
// ResumeStreamer, seeded from a real capped stream's frame. Every input
// must fail with ErrBadCheckpoint, or resume to a stream that takes one
// more chunk (evicting, since the window is full) and snapshots, never
// panic.
func FuzzStreamCheckpointDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	cfg := Config{LMin: 8, LMax: 12, TopK: 3, Discords: 1, WindowCap: 80, Workers: 1}
	s := mustStreamer(f, cfg)
	if err := s.Append(randWalk(rng, 120)); err != nil {
		f.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	payload := ck[ckptHeaderLen:]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	chunk := randWalk(rng, 16)
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := ResumeStreamer(cfg, reframe(streamMagic, streamVersion, payload))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("want ErrBadCheckpoint or a resumed stream, got %v", err)
			}
			return
		}
		if err := st.Append(chunk); err != nil {
			t.Fatalf("append to a resumed stream: %v", err)
		}
		if _, err := st.Snapshot(); err != nil && !errors.Is(err, ErrTooShort) {
			t.Fatalf("snapshot of a resumed stream: %v", err)
		}
	})
}

// TestResumedValmapStateAt: a frame carries no copy of the VALMAP's
// sealed ℓmin state; resume re-derives it from the ℓmin profile. From
// every boundary, the resumed VALMAP replays to the uninterrupted run's
// state bit for bit at every length — on the pruned plan, on the default
// plan with discords, and where ℓmin admits no non-trivial pair.
func TestResumedValmapStateAt(t *testing.T) {
	x := randWalk(rand.New(rand.NewSource(14)), 700)
	for _, tc := range []struct {
		name string
		x    []float64
		cfg  Config
	}{
		{"pruned", x, Config{LMin: 12, LMax: 30, TopK: 4, Workers: 1, pinPruned: true}},
		{"discords", x, Config{LMin: 12, LMax: 30, TopK: 3, Discords: 2, Workers: 2}},
		{"no ℓmin pair", gridWalk(40, 5), Config{LMin: 36, LMax: 38, Workers: 1}},
	} {
		e := NewEngine()
		base, ckpts := captureAll(t, e, tc.x, tc.cfg)
		if len(ckpts) == 0 {
			t.Fatalf("%s: no checkpoint", tc.name)
		}
		for k, ck := range ckpts {
			res, err := e.ResumeRun(context.Background(), tc.x, tc.cfg, ck)
			if err != nil {
				t.Fatalf("%s: resume from frame %d: %v", tc.name, k, err)
			}
			for l := tc.cfg.LMin; l <= tc.cfg.LMax; l++ {
				assertValmapStateEqual(t, base.VMap, res.VMap, l)
			}
		}
	}
}

func assertValmapStateEqual(t *testing.T, a, b *valmap.VALMAP, l int) {
	t.Helper()
	am, ai, al, err := a.StateAt(l)
	if err != nil {
		t.Fatal(err)
	}
	bm, bi, bl, err := b.StateAt(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(am) != len(bm) {
		t.Fatalf("VALMAP at length %d: %d vs %d slots", l, len(am), len(bm))
	}
	for i := range am {
		if math.Float64bits(am[i]) != math.Float64bits(bm[i]) || ai[i] != bi[i] || al[i] != bl[i] {
			t.Fatalf("VALMAP at length %d slot %d: (%v, %d, %d) vs (%v, %d, %d)",
				l, i, am[i], ai[i], al[i], bm[i], bi[i], bl[i])
		}
	}
}

// TestCheckpointFrameAllocations: on a warm Engine a checkpoint allocates
// next to nothing beyond the frame buffer each run holds. Over ecg
// n = 5 000, ℓ ∈ [64, 83], a run with a frame after every length
// allocates less than 64 KB more per frame than the same run without
// checkpoints (a gob frame of this geometry allocated 4.65 MB).
func TestCheckpointFrameAllocations(t *testing.T) {
	ds, err := gen.Dataset("ecg", 5000, 4242)
	if err != nil {
		t.Fatal(err)
	}
	x := ds.Values
	cfg := Config{LMin: 64, LMax: 83, Workers: 1}
	frames := 0
	ckcfg := cfg
	ckcfg.CheckpointEvery = 1
	ckcfg.OnCheckpoint = func([]byte) error { frames++; return nil }
	e := NewEngine()
	// allocated is the least TotalAlloc growth over three runs: the pools
	// a collection empties refill at the next run's first use.
	allocated := func(c Config) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := e.Run(context.Background(), x, c); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if _, err := e.Run(context.Background(), x, ckcfg); err != nil {
		t.Fatal(err)
	}
	plain := allocated(cfg)
	frames = 0
	with := allocated(ckcfg)
	perRun := frames / 3
	if perRun != cfg.LMax-cfg.LMin {
		t.Fatalf("%d frames per run, want %d", perRun, cfg.LMax-cfg.LMin)
	}
	extra := (float64(with) - float64(plain)) / float64(perRun)
	t.Logf("%.1f KB per frame beyond the run's %.1f MB", extra/1024, float64(plain)/(1<<20))
	if extra >= 64<<10 {
		t.Fatalf("a checkpoint frame allocates %.0f bytes, want under 64 KB", extra)
	}
}
