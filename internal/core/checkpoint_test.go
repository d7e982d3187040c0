package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// captureAll runs cfg over x collecting every emitted checkpoint blob
// (copied — blobs are valid only during the callback) and returns the
// final result with them.
func captureAll(t *testing.T, e *Engine, x []float64, cfg Config) (*Result, [][]byte) {
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
	} {
		p, err := decodeCheckpoint(tc.frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.mutate != nil {
			tc.mutate(p)
		}
		blob, err := encodeCheckpoint(p)
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

// FuzzCheckpointDecode feeds mutated VALCKPT1 payloads to ResumeRun. The
// seed corpus is the gob payload of a real frame taken mid-run by a small
// pruned run; each input is re-framed with a correct header and SHA-256,
// so it reaches the gob decoder and the section checks instead of being
// turned away by the hash. Every input must resume to a finished run or
// fail with ErrBadCheckpoint, never panic.
func FuzzCheckpointDecode(f *testing.F) {
	x := randWalk(rand.New(rand.NewSource(21)), 160)
	cfg := Config{LMin: 8, LMax: 16, TopK: 3, Workers: 1, pinPruned: true}
	e := NewEngine()
	var frames [][]byte
	cfg.OnCheckpoint = func(b []byte) error {
		frames = append(frames, append([]byte(nil), b...))
		return nil
	}
	if _, err := e.Run(context.Background(), x, cfg); err != nil {
		f.Fatal(err)
	}
	cfg.OnCheckpoint = nil
	payload := frames[len(frames)/2][ckptHeaderLen:]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		blob := make([]byte, ckptHeaderLen+len(payload))
		copy(blob, ckptMagic)
		binary.BigEndian.PutUint32(blob[8:], ckptVersion)
		binary.BigEndian.PutUint64(blob[12:], uint64(len(payload)))
		sum := sha256.Sum256(payload)
		copy(blob[20:], sum[:])
		copy(blob[ckptHeaderLen:], payload)
		res, err := e.ResumeRun(context.Background(), x, cfg, blob)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("want ErrBadCheckpoint or a finished run, got %v", err)
			}
			return
		}
		if n := len(res.PerLength); n != cfg.LMax-cfg.LMin+1 {
			t.Fatalf("finished run holds %d lengths", n)
		}
	})
}
