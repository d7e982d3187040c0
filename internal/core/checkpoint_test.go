package core

import (
	"context"
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
		{"carry32", Config{LMin: 12, LMax: 30, TopK: 3, Discords: 2, Carry32: true, Workers: 1}},
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

	fastCfg := Config{LMin: 10, LMax: 20, Discords: 2, LengthSkip: true, Workers: 1}
	expectBad("fast-mode resume", ck, x, fastCfg)
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

// TestCheckpointFastModeSilent: the coarse-to-fine plans never emit
// checkpoints (their refine phase makes length boundaries inconsistent
// cuts); callers fall back to scratch re-runs.
func TestCheckpointFastModeSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randWalk(rng, 500)
	calls := 0
	cfg := Config{LMin: 10, LMax: 30, Discords: 2, LengthSkip: true, Workers: 1,
		OnCheckpoint: func([]byte) error { calls++; return nil }}
	if _, err := Run(x, cfg); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("fast mode emitted %d checkpoints", calls)
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
