package core

// Tests for the cost-model planner: the pure switch decision, an engine run
// that must switch from the pruned to the incremental pass (and stay exact
// and worker-count invariant across the switch), one that must not, and
// checkpoint/resume on both sides of the switch.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/stomp"
)

func TestPreferIncrementalTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, l int
		c    prunedCounts
		want bool
	}{
		// Geometries and counts observed on the benchmark workloads.
		{"pairs-n20k, certifying cleanly", 20000, 66, prunedCounts{}, false},
		{"pairs-n20k tail, moderate recomputes", 20000, 81, prunedCounts{hot: 360, recomputed: 94}, false},
		{"pairs-n20k tail, recompute burst", 20000, 80, prunedCounts{hot: 207, recomputed: 153}, true},
		{"pairs-wide, right after the seed", 5000, 66, prunedCounts{recomputed: 4}, false},
		{"pairs-wide, hot cache at budget", 5000, 114, prunedCounts{hot: 1699}, true},
		{"pairs-wide, recompute burst", 5000, 74, prunedCounts{hot: 202, recomputed: 57}, true},
		{"ecg n=5k, certifying cleanly", 5000, 70, prunedCounts{}, false},
		// A fallback predicts one more seed sweep: the incremental pass's
		// cells plus the list filters and inserts, dearer at any size.
		{"fallback predicts a seed sweep", 5000, 90, prunedCounts{fellBack: true}, true},
		{"fallback on a tiny series", 240, 40, prunedCounts{fellBack: true}, true},
		{"no pair at the length", 100, 90, prunedCounts{hot: 1000, recomputed: 1000}, false},
	} {
		if got := preferIncremental(tc.n, tc.l, DefaultP, 4, tc.c); got != tc.want {
			t.Errorf("%s: preferIncremental(n=%d, l=%d, %+v) = %v, want %v", tc.name, tc.n, tc.l, tc.c, got, tc.want)
		}
	}
}

// TestPreferIncrementalMonotone: more hot rows or more recomputes never
// turn a switch into a stay — the property that makes the latch one-way.
func TestPreferIncrementalMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 200 + rng.Intn(50000)
		l := 8 + rng.Intn(n/2)
		c := prunedCounts{hot: rng.Intn(n), recomputed: rng.Intn(n / 4)}
		if !preferIncremental(n, l, DefaultP, 4, c) {
			continue
		}
		more := c
		more.hot += rng.Intn(n)
		more.recomputed += rng.Intn(n/4 + 1)
		if !preferIncremental(n, l, DefaultP, 4, more) {
			t.Fatalf("n=%d l=%d: switch at %+v but not at %+v", n, l, c, more)
		}
	}
}

// switchLength returns the first length a run resolved incrementally, or
// 0 when none was.
func switchLength(res *Result) int {
	for _, lr := range res.PerLength {
		if lr.Stats.Incremental {
			return lr.M
		}
	}
	return 0
}

// astroWide is a small astro series over a range wide enough that the
// hot-row cache and the recomputes make the pruned pass lose.
func astroWide(t *testing.T) ([]float64, Config) {
	t.Helper()
	s, err := gen.Dataset("astro", 1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s.Values, Config{LMin: 32, LMax: 120, TopK: 3}
}

func TestCostModelSwitchesOnAstroWide(t *testing.T) {
	x, cfg := astroWide(t)
	lengths := cfg.LMax - cfg.LMin + 1
	var base *Result
	for _, w := range []int{1, 2, 4} {
		c := cfg
		c.Workers = w
		res, err := NewEngine().Run(context.Background(), x, c)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		assertResultsBitIdentical(t, "workers", base, res)
	}

	p := base.Plan
	if p.IncrementalLengths == 0 || p.PrunedLengths == 0 || p.RecomputeLengths != 1 ||
		p.PrunedLengths+p.IncrementalLengths != lengths-1 || p.HeadSeeds != 1 {
		t.Fatalf("plan stats %+v: want one seed, pruned lengths, then a switch to incremental", p)
	}
	// The latch is one-way: once a length resolves incrementally, every
	// later one does too.
	sw := switchLength(base)
	t.Logf("switched at length %d of [%d, %d]", sw, cfg.LMin, cfg.LMax)
	for _, lr := range base.PerLength {
		if lr.Stats.Incremental != (lr.M >= sw) {
			t.Fatalf("length %d: incremental=%v with the switch at %d", lr.M, lr.Stats.Incremental, sw)
		}
	}

	whole := cfg
	whole.Discords = 1
	ref, err := Run(x, whole)
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range base.PerLength {
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, ref.PerLength[i].Pairs)
	}
	for _, l := range []int{cfg.LMin + 1, sw - 1, sw, cfg.LMax} {
		mp, err := stomp.Brute(x, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		lr, _ := base.ResultOfLength(l)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, mp.TopKPairs(cfg.TopK))
	}
}

func TestCostModelKeepsEcgShortRangePruned(t *testing.T) {
	s, err := gen.Dataset("ecg", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LMin: 64, LMax: 72, Workers: 2}
	res, err := Run(s.Values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lengths := cfg.LMax - cfg.LMin + 1
	if p := res.Plan; p.RecomputeLengths != 1 || p.PrunedLengths != lengths-1 || p.IncrementalLengths != 0 || p.HeadSeeds != 0 {
		t.Fatalf("plan stats %+v: want an all-pruned run", p)
	}
}

// TestCheckpointResumeAcrossSwitch: resuming from a checkpoint taken
// before, at or after the switch length reproduces the uninterrupted run
// byte for byte at any worker count. Frames from the switch on carry the
// latch and no anchor snapshot.
func TestCheckpointResumeAcrossSwitch(t *testing.T) {
	x, cfg := astroWide(t)
	cfg.Workers = 2
	e := NewEngine()
	base, ckpts := captureAll(t, e, x, cfg)
	sw := switchLength(base)
	if sw == 0 {
		t.Fatal("run never switched to the incremental pass")
	}
	// Checkpoint k follows plan index k, so frame sw−LMin−1 is the one
	// taken right after the last pruned length, where the latch is set.
	at := sw - cfg.LMin - 1
	for _, k := range []int{at - 1, at, at + 1} {
		p, err := decodeCheckpoint(ckpts[k])
		if err != nil {
			t.Fatal(err)
		}
		if latched := k >= at; p.Latched != latched || (p.Anchors == nil) != latched {
			t.Fatalf("frame %d (switch frame %d): latched=%v, anchors present=%v", k, at, p.Latched, p.Anchors != nil)
		}
		for _, w := range []int{1, 4} {
			c := cfg
			c.Workers = w
			res, err := e.ResumeRun(context.Background(), x, c, ckpts[k])
			if err != nil {
				t.Fatalf("resume from frame %d (workers=%d): %v", k, w, err)
			}
			assertResultsBitIdentical(t, "resume", base, res)
		}
	}
	if bal := e.rowPoolBalance(); bal != 0 {
		t.Fatalf("row pool unbalanced after resumes: %d", bal)
	}
}

// TestCheckpointRefusesVersion1: a frame written by the planner without
// the latch is refused, and the caller's scratch re-run is the exact
// fallback.
func TestCheckpointRefusesVersion1(t *testing.T) {
	x, cfg := astroWide(t)
	cfg.Workers = 1
	e := NewEngine()
	base, ckpts := captureAll(t, e, x, cfg)
	p, err := decodeCheckpoint(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	filled := cfg
	filled.Fill()
	p.CfgDigest = "v1 " + cfgFields(filled)
	v1, err := encodeFrame(ckptMagic, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResumeRun(context.Background(), x, cfg, v1); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("version-1 frame: want ErrBadCheckpoint, got %v", err)
	}
	res, err := e.Run(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, "scratch re-run", base, res)
}

// TestCheckpointRefusesV2Digest: a format-2 frame written before the
// diagonal seed carries anchors seeded by the row scan, whose bits differ
// from this engine's seed, so its v2 config digest is refused and the
// caller's scratch re-run is the exact fallback.
func TestCheckpointRefusesV2Digest(t *testing.T) { assertDigestRefused(t, "v2") }

// TestCheckpointRefusesV3Digest: a v3 frame's retained entries and hot
// rows were computed through the FFT correlator, whose bits differ from
// this engine's direct rows below the cutover, so its digest is refused
// and the caller's scratch re-run is the exact fallback.
func TestCheckpointRefusesV3Digest(t *testing.T) { assertDigestRefused(t, "v3") }

// assertDigestRefused rewrites a seeded frame's config digest to an older
// version and checks the frame is refused with ErrBadCheckpoint, while a
// scratch re-run stays bit-identical to the run that wrote it.
func assertDigestRefused(t *testing.T, version string) {
	t.Helper()
	x, cfg := astroWide(t)
	cfg.Workers = 1
	e := NewEngine()
	base, ckpts := captureAll(t, e, x, cfg)
	p, err := decodeCheckpoint(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Anchors == nil {
		t.Fatal("frame 0 carries no anchors; the case needs a seeded frame")
	}
	filled := cfg
	filled.Fill()
	p.CfgDigest = version + " " + cfgFields(filled)
	old, err := encodeFrame(ckptMagic, ckptVersion, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResumeRun(context.Background(), x, cfg, old); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("%s-digest frame: want ErrBadCheckpoint, got %v", version, err)
	}
	res, err := e.Run(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, "scratch re-run", base, res)
}
