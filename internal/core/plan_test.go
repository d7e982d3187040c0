package core

// Tests for the per-length planner: hybrid plans mixing TopKPairs and
// FullProfile sinks, length-subset sinks (LengthSelector), skipped
// lengths, and the seeding interplay between the pruned machinery and the
// whole-profile passes.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/seriesmining/valmod/internal/stomp"
)

// assertProfileMatchesBrute compares a delivered profile against the
// definitional baseline.
func assertProfileMatchesBrute(t *testing.T, x []float64, ld LengthData) {
	t.Helper()
	if ld.Profile == nil {
		t.Fatalf("l=%d: nil profile", ld.L)
	}
	want, err := stomp.Brute(x, ld.L, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Dist {
		g, b := ld.Profile.Dist[i], want.Dist[i]
		if math.IsInf(g, 1) != math.IsInf(b, 1) || (!math.IsInf(b, 1) && math.Abs(g-b) > 1e-8*(1+b)) {
			t.Fatalf("l=%d i=%d: dist %g, brute %g", ld.L, i, g, b)
		}
	}
}

// TestHybridPlanMixedSinks: a pairs sink wanting every length plus a
// FullProfile sink wanting two mid-range lengths. The wanted lengths run
// the incremental pass, the rest the pruned pass — and the pruned pass
// must stay exact across the gaps the full lengths leave in its
// advance state (the multi-step entry catch-up). The run is pinned to the
// pruned pass: on this small random walk the cost model would otherwise
// switch to the incremental pass before the gaps.
func TestHybridPlanMixedSinks(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := randWalk(rng, 400)
	const lmin, lmax = 10, 34
	for _, w := range []int{1, 4} {
		var seen []LengthData
		pairs := &collectSink{out: &seen}
		full := &profileSink{lengths: map[int]bool{14: true, 22: true}}
		eng := NewEngine()
		stats, err := eng.runSinks(context.Background(), x,
			Config{LMin: lmin, LMax: lmax, TopK: 2, P: 4, Workers: w, pinPruned: true}, []Sink{pairs, full})
		if err != nil {
			t.Fatal(err)
		}
		if stats.IncrementalLengths != 2 || stats.RecomputeLengths != 1 ||
			stats.PrunedLengths != (lmax-lmin+1)-3 || stats.SkippedLengths != 0 {
			t.Fatalf("workers=%d: plan stats %+v", w, stats)
		}
		if len(full.got) != 2 || full.got[0].L != 14 || full.got[1].L != 22 {
			t.Fatalf("workers=%d: full sink saw %d lengths", w, len(full.got))
		}
		for _, ld := range full.got {
			assertProfileMatchesBrute(t, x, ld)
		}
		if len(seen) != lmax-lmin+1 {
			t.Fatalf("workers=%d: pairs sink saw %d lengths, want %d", w, len(seen), lmax-lmin+1)
		}
		for _, ld := range seen {
			want := referencePairs(t, x, ld.L, 2, 0)
			assertPairsEquivalent(t, ld.Result.StatsTag(), ld.Result.Pairs, want)
		}
	}
}

// TestHybridPlanFullLengthSeedsPrunedMachinery: when the first length of
// the run is a FullProfile length and pruned lengths follow, the planner
// resolves it with the seed sweep — whose partial-profile reseed
// doubles as the pruned machinery's seed — instead of paying an
// extra seeding pass later (pinned to the pruned pass, as above).
func TestHybridPlanFullLengthSeedsPrunedMachinery(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x := randWalk(rng, 350)
	const lmin, lmax = 10, 30
	var seen []LengthData
	pairs := &collectSink{out: &seen}
	full := &profileSink{lengths: map[int]bool{lmin: true}}
	eng := NewEngine()
	stats, err := eng.runSinks(context.Background(), x,
		Config{LMin: lmin, LMax: lmax, TopK: 2, Workers: 1, pinPruned: true}, []Sink{pairs, full})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecomputeLengths != 1 || stats.IncrementalLengths != 0 ||
		stats.PrunedLengths != lmax-lmin || stats.HeadSeeds != 0 {
		t.Fatalf("plan stats %+v: want one seed sweep serving the full sink, no incremental state", stats)
	}
	if len(full.got) != 1 || full.got[0].L != lmin {
		t.Fatalf("full sink saw %d lengths", len(full.got))
	}
	assertProfileMatchesBrute(t, x, full.got[0])
	for _, ld := range seen {
		want := referencePairs(t, x, ld.L, 2, 0)
		assertPairsEquivalent(t, ld.Result.StatsTag(), ld.Result.Pairs, want)
	}
}

// TestSubsetOnlyPlanSkipsLengths: with a single length-subset FullProfile
// sink, every unwanted length is skipped outright — no pruned pass, no
// seed — while progress still ticks once per length, and each wanted
// length computes its own head row.
func TestSubsetOnlyPlanSkipsLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x := randWalk(rng, 300)
	const lmin, lmax = 10, 24
	full := &profileSink{lengths: map[int]bool{12: true, 20: true}}
	var progress []Progress
	eng := NewEngine()
	stats, err := eng.runSinks(context.Background(), x, Config{
		LMin: lmin, LMax: lmax, TopK: 2, Workers: 1,
		OnLength: func(p Progress) { progress = append(progress, p) },
	}, []Sink{full})
	if err != nil {
		t.Fatal(err)
	}
	want := PlanStats{
		IncrementalLengths: 2,
		SkippedLengths:     (lmax - lmin + 1) - 2,
		HeadSeeds:          2,
	}
	if stats != want {
		t.Fatalf("plan stats %+v, want %+v", stats, want)
	}
	if len(progress) != lmax-lmin+1 {
		t.Fatalf("%d progress ticks, want %d", len(progress), lmax-lmin+1)
	}
	for i, p := range progress {
		if p.Done != i+1 || p.Total != lmax-lmin+1 || p.Result.M != lmin+i {
			t.Fatalf("progress %d: %+v", i, p)
		}
	}
	if len(full.got) != 2 || full.got[0].L != 12 || full.got[1].L != 20 {
		t.Fatalf("full sink saw %v lengths", len(full.got))
	}
	for _, ld := range full.got {
		assertProfileMatchesBrute(t, x, ld)
	}
}

// TestRunPlanStats: the classic entry points report the planner's work —
// a pairs query pinned to the pruned pass is one seed plus pruned
// lengths; a discords query is incremental everywhere with a single FFT
// head seed.
func TestRunPlanStats(t *testing.T) {
	x := sineMix(400)
	cfg := Config{LMin: 12, LMax: 28, TopK: 2, pinPruned: true}
	pruned, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lengths := cfg.LMax - cfg.LMin + 1
	if pruned.Plan.RecomputeLengths != 1 || pruned.Plan.PrunedLengths != lengths-1 ||
		pruned.Plan.IncrementalLengths != 0 || pruned.Plan.HeadSeeds != 0 {
		t.Fatalf("pruned plan stats %+v", pruned.Plan)
	}
	cfg.Discords = 2
	full, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Plan.IncrementalLengths != lengths || full.Plan.HeadSeeds != lengths ||
		full.Plan.HeadExtensions != 0 || full.Plan.PrunedLengths != 0 {
		t.Fatalf("full plan stats %+v", full.Plan)
	}
}
