package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/seriesmining/valmod/internal/profile"
)

// fastSeries builds the adversarial fast-mode workload: a random walk with
// a planted repeated motif (a clear cross-length best pair), and a constant
// segment (σ = 0 windows through the carry and survivor machinery).
func fastSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := randWalk(rng, n)
	copy(x[n/2:n/2+n/10], x[n/8:n/8+n/10])
	for i := 3 * n / 4; i < 3*n/4+n/24 && i < n; i++ {
		x[i] = 5
	}
	return x
}

// bestOf returns the run's globally best pair under the length-normalized
// ranking (the cross-length winner the coarse-to-fine plan must preserve).
func bestOf(res *Result) profile.MotifPair {
	best := profile.MotifPair{Dist: math.Inf(1)}
	bn := math.Inf(1)
	for _, lr := range res.PerLength {
		for _, p := range lr.Pairs {
			if nd := p.NormDist(); nd < bn {
				bn, best = nd, p
			}
		}
	}
	return best
}

func runCfg(t *testing.T, x []float64, cfg Config) *Result {
	t.Helper()
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertTopAgree checks the two exactness anchors the strict coarse-to-fine
// modes certify: the globally best pair and the top-1 discord, identical
// offsets/lengths and distances within floating tolerance (the plans take
// different arithmetic paths).
func assertTopAgree(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	gb, wb := bestOf(got), bestOf(want)
	if gb.A != wb.A || gb.B != wb.B || gb.M != wb.M {
		t.Fatalf("%s: best pair (%d,%d,len=%d) != reference (%d,%d,len=%d)",
			tag, gb.A, gb.B, gb.M, wb.A, wb.B, wb.M)
	}
	if math.Abs(gb.Dist-wb.Dist) > 1e-9*(1+wb.Dist) {
		t.Fatalf("%s: best pair dist %g != reference %g", tag, gb.Dist, wb.Dist)
	}
	if len(want.Discords) == 0 || len(got.Discords) == 0 {
		t.Fatalf("%s: missing discords (got %d, want %d)", tag, len(got.Discords), len(want.Discords))
	}
	gd, wd := got.Discords[0], want.Discords[0]
	if gd.I != wd.I || gd.L != wd.L {
		t.Fatalf("%s: top discord (%d,len=%d) != reference (%d,len=%d)", tag, gd.I, gd.L, wd.I, wd.L)
	}
	if math.Abs(gd.Dist-wd.Dist) > 1e-9*(1+wd.Dist) {
		t.Fatalf("%s: top discord dist %g != reference %g", tag, gd.Dist, wd.Dist)
	}
}

func TestLengthSkipMatchesExhaustive(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		x := fastSeries(2000, seed)
		base := Config{LMin: 24, LMax: 43, TopK: 3, Discords: 3, Workers: 1}
		want := runCfg(t, x, base)
		for _, w := range []int{1, 2, 4} {
			cfg := base
			cfg.Workers = w
			cfg.LengthSkip = true
			got := runCfg(t, x, cfg)
			assertTopAgree(t, "skip", got, want)
			p := got.Plan
			if p.RecomputeLengths != 1 {
				t.Fatalf("w=%d: RecomputeLengths = %d, want 1 (the ℓmin seed)", w, p.RecomputeLengths)
			}
			if p.LBSkippedLengths+p.PrunedLengths != 19 {
				t.Fatalf("w=%d: LBSkipped+Pruned = %d+%d, want 19 unscanned lengths",
					w, p.LBSkippedLengths, p.PrunedLengths)
			}
			if p.StrideScanned != 0 || p.RefinedLengths != 0 {
				t.Fatalf("w=%d: stride counters %d/%d set on a pure skip run",
					w, p.StrideScanned, p.RefinedLengths)
			}
		}
	}
}

func TestStrideStrictMatchesExhaustive(t *testing.T) {
	x := fastSeries(2000, 3)
	base := Config{LMin: 24, LMax: 43, TopK: 3, Discords: 3, Workers: 1}
	want := runCfg(t, x, base)
	for _, w := range []int{1, 2, 4} {
		cfg := base
		cfg.Workers = w
		cfg.LengthStride = 3
		cfg.Strict = true
		got := runCfg(t, x, cfg)
		assertTopAgree(t, "stride-strict", got, want)
		p := got.Plan
		if p.StrideScanned != 7 { // lengths 24,27,...,42
			t.Fatalf("w=%d: StrideScanned = %d, want 7", w, p.StrideScanned)
		}
		if got := p.LBSkippedLengths + p.PrunedLengths + p.StrideScanned + p.RefinedLengths; got != 20 {
			t.Fatalf("w=%d: plan counters cover %d lengths, want 20", w, got)
		}
	}
}

// TestStrideNonStrictTopDiscordExact: without Strict the per-length pairs at
// carried lengths are best-effort, but the top-1 discord stays exact — the
// global argmax anchor's carried upper bound clears every pool threshold, so
// it is always recomputed exactly and wins the final ranking.
func TestStrideNonStrictTopDiscordExact(t *testing.T) {
	x := fastSeries(2000, 4)
	base := Config{LMin: 24, LMax: 43, TopK: 3, Discords: 3, Workers: 1}
	want := runCfg(t, x, base)
	for _, stride := range []int{4, 20} {
		cfg := base
		cfg.LengthStride = stride
		got := runCfg(t, x, cfg)
		if len(got.Discords) == 0 {
			t.Fatalf("stride=%d: no discords", stride)
		}
		gd, wd := got.Discords[0], want.Discords[0]
		if gd.I != wd.I || gd.L != wd.L {
			t.Fatalf("stride=%d: top discord (%d,len=%d) != exhaustive (%d,len=%d)",
				stride, gd.I, gd.L, wd.I, wd.L)
		}
		if math.Abs(gd.Dist-wd.Dist) > 1e-9*(1+wd.Dist) {
			t.Fatalf("stride=%d: top discord dist %g != exhaustive %g", stride, gd.Dist, wd.Dist)
		}
		if len(got.PerLength) != 20 {
			t.Fatalf("stride=%d: %d per-length records, want 20", stride, len(got.PerLength))
		}
	}
}

// TestFastModeWorkerBitIdentity: within one coarse-to-fine mode the output
// is bit-identical at every worker count (fixed grids plus per-anchor slot
// writes in the survivor recompute).
func TestFastModeWorkerBitIdentity(t *testing.T) {
	x := fastSeries(1600, 5)
	for _, mode := range []struct {
		name string
		mut  func(*Config)
	}{
		{"skip", func(c *Config) { c.LengthSkip = true }},
		{"stride", func(c *Config) { c.LengthStride = 4 }},
		{"stride-strict", func(c *Config) { c.LengthStride = 4; c.Strict = true }},
	} {
		var ref *Result
		for _, w := range []int{1, 3} {
			cfg := Config{LMin: 20, LMax: 39, TopK: 3, Discords: 3, Workers: w}
			mode.mut(&cfg)
			res := runCfg(t, x, cfg)
			if ref == nil {
				ref = res
				continue
			}
			if len(res.PerLength) != len(ref.PerLength) {
				t.Fatalf("%s: length count differs across workers", mode.name)
			}
			for li := range ref.PerLength {
				a, b := ref.PerLength[li], res.PerLength[li]
				if len(a.Pairs) != len(b.Pairs) {
					t.Fatalf("%s l=%d: pair count %d != %d", mode.name, a.M, len(b.Pairs), len(a.Pairs))
				}
				for pi := range a.Pairs {
					pa, pb := a.Pairs[pi], b.Pairs[pi]
					if pa.A != pb.A || pa.B != pb.B || math.Float64bits(pa.Dist) != math.Float64bits(pb.Dist) {
						t.Fatalf("%s l=%d pair %d: %v != %v", mode.name, a.M, pi, pb, pa)
					}
				}
			}
			if len(res.Discords) != len(ref.Discords) {
				t.Fatalf("%s: discord count differs across workers", mode.name)
			}
			for di := range ref.Discords {
				da, db := ref.Discords[di], res.Discords[di]
				if da.I != db.I || da.L != db.L || math.Float64bits(da.Dist) != math.Float64bits(db.Dist) {
					t.Fatalf("%s discord %d: %v != %v", mode.name, di, db, da)
				}
			}
		}
	}
}

// TestFastModeProgress: phase 1 emits exactly one tick per length with Done
// running 1..Total — the SSE progress contract — no matter how many lengths
// the plan skipped, and refine adds no extra ticks.
func TestFastModeProgress(t *testing.T) {
	x := fastSeries(1200, 6)
	for _, mode := range []struct {
		name string
		mut  func(*Config)
	}{
		{"skip", func(c *Config) { c.LengthSkip = true }},
		{"stride", func(c *Config) { c.LengthStride = 5 }},
	} {
		var dones []int
		total := 0
		cfg := Config{LMin: 16, LMax: 35, TopK: 2, Discords: 2, Workers: 2}
		mode.mut(&cfg)
		cfg.OnLength = func(p Progress) {
			dones = append(dones, p.Done)
			total = p.Total
		}
		runCfg(t, x, cfg)
		if total != 20 || len(dones) != 20 {
			t.Fatalf("%s: %d ticks with Total=%d, want 20/20", mode.name, len(dones), total)
		}
		for i, d := range dones {
			if d != i+1 {
				t.Fatalf("%s: tick %d has Done=%d, want %d", mode.name, i, d, i+1)
			}
		}
	}
}

// TestCarry32CloseToFloat64: the float32 dot-carry changes only trailing
// digits — the top discord anchor survives (its exact recompute runs in
// float64 either way) and distances stay within the documented tolerance.
func TestCarry32CloseToFloat64(t *testing.T) {
	x := fastSeries(2000, 7)
	base := Config{LMin: 24, LMax: 43, TopK: 3, Discords: 3, Workers: 1, LengthStride: 4}
	want := runCfg(t, x, base)
	cfg := base
	cfg.Carry32 = true
	got := runCfg(t, x, cfg)
	gd, wd := got.Discords[0], want.Discords[0]
	if gd.I != wd.I || gd.L != wd.L {
		t.Fatalf("carry32: top discord (%d,len=%d) != float64 (%d,len=%d)", gd.I, gd.L, wd.I, wd.L)
	}
	if math.Abs(gd.Dist-wd.Dist) > 1e-5*(1+wd.Dist) {
		t.Fatalf("carry32: top discord dist %g vs float64 %g", gd.Dist, wd.Dist)
	}
	gb, wb := bestOf(got), bestOf(want)
	if math.Abs(gb.NormDist()-wb.NormDist()) > 1e-4*(1+wb.NormDist()) {
		t.Fatalf("carry32: best pair norm dist %g vs float64 %g", gb.NormDist(), wb.NormDist())
	}
}

// TestFastModeDeclines: configurations outside the fast plan's contract —
// pairs-only runs, an ℓmin admitting no pair — fall back to the legacy
// loop (no fast-mode counters).
func TestFastModeDeclines(t *testing.T) {
	x := fastSeries(900, 8)
	// Pairs-only runs decline (no discord sink to prune for).
	cfg := Config{LMin: 16, LMax: 25, TopK: 2, Workers: 1, LengthSkip: true}
	if got := runCfg(t, x, cfg); got.Plan.LBSkippedLengths != 0 {
		t.Fatalf("pairs-only run took the fast plan: %+v", got.Plan)
	}
	// A range whose ℓmin admits no non-trivial pair declines.
	short := x[:20]
	tiny := Config{LMin: 17, LMax: 18, TopK: 1, Discords: 1, Workers: 1, LengthSkip: true}
	got, err := Run(short, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan.LBSkippedLengths != 0 {
		t.Fatalf("degenerate-range run took the fast plan: %+v", got.Plan)
	}
}

// TestLengthSkipDegenerateHeavy runs the strict skip plan over a series
// dominated by constant segments, where most windows are degenerate at the
// shorter lengths — the σ = 0 conventions must flow through the candidate
// and survivor machinery unchanged.
func TestLengthSkipDegenerateHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randWalk(rng, 1200)
	for i := 100; i < 400; i++ {
		x[i] = 1.5
	}
	for i := 700; i < 1000; i++ {
		x[i] = -2.5
	}
	base := Config{LMin: 12, LMax: 27, TopK: 2, Discords: 3, Workers: 2}
	want := runCfg(t, x, base)
	cfg := base
	cfg.LengthSkip = true
	got := runCfg(t, x, cfg)
	assertTopAgree(t, "degenerate", got, want)
}
