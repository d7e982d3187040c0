package core

// Tests that force each resolution path of the per-length loop — pure
// certification, isolated-anchor recompute, contiguous-run recompute,
// and full-length fallback — and verify exactness on all of them.

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/seriesmining/valmod/internal/series"
)

// zdistAt recomputes one pair distance from scratch.
func zdistAt(x []float64, a, b, m int) float64 {
	return series.ZNormDist(x[a:a+m], x[b:b+m])
}

// exactAgainstReference runs VALMOD under cfg, pinned to the pruned pass
// so the path under test resolves every length, and checks every length's
// top-k distances against STOMP.
func exactAgainstReference(t *testing.T, x []float64, cfg Config) *Result {
	t.Helper()
	cfg.pinPruned = true
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, cfg.TopK, cfg.ExclusionFactor)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want)
	}
	return res
}

func TestRecomputePathsExact(t *testing.T) {
	// RecomputeFraction=1.0 forbids the full-length fallback, so every
	// uncertified anchor goes through the isolated-anchor / run recompute
	// paths.
	rng := rand.New(rand.NewSource(11))
	x := randWalk(rng, 500)
	res := exactAgainstReference(t, x, Config{
		LMin: 12, LMax: 40, TopK: 2, P: 4, RecomputeFraction: 1.0,
	})
	sum := res.Summary()
	if sum.FullRecomputes != 1 { // only the mandatory ℓmin seed
		t.Errorf("full recomputes = %d, want 1", sum.FullRecomputes)
	}
	if sum.RecomputedAnchors == 0 {
		t.Error("expected the recompute paths to fire on a random walk")
	}
}

func TestFullFallbackPathExact(t *testing.T) {
	// A microscopic threshold forces the full-length fallback whenever
	// anything at all needs recomputing.
	rng := rand.New(rand.NewSource(12))
	x := randWalk(rng, 400)
	res := exactAgainstReference(t, x, Config{
		LMin: 10, LMax: 30, TopK: 2, P: 4, RecomputeFraction: 1e-9,
	})
	sum := res.Summary()
	if sum.RecomputedAnchors != 0 {
		t.Errorf("individual recomputes = %d, want 0 under full-fallback config", sum.RecomputedAnchors)
	}
}

func TestPureCertificationOnEasyData(t *testing.T) {
	// A clean periodic signal certifies nearly everything; most lengths
	// must resolve without any recompute.
	x := sineMix(800)
	res := exactAgainstReference(t, x, Config{LMin: 24, LMax: 56, TopK: 1, P: 10})
	sum := res.Summary()
	if sum.CertifiedAnchors == 0 {
		t.Fatal("no certified anchors on sinusoidal data")
	}
	noWork := 0
	for _, lr := range res.PerLength[1:] {
		if lr.Stats.Recomputed == 0 && !lr.Stats.FullRecompute {
			noWork++
		}
	}
	if noWork == 0 {
		t.Error("expected at least some lengths resolved by certification alone")
	}
}

func TestRunContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randWalk(rng, 3000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	_, err := RunContext(ctx, x, Config{LMin: 32, LMax: 512, TopK: 1})
	if err != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestDegenerateFlatRegions(t *testing.T) {
	// Flat (σ=0) stretches exercise the degenerate-anchor branches of the
	// scan paths. Exact-zero ties between flat windows make the greedy
	// top-k extraction legitimately tie-dependent, so instead of demanding
	// the reference's exact pair set, verify (a) the best distance matches
	// the reference and (b) every reported pair is truthful and obeys the
	// exclusion/dedup constraints.
	rng := rand.New(rand.NewSource(14))
	x := randWalk(rng, 400)
	for i := 120; i < 180; i++ {
		x[i] = 5.0
	}
	cfg := Config{LMin: 10, LMax: 28, TopK: 2, P: 4}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 1, 0)
		if len(want) == 0 {
			continue
		}
		if len(lr.Pairs) == 0 {
			t.Fatalf("m=%d: no pairs, reference best %g", lr.M, want[0].Dist)
		}
		if math.Abs(lr.Pairs[0].Dist-want[0].Dist) > 1e-6*(1+want[0].Dist) {
			t.Fatalf("m=%d: best %g, reference %g", lr.M, lr.Pairs[0].Dist, want[0].Dist)
		}
		for pi, p := range lr.Pairs {
			truth := zdistAt(x, p.A, p.B, lr.M)
			if math.Abs(p.Dist-truth) > 1e-6*(1+truth) {
				t.Fatalf("m=%d pair %d: reported %g, recomputed %g", lr.M, pi, p.Dist, truth)
			}
			if pi > 0 && p.Dist < lr.Pairs[pi-1].Dist-1e-12 {
				t.Fatalf("m=%d: pairs not sorted", lr.M)
			}
		}
	}
}

func TestConstantSeriesDoesNotPanic(t *testing.T) {
	x := make([]float64, 200)
	for i := range x {
		x[i] = 3.25
	}
	res, err := Run(x, Config{LMin: 8, LMax: 16, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every pair of constant windows has distance 0 by convention.
	for _, lr := range res.PerLength {
		for _, p := range lr.Pairs {
			if p.Dist != 0 {
				t.Fatalf("constant series pair distance %g", p.Dist)
			}
		}
	}
}

func TestExclusionFactorOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := randWalk(rng, 300)
	res, err := Run(x, Config{LMin: 10, LMax: 20, TopK: 1, ExclusionFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 1, 2)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want)
		for _, p := range lr.Pairs {
			if p.B-p.A < (lr.M+1)/2 {
				t.Fatalf("m=%d: pair %v violates the m/2 exclusion zone", lr.M, p)
			}
		}
	}
}

func TestNoPairsAtAnyLength(t *testing.T) {
	// Series so short relative to LMax that upper lengths admit no pair.
	rng := rand.New(rand.NewSource(16))
	x := randWalk(rng, 40)
	res, err := Run(x, Config{LMin: 8, LMax: 36, TopK: 2, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 2, 0)
		if len(lr.Pairs) != len(want) {
			t.Fatalf("m=%d: %d pairs, reference %d", lr.M, len(lr.Pairs), len(want))
		}
		for i := range want {
			if math.Abs(lr.Pairs[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
				t.Fatalf("m=%d pair %d mismatch", lr.M, i)
			}
		}
	}
}

func TestVALMAPStateAtMidRun(t *testing.T) {
	x := sineMix(600)
	res, err := Run(x, Config{LMin: 16, LMax: 48, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	mid := 32
	mpn, _, lp, err := res.VMap.StateAt(mid)
	if err != nil {
		t.Fatal(err)
	}
	// No state cell may record a length beyond the checkpoint.
	for i := range lp {
		if lp[i] > mid {
			t.Fatalf("LP[%d] = %d beyond state length %d", i, lp[i], mid)
		}
	}
	// The mid state must dominate the final state (monotone improvement).
	for i := range mpn {
		if res.VMap.MPn[i] > mpn[i]+1e-12 {
			t.Fatalf("final MPn[%d] worse than mid-run state", i)
		}
	}
}
