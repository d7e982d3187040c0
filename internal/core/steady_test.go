package core

// Steady-state allocation discipline: after the first pruned length has
// warmed the run-owned scratch (candidate profile, recompute sets, top-k
// selection buffers, pooled rows), processing a pruned length allocates
// nothing — the engine's per-length hot path is heap-silent. The row pool
// balance test is the matching leak detector: every getRow row must come
// back through putRow, including rows the hot cache retained (drained at
// run end — the path that used to leak).

import (
	"context"
	"math/rand"
	"testing"
)

// newTestRun builds a run the way runSinks does, on one worker and seeded
// at cfg.LMin, so per-length internals can be driven directly.
func newTestRun(t testing.TB, eng *Engine, x []float64, cfg Config) *run {
	t.Helper()
	cfg.Fill()
	r := eng.newRun(context.Background(), x, cfg)
	r.workers = 1
	t.Cleanup(r.release)
	if _, err := r.seedAll(cfg.LMin); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestProcessLengthSteadyStateZeroAlloc asserts the pruned per-length pass
// allocates zero heap objects once the scratch is warm: advance→certify,
// the recompute fixpoint (run-owned row buffers, batch buffers, refill
// lists) and the top-k extraction all run out of run-owned memory. The
// probe processes successive lengths, each of which recomputes anchors,
// so the fixpoint is held to the same discipline as certification, and
// the store ends up mixing seed lists with refilled ones, which grow
// nothing: every anchor owns its P slots from the seed on.
func TestProcessLengthSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randWalk(rng, 4000)
	eng := NewEngine()
	cfg := Config{LMin: 32, LMax: 64, TopK: 5, Workers: 1}
	r := newTestRun(t, eng, x, cfg)

	// Warm the per-length scratch across a few real lengths (capacities
	// grow to their steady sizes).
	l := cfg.LMin
	for step := 0; step < 4; step++ {
		l++
		if _, _, err := r.processLength(l); err != nil {
			t.Fatal(err)
		}
	}

	// AllocsPerRun calls the probe once more than it measures; every call
	// resolves the next length.
	const measured = 8
	got := make([]LengthStats, 0, measured+1)
	noPairs := 0
	avg := testing.AllocsPerRun(measured, func() {
		l++
		lr, _, err := r.processLength(l)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, lr.Stats)
		if len(lr.Pairs) == 0 {
			noPairs++
		}
	})
	for k, st := range got {
		if st.FullRecompute || st.Recomputed == 0 {
			t.Fatalf("length %d: %+v; the probe needs lengths that recompute without falling back", l-len(got)+1+k, st)
		}
	}
	if noPairs > 0 {
		t.Fatalf("%d measured lengths reported no pairs", noPairs)
	}
	seedOnly, refilled := 0, 0
	for _, c := range r.store.Len {
		switch {
		case int(c) > seedKeep:
			refilled++
		case c > 0:
			seedOnly++
		}
	}
	if seedOnly == 0 || refilled == 0 {
		t.Fatalf("%d seed-only and %d refilled anchors; the probe needs both", seedOnly, refilled)
	}
	if avg != 0 {
		t.Fatalf("steady-state processLength allocates %.1f objects per length, want 0", avg)
	}
}

// TestRowPoolBalanced is the leak detector on the engine's row pool:
// after runs that exercise seeding, per-anchor recomputes, hot-row
// retention and the discord (incremental) plan, every acquired row has
// been returned — including rows the anchors.Store retained, which the
// run must drain on exit.
func TestRowPoolBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randWalk(rng, 2500)
	eng := NewEngine()
	for _, cfg := range []Config{
		{LMin: 24, LMax: 40, TopK: 5, Workers: 1},
		{LMin: 24, LMax: 40, TopK: 5, Workers: 3},
		{LMin: 24, LMax: 36, TopK: 3, Discords: 3, Workers: 2},
	} {
		if _, err := eng.Run(context.Background(), x, cfg); err != nil {
			t.Fatal(err)
		}
		if b := eng.rowPoolBalance(); b != 0 {
			t.Fatalf("cfg %+v: %d rows acquired but never returned", cfg, b)
		}
	}
}

// BenchmarkProcessLengthSteady is the committed evidence for the
// zero-alloc claim (allocs/op) and the per-length steady-state cost of
// the pruned pass.
func BenchmarkProcessLengthSteady(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randWalk(rng, 4000)
	eng := NewEngine()
	cfg := Config{LMin: 32, LMax: 64, TopK: 5, Workers: 1}
	r := newTestRun(b, eng, x, cfg)
	l := cfg.LMin
	for step := 0; step < 4; step++ {
		l++
		if _, _, err := r.processLength(l); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.processLength(l); err != nil {
			b.Fatal(err)
		}
	}
}
