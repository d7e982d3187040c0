package valmod_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
)

// TestDiscoverDeterministicAcrossWorkers is the determinism regression
// guard for the parallel phases: on a fixed-seed generated series,
// Discover must return the same Result, bit for bit in every exported
// field (resultBits), at Workers 1, 2 and 4, on the default pairs plan and
// on a discords run (the incremental whole-profile pass). CI's multicore
// job also runs it at GOMAXPROCS 1, 2 and 4.
func TestDiscoverDeterministicAcrossWorkers(t *testing.T) {
	s := gen.ECG(3000, 7)
	for _, p := range []struct {
		name string
		opts valmod.Options
	}{
		{"pairs", valmod.Options{TopK: 5}},
		{"discords", valmod.Options{TopK: 5, Discords: 5}},
	} {
		var want []byte
		for _, workers := range []int{1, 2, 4} {
			opts := p.opts
			opts.Workers = workers
			got := discoverBits(t, s.Values, 32, 96, opts)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: the result at Workers=%d differs from Workers=1", p.name, workers)
			}
		}
	}
}

// TestEngineReuse: one Engine run twice must agree with the one-shot
// Discover helper — pooled scratch may never leak state between runs.
func TestEngineReuse(t *testing.T) {
	s := gen.SineMix(1200)
	eng := valmod.NewEngine(valmod.Options{TopK: 3})
	first, err := eng.Discover(s.Values, 24, 48)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Discover(s.Values, 24, 48)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := valmod.Discover(s.Values, 24, 48, valmod.Options{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*valmod.Result{second, oneShot} {
		for li := range first.PerLength {
			a, b := first.PerLength[li], other.PerLength[li]
			if len(a.Pairs) != len(b.Pairs) {
				t.Fatalf("l=%d: %d pairs vs %d", a.Length, len(a.Pairs), len(b.Pairs))
			}
			for pi := range a.Pairs {
				if a.Pairs[pi] != b.Pairs[pi] {
					t.Fatalf("l=%d pair %d: %v vs %v", a.Length, pi, a.Pairs[pi], b.Pairs[pi])
				}
			}
		}
	}
	// Different ranges on the same engine must also work (scratch is
	// size-checked, not size-assumed).
	wide, err := eng.Discover(s.Values, 16, 90)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.PerLength) != 90-16+1 {
		t.Fatalf("wide run lengths %d", len(wide.PerLength))
	}
}

// TestEngineProgress: the callback sees every length in order and its
// per-length results match what Discover returns.
func TestEngineProgress(t *testing.T) {
	s := gen.SineMix(800)
	var events []valmod.Progress
	eng := valmod.NewEngine(valmod.Options{
		TopK: 2,
		Progress: func(p valmod.Progress) {
			events = append(events, p)
		},
	})
	res, err := eng.Discover(s.Values, 20, 44)
	if err != nil {
		t.Fatal(err)
	}
	total := 44 - 20 + 1
	if len(events) != total {
		t.Fatalf("%d events, want %d", len(events), total)
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != total {
			t.Fatalf("event %d: Done=%d Total=%d", i, p.Done, p.Total)
		}
		if p.Result.Length != 20+i {
			t.Fatalf("event %d: length %d", i, p.Result.Length)
		}
		want := res.PerLength[i]
		if p.Result.Certified != want.Certified || len(p.Result.Pairs) != len(want.Pairs) {
			t.Fatalf("event %d does not match PerLength: %+v vs %+v", i, p.Result, want)
		}
	}
}

// TestProgressCancellation: cancelling from inside the callback stops the
// run between lengths with ctx.Err().
func TestProgressCancellation(t *testing.T) {
	s := gen.SineMix(800)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	eng := valmod.NewEngine(valmod.Options{
		Progress: func(p valmod.Progress) {
			calls++
			if p.Done == 3 {
				cancel()
			}
		},
	})
	_, err := eng.DiscoverContext(ctx, s.Values, 20, 60)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if calls != 3 {
		t.Fatalf("progress called %d times, want 3 (cancellation checked between lengths)", calls)
	}
}

// TestEngineRejectsBadInput mirrors the package-level validation.
func TestEngineRejectsBadInput(t *testing.T) {
	eng := valmod.NewEngine(valmod.Options{})
	if _, err := eng.Discover(nil, 8, 16); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := eng.Discover([]float64{1, 2, math.NaN(), 4}, 2, 3); err == nil {
		t.Error("NaN should fail")
	}
}
