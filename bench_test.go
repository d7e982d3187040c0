package valmod_test

// Go benchmarks: one bench per figure panel of the paper (the panels
// `valmod-experiments -fig` regenerates), plus ablation benches over the
// pruning, the partial-profile size p and the recompute threshold. Sizes
// are laptop-scale so `go test -bench=.` finishes in minutes; the
// paper-scale sweeps live in cmd/valmod-experiments. They are the
// profiling entry points (`go test -run '^$' -bench BenchmarkBenchCasePairs
// -cpuprofile cpu.prof .`); the repository's benchmark, with repeated
// runs, per-layer metrics and committed results, is bench/.

import (
	"context"
	"fmt"
	"testing"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/baseline/moen"
	"github.com/seriesmining/valmod/internal/baseline/quickmotif"
	"github.com/seriesmining/valmod/internal/baseline/stomprange"
	"github.com/seriesmining/valmod/internal/core"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/mass"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// BenchmarkFig1MatrixProfile regenerates Figure 1 (left): the fixed-length
// matrix profile of the ECG snippet at ℓ=50.
func BenchmarkFig1MatrixProfile(b *testing.B) {
	s := gen.ECG(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valmod.MatrixProfile(s.Values, 50, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1VALMAP regenerates Figure 1 (right): VALMOD over [50, 400]
// on the ECG snippet, VALMAP included.
func BenchmarkFig1VALMAP(b *testing.B) {
	s := gen.ECG(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valmod.Discover(s.Values, 50, 400, valmod.Options{TopK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2PartialProfiles regenerates the Figure 2 machinery: one
// length-600 distance profile plus the lower-bound column and the length-601
// partial-profile updates.
func BenchmarkFig2PartialProfiles(b *testing.B) {
	s := gen.ECG(1800, 1)
	t := s.Values
	st := series.NewStats(t)
	const l, anchor = 600, 160
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qt, _ := mass.SlidingDotProfile(t[anchor:anchor+l], t)
		sumA := st.Sum(anchor, l)
		terms := lb.NewAnchorTerms(st, anchor, l, 1)
		var sink float64
		for j := range qt {
			muB, sdB := st.MeanStd(j, l)
			sink += terms.Bound(lb.QTilde(qt[j], sumA, muB, sdB))
		}
		_ = sink
	}
}

// fig3Algos runs one (algorithm, dataset, lmin, lmax) cell.
func fig3Algos(b *testing.B, algo string, values []float64, lmin, lmax int) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		var err error
		switch algo {
		case "VALMOD":
			_, err = valmod.Discover(values, lmin, lmax, valmod.Options{TopK: 1})
		case "STOMP":
			_, err = stomprange.Run(ctx, values, stomprange.Config{LMin: lmin, LMax: lmax})
		case "MOEN":
			_, err = moen.Run(ctx, values, moen.Config{LMin: lmin, LMax: lmax})
		case "QUICKMOTIF":
			_, err = quickmotif.Run(ctx, values, quickmotif.Config{LMin: lmin, LMax: lmax})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Top regenerates Figure 3 (top): time vs motif length range,
// per dataset and algorithm (n=4000, ℓmin=64 at bench scale).
func BenchmarkFig3Top(b *testing.B) {
	const n, lmin = 4000, 64
	for _, ds := range []string{"ecg", "astro"} {
		s, err := gen.Dataset(ds, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, rangeLen := range []int{8, 16, 32, 64} {
			for _, algo := range []string{"VALMOD", "STOMP", "MOEN", "QUICKMOTIF"} {
				name := fmt.Sprintf("%s/range=%d/%s", ds, rangeLen, algo)
				b.Run(name, func(b *testing.B) {
					fig3Algos(b, algo, s.Values, lmin, lmin+rangeLen-1)
				})
			}
		}
	}
}

// BenchmarkFig3Bottom regenerates Figure 3 (bottom): time vs series length
// (range fixed at 16, ℓmin=64 at bench scale).
func BenchmarkFig3Bottom(b *testing.B) {
	const lmin, rangeLen = 64, 16
	for _, ds := range []string{"ecg", "astro"} {
		for _, n := range []int{2000, 4000, 8000} {
			s, err := gen.Dataset(ds, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, algo := range []string{"VALMOD", "STOMP", "MOEN", "QUICKMOTIF"} {
				name := fmt.Sprintf("%s/n=%d/%s", ds, n, algo)
				b.Run(name, func(b *testing.B) {
					fig3Algos(b, algo, s.Values, lmin, lmin+rangeLen-1)
				})
			}
		}
	}
}

// BenchmarkAblationP sweeps the partial-profile size p.
func BenchmarkAblationP(b *testing.B) {
	s := gen.ECG(4000, 1)
	for _, p := range []int{2, 5, 10, 20, 50} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(s.Values, core.Config{LMin: 64, LMax: 128, TopK: 1, P: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPruning compares the default pairs plan (the pruned
// pass, which the cost model may switch to the incremental pass) against
// pruning off: a Discords run, which takes a whole-profile pass at every
// length.
func BenchmarkAblationPruning(b *testing.B) {
	s := gen.ECG(4000, 1)
	for _, disable := range []bool{false, true} {
		name := "pruning=on"
		discords := 0
		if disable {
			name, discords = "pruning=off", 1
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{LMin: 64, LMax: 128, TopK: 1, Discords: discords}
				if _, err := core.Run(s.Values, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRecomputeFraction sweeps the full-recompute fallback
// threshold.
func BenchmarkAblationRecomputeFraction(b *testing.B) {
	s := gen.ECG(4000, 1)
	for _, frac := range []float64{0.01, 0.05, 0.20} {
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{LMin: 64, LMax: 128, TopK: 1, RecomputeFraction: frac}
				if _, err := core.Run(s.Values, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchProcessLength runs VALMOD's variable-length phase at paper-shaped
// scale (n=20k, [50, 400]) with the given worker count. The seedOnly
// sub-benchmark isolates the mandatory ℓmin scan, so the variable-length
// phase time is full − seedOnly; the serial/parallel ratio of that
// difference is the processLength speedup. Outputs are identical at every
// worker count (fixed block/shard grids), so only time changes.
func benchProcessLength(b *testing.B, workers int) {
	s := gen.ECG(20000, 1)
	run := func(b *testing.B, lmax int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := core.Config{LMin: 50, LMax: lmax, TopK: 10, Workers: workers}
			if _, err := core.Run(s.Values, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seedOnly", func(b *testing.B) { run(b, 50) })
	b.Run("full", func(b *testing.B) { run(b, 400) })
}

// BenchmarkProcessLengthSerial is the Workers=1 baseline of the
// variable-length phase.
func BenchmarkProcessLengthSerial(b *testing.B) { benchProcessLength(b, 1) }

// BenchmarkProcessLengthParallel runs the same workload with the
// advance→certify pass sharded across 4 workers.
func BenchmarkProcessLengthParallel(b *testing.B) { benchProcessLength(b, 4) }

// BenchmarkBenchCasePairs runs the ecg/pairs case of the committed
// BENCH_PR*.json baselines (n=5000, [64,83], pruned plan). Workers is 0,
// so -cpu sets the worker count: -cpu 1 is the baselines' workers=1, and
// CI's multicore job runs -cpu 1,2,4 for its scaling table.
func BenchmarkBenchCasePairs(b *testing.B) {
	s, err := gen.Dataset("ecg", 5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valmod.Discover(s.Values, 64, 83, valmod.Options{TopK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBenchCaseDiscords runs the baselines' ecg/pairs+discords case
// (incremental full-profile plan), with the worker count set by -cpu as
// above.
func BenchmarkBenchCaseDiscords(b *testing.B) {
	s, err := gen.Dataset("ecg", 5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valmod.Discover(s.Values, 64, 83, valmod.Options{TopK: 10, Discords: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParallelSTOMP compares serial and goroutine-partitioned
// STOMP at a fixed length.
func BenchmarkAblationParallelSTOMP(b *testing.B) {
	s := gen.ECG(16000, 1)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stomp.Compute(s.Values, 128, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stomp.ComputeParallel(s.Values, 128, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMASS compares the FFT distance profile against the
// brute-force one.
func BenchmarkAblationMASS(b *testing.B) {
	s := gen.ECG(16000, 1)
	q := s.Values[500:756]
	b.Run("mass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mass.DistanceProfile(q, s.Values)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mass.BruteDistanceProfile(q, s.Values)
		}
	})
}
