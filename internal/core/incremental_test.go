package core

// Tests for the incremental cross-length profile engine: extended profiles
// against the brute-force ground truth at every length and worker count
// (bit-identical across worker counts), parity with a from-scratch
// per-length reference, and the degenerate-length hardening near the end
// of the series.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// profileSink collects every delivered length (with its profile); when
// lengths is non-nil it narrows itself to that subset via LengthSelector.
type profileSink struct {
	lengths map[int]bool
	got     []LengthData
}

func (*profileSink) Requires() Requirement   { return FullProfile }
func (s *profileSink) Consume(ld LengthData) { s.got = append(s.got, ld) }
func (s *profileSink) WantsLength(l int) bool {
	if s.lengths == nil {
		return true
	}
	return s.lengths[l]
}

// flatWalk is a random walk with a constant run planted at [lo, hi), so
// degenerate (σ = 0) windows exercise the constant-window conventions.
// The planted value is exactly representable, so both the cumulative-sum
// moments of the engine and the two-pass moments of the baseline compute
// σ = 0 exactly and the conventions trigger consistently (a value with
// rounding residue would leave σ ~1e-16 on both paths and make the
// clamped correlations legitimately ill-conditioned).
func flatWalk(rng *rand.Rand, n, lo, hi int) []float64 {
	x := randWalk(rng, n)
	for i := lo; i < hi; i++ {
		x[i] = 5.0
	}
	return x
}

// TestIncrementalProfileMatchesBrute: the profiles the incremental engine
// extends across lengths must match the O(n²·ℓ) definitional baseline at
// every length — including over a flat region, where the constant-window
// conventions apply — and be bit-identical at every worker count.
func TestIncrementalProfileMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x := flatWalk(rng, 300, 120, 145)
	const lmin, lmax = 10, 26

	var base []LengthData
	for _, w := range []int{1, 2, 4, 7} {
		sink := &profileSink{}
		eng := NewEngine()
		err := eng.RunSinks(context.Background(), x, Config{LMin: lmin, LMax: lmax, TopK: 2, Workers: w}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.got) != lmax-lmin+1 {
			t.Fatalf("workers=%d: %d lengths delivered, want %d", w, len(sink.got), lmax-lmin+1)
		}
		if w == 1 {
			base = sink.got
		}
		for li, ld := range sink.got {
			if ld.Profile == nil {
				t.Fatalf("workers=%d l=%d: nil profile", w, ld.L)
			}
			want, err := stomp.Brute(x, ld.L, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Dist {
				g, b := ld.Profile.Dist[i], want.Dist[i]
				if math.IsInf(g, 1) != math.IsInf(b, 1) {
					t.Fatalf("workers=%d l=%d i=%d: dist %g, brute %g", w, ld.L, i, g, b)
				}
				if !math.IsInf(b, 1) && math.Abs(g-b) > 1e-8*(1+b) {
					t.Fatalf("workers=%d l=%d i=%d: dist %g, brute %g", w, ld.L, i, g, b)
				}
				// The reported neighbor must realize the reported distance.
				if j := ld.Profile.Index[i]; j >= 0 {
					d := series.ZNormDist(x[i:i+ld.L], x[j:j+ld.L])
					if math.Abs(d-g) > 1e-8*(1+g) {
						t.Fatalf("workers=%d l=%d i=%d: index %d realizes %g, profile says %g", w, ld.L, i, j, d, g)
					}
				}
			}
			// Bit-identical across worker counts: same fixed diagonal
			// grid, total-order merges.
			ref := base[li].Profile
			for i := range ref.Dist {
				gd, rd := ld.Profile.Dist[i], ref.Dist[i]
				if (gd != rd && !(math.IsInf(gd, 1) && math.IsInf(rd, 1))) || ld.Profile.Index[i] != ref.Index[i] {
					t.Fatalf("workers=%d l=%d i=%d: (%v,%d) differs from workers=1 (%v,%d)",
						w, ld.L, i, gd, ld.Profile.Index[i], rd, ref.Index[i])
				}
			}
		}
	}
}

// TestIncrementalProfileMatchesZNormAtScale is TestIncrementalProfileMatchesBrute
// at realistic sizes, where brute force is too slow: on ecg, astro,
// seismic and random walk (n = 5 000, seed 1), over ℓ ∈ [64, 66] and
// [200, 201], a discords run's incremental pass must report at every slot
// a distance equal to series.ZNormDist of its reported neighbor within
// 1e-9 relative. It pins the error of the centred covariance recurrence
// and its head row.
func TestIncrementalProfileMatchesZNormAtScale(t *testing.T) {
	for _, ds := range []string{"ecg", "astro", "seismic", "randomwalk"} {
		s, err := gen.Dataset(ds, 5000, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := s.Values
		worst := 0.0
		for _, rg := range [][2]int{{64, 66}, {200, 201}} {
			sink := &profileSink{}
			cfg := Config{LMin: rg[0], LMax: rg[1], Discords: 1, Workers: 2}
			cfg.Fill()
			disc := newDiscordSink(cfg.Discords, cfg.ExclusionFactor)
			if err := NewEngine().RunSinks(context.Background(), x, cfg, sink, disc); err != nil {
				t.Fatal(err)
			}
			for _, ld := range sink.got {
				if !ld.Result.Stats.Incremental {
					t.Fatalf("%s l=%d: not resolved by the incremental pass", ds, ld.L)
				}
				mp := ld.Profile
				for i, j := range mp.Index {
					if j < 0 {
						continue
					}
					got := mp.Dist[i]
					want := series.ZNormDist(x[i:i+ld.L], x[j:j+ld.L])
					rel := math.Abs(got-want) / want
					if got == want {
						rel = 0
					}
					worst = math.Max(worst, rel)
					if !(rel <= 1e-9) {
						t.Fatalf("%s l=%d i=%d: distance %v to %d, series.ZNormDist %v (relative %.2g)", ds, ld.L, i, got, j, want, rel)
					}
				}
			}
		}
		t.Logf("%s: worst relative error %.2g", ds, worst)
	}
}

// TestIncrementalMatchesFromScratchPlan: the incremental plan must
// discover the same pairs and discords as a from-scratch reference built
// from stomp.Compute at every length — identical offsets, lengths and
// ordering; distances equal within floating tolerance (the centred
// covariance recurrence and STOMP's raw dot products take different
// arithmetic paths).
func TestIncrementalMatchesFromScratchPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x := randWalk(rng, 600)
	cfg := Config{LMin: 12, LMax: 40, TopK: 3, Discords: 4}
	inc, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Plan.IncrementalLengths != 40-12+1 || inc.Plan.HeadSeeds != 40-12+1 {
		t.Fatalf("incremental plan stats: %+v", inc.Plan)
	}
	ref := newDiscordSink(cfg.Discords, profile.DefaultExclusionFactor)
	for _, lr := range inc.PerLength {
		mp, err := stomp.Compute(x, lr.M, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, mp.TopKPairs(cfg.TopK))
		ref.Consume(LengthData{L: lr.M, Profile: mp})
	}
	want := ref.Discords()
	if len(inc.Discords) != len(want) {
		t.Fatalf("%d discords incremental, %d from scratch", len(inc.Discords), len(want))
	}
	for i := range inc.Discords {
		a, b := inc.Discords[i], want[i]
		if a.I != b.I || a.L != b.L {
			t.Fatalf("discord %d: (i=%d,l=%d) incremental, (i=%d,l=%d) from scratch", i, a.I, a.L, b.I, b.L)
		}
		if math.Abs(a.Dist-b.Dist) > 1e-9*(1+b.Dist) {
			t.Fatalf("discord %d: dist %g incremental, %g from scratch", i, a.Dist, b.Dist)
		}
	}
}

// TestFullProfileDegenerateLengthsNearSeriesEnd: with LMax near the series
// length, the tail lengths admit no non-trivial pair (s ≤ excl) and the
// whole-profile passes hand the sinks a nil profile — the dispatch and
// every built-in sink must survive that, and the discords must come from
// the valid lengths only.
func TestFullProfileDegenerateLengthsNearSeriesEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x := randWalk(rng, 60)
	for _, w := range []int{1, 3} {
		res, err := Run(x, Config{LMin: 40, LMax: 58, TopK: 1, Discords: 2, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerLength) != 58-40+1 {
			t.Fatalf("workers=%d: %d lengths, want %d", w, len(res.PerLength), 58-40+1)
		}
		if len(res.Discords) == 0 {
			t.Fatalf("workers=%d: no discords from the valid lengths", w)
		}
		for _, d := range res.Discords {
			s := len(x) - d.L + 1
			if excl := profile.ExclusionZone(d.L, res.Cfg.ExclusionFactor); s <= excl {
				t.Fatalf("workers=%d: discord at degenerate length %d (s=%d excl=%d)", w, d.L, s, excl)
			}
		}
		// The degenerate tail lengths must report no pairs.
		for _, lr := range res.PerLength {
			s := len(x) - lr.M + 1
			if excl := profile.ExclusionZone(lr.M, res.Cfg.ExclusionFactor); s <= excl && len(lr.Pairs) > 0 {
				t.Fatalf("workers=%d: %d pairs at degenerate length %d", w, len(lr.Pairs), lr.M)
			}
		}
	}
}
