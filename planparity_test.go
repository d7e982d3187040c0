package valmod_test

import (
	"math"
	"testing"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/stomp"
)

// TestPlanParity: the plans that must agree do, on the ecg and astro
// series (n=1200, seed 1, lengths [64, 83]).
//
//   - The default pairs plan (pruned until the cost model switches it), a
//     Discords run (every length on the incremental whole-profile pass)
//     and a per-length stomp.Compute oracle report the same best pair.
//   - The exhaustive, LengthSkip and strict stride/refine pairs+discords
//     plans report the same best pair and the same top discord.
//
// Offsets and lengths must match exactly; length-normalized distances
// agree within 1e-9 relative, since the plans take different arithmetic
// paths (bit-equality holds across worker counts within one plan).
func TestPlanParity(t *testing.T) {
	const n, lmin, lmax = 1200, 64, 83
	for _, ds := range []string{"ecg", "astro"} {
		s, err := gen.Dataset(ds, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		oracle := stompBestPair(t, s.Values, lmin, lmax)
		for _, p := range []struct {
			name string
			opts valmod.Options
		}{
			{"default", valmod.Options{TopK: 1}},
			{"discords", valmod.Options{TopK: 1, Discords: 1}},
		} {
			res, err := valmod.Discover(s.Values, lmin, lmax, p.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, p.name, err)
			}
			best, ok := res.BestOverall()
			if !ok {
				t.Fatalf("%s/%s: no best pair found", ds, p.name)
			}
			assertSamePair(t, ds+"/"+p.name+" vs stomp", best, oracle)
		}

		var refBest valmod.MotifPair
		var refDisc valmod.Discord
		for i, p := range []struct {
			name string
			opts valmod.Options
		}{
			{"exhaustive", valmod.Options{TopK: 1, Discords: 3}},
			{"lb-skip", valmod.Options{TopK: 1, Discords: 3, LengthSkip: true}},
			{"stride-strict", valmod.Options{TopK: 1, Discords: 3, LengthStride: 4, Strict: true}},
		} {
			res, err := valmod.Discover(s.Values, lmin, lmax, p.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, p.name, err)
			}
			best, ok := res.BestOverall()
			if !ok || len(res.Discords) == 0 {
				t.Fatalf("%s/%s: no best pair or no discord found", ds, p.name)
			}
			disc := res.Discords[0]
			if i == 0 {
				refBest, refDisc = best, disc
				continue
			}
			tag := ds + "/" + p.name + " vs exhaustive"
			assertSamePair(t, tag, best, refBest)
			if disc.Offset != refDisc.Offset || disc.Length != refDisc.Length || !withinParity(disc.NormDistance, refDisc.NormDistance) {
				t.Fatalf("%s: top discord %+v != %+v", tag, disc, refDisc)
			}
		}
	}
}

// stompBestPair is the oracle best pair over [lmin, lmax]: each length's
// top pair from a from-scratch stomp.Compute profile, the smallest
// length-normalized distance winning (the first on ties, as
// Result.BestOverall picks).
func stompBestPair(t *testing.T, x []float64, lmin, lmax int) valmod.MotifPair {
	t.Helper()
	best := valmod.MotifPair{NormDistance: math.Inf(1)}
	for l := lmin; l <= lmax; l++ {
		mp, err := stomp.Compute(x, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range mp.TopKPairs(1) {
			if nd := p.NormDist(); nd < best.NormDistance {
				best = valmod.MotifPair{A: p.A, B: p.B, Length: l, Distance: p.Dist, NormDistance: nd}
			}
		}
	}
	return best
}

func assertSamePair(t *testing.T, tag string, got, want valmod.MotifPair) {
	t.Helper()
	if got.A != want.A || got.B != want.B || got.Length != want.Length || !withinParity(got.NormDistance, want.NormDistance) {
		t.Fatalf("%s: best pair %+v != %+v", tag, got, want)
	}
}

func withinParity(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+want)
}
