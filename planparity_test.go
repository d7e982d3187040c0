package valmod_test

import (
	"math"
	"testing"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/stomp"
)

// TestPlanParity: both plans agree with a from-scratch oracle on the ecg
// and astro series (n=1200, seed 1, lengths [64, 83]).
//
//   - The default pairs plan (pruned until the cost model switches it) and
//     a Discords run (every length on the incremental whole-profile pass)
//     report the oracle's best pair.
//   - The Discords run's top discord is the oracle's top discord.
//
// The oracle is a per-length stomp.Compute profile. Offsets and lengths
// must match exactly; length-normalized distances agree within 1e-9
// relative, since the engine and the oracle take different arithmetic
// paths (bit-equality holds across worker counts within one plan).
func TestPlanParity(t *testing.T) {
	const n, lmin, lmax = 1200, 64, 83
	for _, ds := range []string{"ecg", "astro"} {
		s, err := gen.Dataset(ds, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		oraclePair, oracleDisc := stompOracle(t, s.Values, lmin, lmax)
		for _, p := range []struct {
			name string
			opts valmod.Options
		}{
			{"default", valmod.Options{TopK: 1}},
			{"discords", valmod.Options{TopK: 1, Discords: 3}},
		} {
			tag := ds + "/" + p.name + " vs stomp"
			res, err := valmod.Discover(s.Values, lmin, lmax, p.opts)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			best, ok := res.BestOverall()
			if !ok {
				t.Fatalf("%s: no best pair found", tag)
			}
			assertSamePair(t, tag, best, oraclePair)
			if p.opts.Discords == 0 {
				continue
			}
			if len(res.Discords) == 0 {
				t.Fatalf("%s: no discord found", tag)
			}
			disc := res.Discords[0]
			if disc.Offset != oracleDisc.Offset || disc.Length != oracleDisc.Length || !withinParity(disc.NormDistance, oracleDisc.NormDistance) {
				t.Fatalf("%s: top discord %+v != %+v", tag, disc, oracleDisc)
			}
		}
	}
}

// stompOracle computes the best pair and the top discord over
// [lmin, lmax] from a from-scratch stomp.Compute profile per length.
//
//   - The best pair is each length's top pair with the smallest
//     length-normalized distance, the first on ties (as
//     Result.BestOverall picks).
//   - The top discord is the offset whose nearest-neighbor distance has
//     the largest length-normalized value Dist·√(1/ℓ). Ties go to the
//     shorter length, then to the smaller offset.
func stompOracle(t *testing.T, x []float64, lmin, lmax int) (valmod.MotifPair, valmod.Discord) {
	t.Helper()
	best := valmod.MotifPair{NormDistance: math.Inf(1)}
	top := valmod.Discord{NormDistance: math.Inf(-1)}
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
		norm := math.Sqrt(1 / float64(l))
		for i, d := range mp.Dist {
			if mp.Index[i] < 0 || math.IsInf(d, 1) {
				continue
			}
			// Lengths ascend and offsets ascend within a length, so a
			// strict comparison keeps the shorter length, then the
			// smaller offset, on ties.
			if nd := d * norm; nd > top.NormDistance {
				top = valmod.Discord{Offset: i, Length: l, Distance: d, NormDistance: nd}
			}
		}
	}
	return best, top
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
