package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/seriesmining/valmod/internal/gen"
)

// TestPlantedCopyIsBestPair is a metamorphic exactness check: copying
// t[a : a+ℓmax] to offset b makes every pair (a+d, b+d), d ∈ [0, ℓmax−ℓ],
// an exact copy at length ℓ, so at every length of the range the best
// pair must be one of them. The copy's correlation is the largest a pair
// can have (c ≈ 1), so both anchors rank it first in their seed lists and
// in any refill of their rows. It runs on four generators' series, on the
// pruned pass pinned for the whole range, on the default plan (whose cost
// model switches some of these inputs to the incremental pass) and with
// discords requested (every length on the whole-profile pass), each at
// one and two workers.
//
// The copy's distance is zero only up to the dot-product route's
// rounding, √(2ℓ(1−c)) with c a few thousand ulps below 1 where a quiet
// window sits in a loud series: seismic's copy at a reads 2.8e-5 at
// ℓ = 60, in STOMP's profile as in the engine's, where the brute-force
// z-normalized distance is 0. So the distance must be below 1e-4 and
// match STOMP's best distance at that length within the exactness
// tolerance of the other tests.
func TestPlantedCopyIsBestPair(t *testing.T) {
	const n, lmin, lmax, a, b = 3000, 40, 60, 430, 2170
	for _, name := range []string{"ecg", "astro", "seismic", "randomwalk"} {
		ds, err := gen.Dataset(name, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), ds.Values...)
		copy(x[b:b+lmax], x[a:a+lmax])
		want := make([]float64, lmax+1)
		for l := lmin; l <= lmax; l++ {
			want[l] = referencePairs(t, x, l, 1, 0)[0].Dist
		}
		for _, plan := range []struct {
			name string
			cfg  Config
		}{
			{"pruned", Config{pinPruned: true}},
			{"default", Config{}},
			{"discords", Config{Discords: 3}},
		} {
			for _, w := range []int{1, 2} {
				cfg := plan.cfg
				cfg.LMin, cfg.LMax, cfg.TopK, cfg.Workers = lmin, lmax, 3, w
				tag := fmt.Sprintf("%s/%s/workers=%d", name, plan.name, w)
				res, err := Run(x, cfg)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if len(res.PerLength) != lmax-lmin+1 {
					t.Fatalf("%s: %d lengths, want %d", tag, len(res.PerLength), lmax-lmin+1)
				}
				for _, lr := range res.PerLength {
					if len(lr.Pairs) == 0 {
						t.Fatalf("%s: no pair at length %d", tag, lr.M)
					}
					p := lr.Pairs[0]
					d := p.A - a
					if p.B-b != d || d < 0 || d > lmax-lr.M {
						t.Fatalf("%s: best pair at length %d is (%d, %d), want a planted copy (%d+d, %d+d), d ∈ [0, %d]",
							tag, lr.M, p.A, p.B, a, b, lmax-lr.M)
					}
					if p.Dist > 1e-4 || math.Abs(p.Dist-want[lr.M]) > 1e-6*(1+want[lr.M]) {
						t.Fatalf("%s: the planted copy at length %d reads %g, STOMP's best %g", tag, lr.M, p.Dist, want[lr.M])
					}
				}
			}
		}
	}
}
