package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/stomp"
)

// TestRowRuleTierIndependent: the choice between the direct and the FFT
// row reads only the geometry, so every tier takes the same side at each
// length and writes the same row bits; on the direct side those bits are
// kernels.RefDotRow's.
func TestRowRuleTierIndependent(t *testing.T) {
	x := randWalk(rand.New(rand.NewSource(41)), 2500)
	lengths := []int{16, 300, 1500}
	orig := kernels.Active()
	defer func() {
		if err := kernels.SetVariant(orig); err != nil {
			t.Fatal(err)
		}
	}()
	type cell struct{ l, i int }
	direct := map[int]bool{}
	rows := map[cell][]float64{}
	for _, v := range kernels.Available() {
		if err := kernels.SetVariant(v); err != nil {
			t.Fatal(err)
		}
		src := newRowSource(x, 1502)
		w := rowWorker{src: src}
		for _, l := range lengths {
			s := len(x) - l + 1
			d, seen := direct[l]
			if !seen {
				d = src.direct(l)
				direct[l] = d
			} else if src.direct(l) != d {
				t.Fatalf("%v: l=%d: direct=%v, another tier chose %v", v, l, !d, d)
			}
			for _, i := range []int{0, s / 2, s - 1} {
				row := w.row(make([]float64, s), i, l)
				want, seen := rows[cell{l, i}]
				if !seen {
					want = row
					if d {
						want = make([]float64, s)
						kernels.RefDotRow(want, x, x[i:i+l], s)
					}
					rows[cell{l, i}] = want
				}
				for j := range want {
					if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%v: l=%d i=%d cell %d: %v, want %v", v, l, i, j, row[j], want[j])
					}
				}
			}
		}
		src.release()
	}
	if !direct[16] || direct[1500] {
		t.Fatalf("choices %v: the lengths must straddle the cutover", direct)
	}
}

// TestPrunedAboveCutoverExact: at lengths above the cutover every
// from-scratch row — the seed sweep's head row at ℓ = 1 500 and the
// pruned length's recomputes (70 anchors at ℓ = 1 501 on this astro
// series, more than the default RecomputeFraction's 50, so the case pins
// a larger one) — goes through the FFT correlator, and the pruned run
// stays exact and bit-identical across worker counts. The reference is
// stomp.Compute, which TestComputeMatchesBrute pins to brute force; brute
// force itself would cost 3·10⁹ multiply-adds here. Smaller series above
// the cutover fall back to the seed sweep at every length, which would
// leave the recompute rows untested.
func TestPrunedAboveCutoverExact(t *testing.T) {
	ds, err := gen.Dataset("astro", 2500, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := ds.Values
	cfg := Config{LMin: 1500, LMax: 1501, TopK: 3, RecomputeFraction: 0.2, pinPruned: true, Workers: 1}
	src := newRowSource(x, cfg.LMax)
	for l := cfg.LMin; l <= cfg.LMax; l++ {
		if src.direct(l) {
			t.Fatalf("l=%d takes the direct row; the case needs lengths above the cutover", l)
		}
	}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	res2, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, "workers", res, res2)
	recomputed := 0
	for _, lr := range res.PerLength {
		if !lr.Stats.FullRecompute {
			recomputed += lr.Stats.Recomputed
		}
		mp, err := stomp.Compute(x, lr.M, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := mp.TopKPairs(cfg.TopK)
		if len(lr.Pairs) != len(want) {
			t.Fatalf("l=%d: %d pairs, reference %d", lr.M, len(lr.Pairs), len(want))
		}
		for k, p := range lr.Pairs {
			if w := want[k]; p.A != w.A || p.B != w.B || math.Abs(p.Dist-w.Dist) > 1e-9*w.Dist {
				t.Fatalf("l=%d pair %d: %v, reference %v", lr.M, k, p, w)
			}
		}
	}
	if recomputed == 0 {
		t.Fatal("no pruned length recomputed an anchor through the FFT row")
	}
}
