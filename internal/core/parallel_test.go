package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestWorkersProduceEquivalentResults: the parallel seed partitions rows,
// which are independent; every worker count must give the same profile
// values and pair distances within floating tolerance (block-boundary rows
// are seeded by FFT instead of the serial recurrence chain, shifting
// distances by ~1e-10, which can re-resolve exact ties).
func TestWorkersProduceEquivalentResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randWalk(rng, 900)
	var results []*Result
	for _, w := range []int{1, 2, 4, 8} {
		res, err := Run(x, Config{LMin: 16, LMax: 40, TopK: 3, P: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	base := results[0]
	for ri, res := range results[1:] {
		for i := range base.MPMin.Dist {
			a, b := base.MPMin.Dist[i], res.MPMin.Dist[i]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("workers variant %d: profile slot %d inf mismatch", ri, i)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-7*(1+a) {
				t.Fatalf("workers variant %d: profile slot %d: %g vs %g", ri, i, a, b)
			}
		}
		for li := range base.PerLength {
			a, b := base.PerLength[li].Pairs, res.PerLength[li].Pairs
			if len(a) != len(b) {
				t.Fatalf("workers variant %d: m=%d pair count", ri, base.PerLength[li].M)
			}
			for pi := range a {
				if math.Abs(a[pi].Dist-b[pi].Dist) > 1e-7*(1+a[pi].Dist) {
					t.Fatalf("workers variant %d: m=%d pair %d: %v vs %v",
						ri, base.PerLength[li].M, pi, a[pi], b[pi])
				}
			}
		}
	}
}

// TestParallelSeedExact: the default (all cores) configuration stays exact.
func TestParallelSeedExact(t *testing.T) {
	x := sineMix(700)
	res, err := Run(x, Config{LMin: 20, LMax: 44, TopK: 2, P: 6, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 2, 0)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want)
	}
}

// TestWorkersBitIdentical: the seed scan runs on a fixed block grid and the
// per-length advance pass touches each anchor independently, so every
// worker count must produce byte-for-byte identical results — not merely
// tolerance-equal. This guards the parallel anchor path: any cross-anchor
// data dependency or schedule-sensitive arithmetic would break it. It runs
// pinned to the pruned pass and with the cost model's switch, whose
// decision must not depend on the worker count either.
func TestWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := randWalk(rng, 1400)
	for _, pin := range []bool{true, false} {
		var results []*Result
		for _, w := range []int{1, 2, 4, 7} {
			res, err := Run(x, Config{LMin: 12, LMax: 60, TopK: 4, P: 6, Workers: w, pinPruned: pin})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		for _, res := range results[1:] {
			assertResultsBitIdentical(t, "workers", results[0], res)
		}
	}
}

// TestWorkersBitIdenticalDegenerate extends the bit-identity guarantee to
// the adversarial inputs the kernel parity suite uses: planted constant
// segments (σ=0 windows, hitting the degenerate row scans and the
// incremental plan's fixupDegenerate post-pass) and exclusion zones
// clipped at the series edges — across both the pruned and the
// incremental (discords) plan, at every worker count.
func TestWorkersBitIdenticalDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := randWalk(rng, 1100)
	for i := 300; i < 380; i++ {
		x[i] = 3.25 // interior constant segment
	}
	for i := len(x) - 60; i < len(x); i++ {
		x[i] = -1.5 // constant segment flush against the series end
	}
	for _, discords := range []int{0, 3} {
		var results []*Result
		for _, w := range []int{1, 2, 4, 5} {
			res, err := Run(x, Config{LMin: 12, LMax: 40, TopK: 3, P: 5, Discords: discords, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		base := results[0]
		for ri, res := range results[1:] {
			for i := range base.MPMin.Dist {
				if base.MPMin.Dist[i] != res.MPMin.Dist[i] || base.MPMin.Index[i] != res.MPMin.Index[i] {
					t.Fatalf("discords=%d variant %d: profile slot %d differs", discords, ri, i)
				}
			}
			for li := range base.PerLength {
				a, b := base.PerLength[li], res.PerLength[li]
				if len(a.Pairs) != len(b.Pairs) {
					t.Fatalf("discords=%d variant %d: m=%d pair count", discords, ri, a.M)
				}
				for pi := range a.Pairs {
					if a.Pairs[pi] != b.Pairs[pi] {
						t.Fatalf("discords=%d variant %d: m=%d pair %d: %v vs %v",
							discords, ri, a.M, pi, a.Pairs[pi], b.Pairs[pi])
					}
				}
			}
			if len(base.Discords) != len(res.Discords) {
				t.Fatalf("discords=%d variant %d: discord count", discords, ri)
			}
			for di := range base.Discords {
				if base.Discords[di] != res.Discords[di] {
					t.Fatalf("discords=%d variant %d: discord %d: %+v vs %+v",
						discords, ri, di, base.Discords[di], res.Discords[di])
				}
			}
		}
	}
}

// TestDiagBlocksGeometry: the block grid must cover [excl, s) exactly once
// in order, honor the minimum interleave width (so the vectorized
// multi-diagonal kernels engage even when a single diagonal exceeds the
// cell target), and keep the block count bounded as the workload grows.
func TestDiagBlocksGeometry(t *testing.T) {
	for _, tc := range []struct{ s, excl int }{
		{100, 5}, {1000, 16}, {5000, 32}, {200_000, 64}, {1_000_001, 25},
	} {
		blocks := diagBlocks(tc.s, tc.excl)
		k := tc.excl
		for bi, b := range blocks {
			if b.k0 != k || b.k1 <= b.k0 || b.k1 > tc.s {
				t.Fatalf("s=%d excl=%d: block %d = [%d,%d) breaks coverage at k=%d", tc.s, tc.excl, bi, b.k0, b.k1, k)
			}
			if bi < len(blocks)-1 && b.k1-b.k0 < diagBlockMinWidth {
				t.Fatalf("s=%d excl=%d: block %d only %d diagonals wide", tc.s, tc.excl, bi, b.k1-b.k0)
			}
			k = b.k1
		}
		if len(blocks) > 0 && k != tc.s {
			t.Fatalf("s=%d excl=%d: grid ends at %d", tc.s, tc.excl, k)
		}
		// The scaled cell target keeps the grid close to diagBlockShards
		// blocks no matter how large the triangle gets.
		if len(blocks) > diagBlockShards+1 {
			t.Fatalf("s=%d excl=%d: %d blocks, want ≤ %d", tc.s, tc.excl, len(blocks), diagBlockShards+1)
		}
	}
	if b := diagBlocks(10, 10); b != nil {
		t.Fatalf("empty range produced %v", b)
	}
}

// TestMergeDiagLocals: the sharded parallel fold must produce exactly the
// serial fold's winners, including on exact-tie slots where the smaller
// neighbor index wins, at sizes both below and above the parallel gate.
func TestMergeDiagLocals(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, s := range []int{100, mergeParallelMinSlots + 1001} {
		const workers = 4
		r := &run{sMin: s}
		r.ensureDiagScratch(workers)
		for w := 0; w < workers; w++ {
			for i := 0; i < s; i++ {
				if rng.Intn(5) == 0 {
					r.diagCorr[w][i] = math.Inf(-1)
					r.diagIdx[w][i] = -1
					continue
				}
				r.diagCorr[w][i] = float64(rng.Intn(8)) / 8 // coarse values force exact ties
				r.diagIdx[w][i] = int32(rng.Intn(64))
			}
		}
		wantC := make([]float64, s)
		wantI := make([]int32, s)
		copy(wantC, r.diagCorr[0])
		copy(wantI, r.diagIdx[0])
		for w := 1; w < workers; w++ {
			for i := 0; i < s; i++ {
				wc, wi := r.diagCorr[w][i], r.diagIdx[w][i]
				if wi < 0 {
					continue
				}
				if wc > wantC[i] || (wc == wantC[i] && wi < wantI[i]) {
					wantC[i], wantI[i] = wc, wi
				}
			}
		}
		r.mergeDiagLocals(workers, s)
		for i := 0; i < s; i++ {
			if r.diagCorr[0][i] != wantC[i] || r.diagIdx[0][i] != wantI[i] {
				t.Fatalf("s=%d slot %d: merged (%v,%d), want (%v,%d)",
					s, i, r.diagCorr[0][i], r.diagIdx[0][i], wantC[i], wantI[i])
			}
		}
	}
}

// TestProgressCallback: OnLength fires once per length, in order, with
// results matching the returned PerLength slice.
func TestProgressCallback(t *testing.T) {
	x := sineMix(500)
	var seen []Progress
	cfg := Config{LMin: 16, LMax: 32, TopK: 2, P: 4, OnLength: func(p Progress) {
		seen = append(seen, p)
	}}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 32 - 16 + 1
	if len(seen) != total {
		t.Fatalf("%d progress events, want %d", len(seen), total)
	}
	for i, p := range seen {
		if p.Done != i+1 || p.Total != total {
			t.Fatalf("event %d: Done=%d Total=%d", i, p.Done, p.Total)
		}
		if p.Result.M != 16+i {
			t.Fatalf("event %d: length %d, want %d", i, p.Result.M, 16+i)
		}
		if len(p.Result.Pairs) != len(res.PerLength[i].Pairs) {
			t.Fatalf("event %d: %d pairs, result has %d", i, len(p.Result.Pairs), len(res.PerLength[i].Pairs))
		}
	}
}

// TestWorkersClampedOnTinySeries: more workers than rows must not panic or
// lose rows.
func TestWorkersClampedOnTinySeries(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randWalk(rng, 80)
	res, err := Run(x, Config{LMin: 8, LMax: 16, TopK: 1, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 1, 0)
		if len(lr.Pairs) != len(want) {
			t.Fatalf("m=%d: %d pairs want %d", lr.M, len(lr.Pairs), len(want))
		}
		if len(want) > 0 && math.Abs(lr.Pairs[0].Dist-want[0].Dist) > 1e-6*(1+want[0].Dist) {
			t.Fatalf("m=%d: %g want %g", lr.M, lr.Pairs[0].Dist, want[0].Dist)
		}
	}
}
