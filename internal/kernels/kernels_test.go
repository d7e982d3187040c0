package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/series"
)

// testSeries builds an adversarial series: a random walk with two planted
// constant segments (σ = 0 windows at any length shorter than the
// segments) and a repeated motif, exercising degenerate moments and exact
// correlation ties.
func testSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	t := make([]float64, n)
	v := 0.0
	for i := range t {
		v += rng.NormFloat64()
		t[i] = v
	}
	// Constant segments: one interior, one flush against the series end.
	for i := n / 3; i < n/3+n/8 && i < n; i++ {
		t[i] = 7.5
	}
	for i := n - n/10; i < n; i++ {
		t[i] = -2.25
	}
	// A planted exact repeat (correlation ties for the argmax paths).
	copy(t[n/2:n/2+n/12], t[n/6:n/6+n/12])
	return t
}

// moments returns sliding means and inverse stds (0 on degenerate
// windows) at length l — the exact arrays the engine hands the kernels.
func moments(t []float64, l int) (means, invs []float64) {
	m, sd := series.SlidingMeanStd(t, l)
	invs = make([]float64, len(sd))
	for i, v := range sd {
		if v > 0 {
			invs[i] = 1 / v
		}
	}
	return m, invs
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestKernelParityRowNext(t *testing.T) { forEachVariant(t, testKernelParityRowNext) }

func testKernelParityRowNext(t *testing.T) {
	for _, n := range []int{64, 257, 1000} {
		ts := testSeries(n, 1)
		for _, l := range []int{4, 7, 32} {
			s := n - l + 1
			row0 := make([]float64, s)
			for j := range row0 {
				row0[j] = series.Dot(ts[0:l], ts[j:j+l])
			}
			got := append([]float64(nil), row0...)
			want := append([]float64(nil), row0...)
			// Stream several rows so errors compound if the recurrence drifts.
			for i := 1; i < 6 && i < s; i++ {
				RowNext(got, ts, i, l, s)
				got[0] = series.Dot(ts[i:i+l], ts[0:l])
				RefRowNext(want, ts, i, l, s)
				want[0] = series.Dot(ts[i:i+l], ts[0:l])
				if !bitsEqual(got, want) {
					t.Fatalf("n=%d l=%d row %d: RowNext diverges from reference", n, l, i)
				}
			}
		}
	}
}

func TestKernelParityArgmaxCorr(t *testing.T) { forEachVariant(t, testKernelParityArgmaxCorr) }

func testKernelParityArgmaxCorr(t *testing.T) {
	const n, l = 700, 23
	ts := testSeries(n, 2)
	s := n - l + 1
	means, invs := moments(ts, l)
	invFl := 1 / float64(l)
	excl := (l + 3) / 4
	for _, i := range []int{0, 1, excl - 1, excl, s / 2, s - excl, s - 1} {
		if i < 0 || i >= s {
			continue
		}
		row := make([]float64, s)
		for j := range row {
			row[j] = series.Dot(ts[i:i+l], ts[j:j+l])
		}
		muA, invA := means[i], invs[i]
		if invA == 0 {
			invA = 1 // exercise the candidate-side zeros regardless
		}
		// The engine's split: included j ≤ i−excl or j ≥ i+excl, both
		// clipped at the series edges.
		e1, j2 := i-excl+1, i+excl
		gc, gj := ArgmaxCorr(row, means, invs, e1, j2, s, invFl, muA, invA, math.Inf(-1), -1)
		wc, wj := RefArgmaxCorr(row, means, invs, e1, j2, s, invFl, muA, invA, math.Inf(-1), -1)
		if math.Float64bits(gc) != math.Float64bits(wc) || gj != wj {
			t.Fatalf("i=%d: ArgmaxCorr (%v,%d) != reference (%v,%d)", i, gc, gj, wc, wj)
		}
	}
	// Whole-row scan (no exclusion split): e1 = s, j2 = s.
	row := make([]float64, s)
	for j := range row {
		row[j] = series.Dot(ts[0:l], ts[j:j+l])
	}
	gc, gj := ArgmaxCorr(row, means, invs, s, s, s, invFl, means[0], invs[0], math.Inf(-1), -1)
	wc, wj := RefArgmaxCorr(row, means, invs, s, s, s, invFl, means[0], invs[0], math.Inf(-1), -1)
	if math.Float64bits(gc) != math.Float64bits(wc) || gj != wj {
		t.Fatalf("full row: ArgmaxCorr (%v,%d) != reference (%v,%d)", gc, gj, wc, wj)
	}
}

func TestKernelParityRowScan(t *testing.T) { forEachVariant(t, testKernelParityRowScan) }

// testKernelParityRowScan checks RowScan against RefRowScan — the plain
// argmax loop offering every candidate through refOffer — on anchors in a
// random walk, on a planted repeat and inside a constant segment (where
// invA is forced to 1 and every σ = 0 candidate keys c = 0), over
// exclusion zones clipped at either edge and included ranges of 0–9
// cells on both sides, into lists that start empty, full with Thr above
// most of the row's keys, or full of zero keys at offsets past the row
// (so the σ = 0 candidates tie Thr exactly), from a fresh running best or
// one that ties an included cell and must survive the tie.
func testKernelParityRowScan(t *testing.T) {
	const n, l = 400, 13
	ts := testSeries(n, 5)
	s := n - l + 1
	means, invs := moments(ts, l)
	invFl := 1 / float64(l)
	for _, i := range []int{0, 2, n/3 + 4, n / 2, s - 1} {
		row := make([]float64, s)
		for j := range row {
			row[j] = series.Dot(ts[i:i+l], ts[j:j+l])
		}
		muA, invA := means[i], invs[i]
		if invA == 0 {
			invA = 1
		}
		corrAt := func(j int) float64 { return (row[j]*invFl - muA*means[j]) * invA * invs[j] }
		keys := make([]float64, s)
		for j := range keys {
			keys[j] = corrAt(j) * corrAt(j)
		}
		slices.Sort(keys)
		high := math.Sqrt(keys[s*9/10])
		var splits [][2]int
		for _, excl := range []int{1, 4, 9} {
			splits = append(splits, [2]int{i - excl + 1, i + excl})
		}
		for m := 0; m <= 9; m++ {
			splits = append(splits, [2]int{m, s - m})
		}
		splits = append(splits, [2]int{s, s})
		for _, sp := range splits {
			e1, j2 := sp[0], sp[1]
			included := func(j int) bool { return j < e1 || j >= j2 }
			tie := -1
			for j := s / 3; j < s && tie < 0; j++ {
				if included(j) {
					tie = j
				}
			}
			for _, c := range []int{1, 4, 11} {
				for fill, key := range []float64{0, high, 0} { // fill 0: empty
					for _, seeded := range []bool{false, true} {
						want := NewTopLists(1, c)
						if fill > 0 {
							for x := 0; x < c; x++ {
								want.Offer(0, int32(s+x), float64(x), math.Copysign(key, float64(x%2)-0.5))
							}
						}
						got := cloneLists(want)
						bc, bj := math.Inf(-1), -1
						if seeded && tie >= 0 {
							bc, bj = corrAt(tie), s
						}
						wc, wj := RefRowScan(row, means, invs, e1, j2, s, invFl, muA, invA, bc, bj, want)
						gc, gj := RowScan(row, means, invs, e1, j2, s, invFl, muA, invA, bc, bj, got)
						if math.Float64bits(gc) != math.Float64bits(wc) || gj != wj {
							t.Fatalf("i=%d split=%v cap=%d fill=%d seeded=%v: RowScan (%v,%d) != reference (%v,%d)", i, sp, c, fill, seeded, gc, gj, wc, wj)
						}
						if err := topListsEqual(got, want); err != "" {
							t.Fatalf("i=%d split=%v cap=%d fill=%d seeded=%v: RowScan %s", i, sp, c, fill, seeded, err)
						}
						if seeded && tie >= 0 && wj == s && wc != corrAt(tie) {
							t.Fatalf("i=%d split=%v: the seeded best moved without an improvement", i, sp)
						}
					}
				}
			}
		}
	}
}

// cloneLists returns an independent copy of tl.
func cloneLists(tl *TopLists) *TopLists {
	return &TopLists{Cap: tl.Cap, Len: slices.Clone(tl.Len), Thr: slices.Clone(tl.Thr),
		J: slices.Clone(tl.J), QT: slices.Clone(tl.QT), Q: slices.Clone(tl.Q)}
}

func TestKernelParityExtendRow(t *testing.T) { forEachVariant(t, testKernelParityExtendRow) }

func testKernelParityExtendRow(t *testing.T) {
	const n = 512
	ts := testSeries(n, 3)
	for _, tc := range []struct{ i, cur, l int }{
		{0, 8, 9},     // single step, anchor 0 (the head-row case)
		{0, 8, 20},    // multi-step head extension
		{5, 16, 17},   // single step, interior anchor (hot-row case)
		{5, 16, 31},   // multi-step hot row across a planner gap
		{2, 500, 510}, // partial region dominates (cells falling off the end)
		{3, 12, 12},   // no-op (cur == l)
	} {
		row0 := make([]float64, n-tc.cur+1)
		for j := range row0 {
			end := j + tc.cur
			row0[j] = series.Dot(ts[tc.i:tc.i+tc.cur], ts[j:end])
		}
		got := append([]float64(nil), row0...)
		want := append([]float64(nil), row0...)
		ExtendRow(got, ts, tc.i, tc.cur, tc.l)
		RefExtendRow(want, ts, tc.i, tc.cur, tc.l)
		if !bitsEqual(got, want) {
			t.Fatalf("i=%d cur=%d l=%d: ExtendRow diverges from reference", tc.i, tc.cur, tc.l)
		}
	}
}

func TestKernelParityDotRow(t *testing.T) { forEachVariant(t, testKernelParityDotRow) }

// testKernelParityDotRow covers rows shorter than one vector block (s < 8,
// 16, 32), every remainder of the 8-, 16- and 32-cell blocks, the first
// and last anchor, l = 1, and rows crossing testSeries' σ = 0 stretches.
// Each cell must equal RefDotRow and series.Dot bit for bit, and cells
// past s must stay untouched.
func testKernelParityDotRow(t *testing.T) {
	for _, tc := range []struct{ n, l, s int }{
		{12, 1, 12},     // l = 1, below one block
		{20, 8, 13},     // s < 16
		{40, 9, 31},     // s < 32, 16-block plus remainder
		{40, 1, 40},     // 32-block plus remainder at l = 1
		{100, 4, 97},    // 3 × 32 + 1
		{130, 3, 128},   // exact multiple of every block
		{257, 7, 251},   // odd remainders
		{257, 64, 150},  // s below n−l+1
		{1000, 33, 968}, // crosses both constant stretches
		{1000, 250, 751},
	} {
		ts := testSeries(tc.n, 5)
		for _, i := range []int{0, 1, tc.s / 2, tc.s - 1, tc.n - tc.l} {
			if i < 0 || i+tc.l > tc.n {
				continue
			}
			const pad = 3
			want := make([]float64, tc.s+pad)
			got := make([]float64, tc.s+pad)
			// A query that is no window of the series: the window
			// centred on an offset, as the incremental pass's head row
			// takes it.
			q := slices.Clone(ts[i : i+tc.l])
			for p := range q {
				q[p] -= 0.3125 * float64(i%7)
			}
			for x := range got {
				got[x], want[x] = -7, -7
			}
			RefDotRow(want, ts, q, tc.s)
			DotRow(got, ts, q, tc.s)
			if !bitsEqual(got, want) {
				t.Fatalf("n=%d l=%d s=%d i=%d: DotRow of a centred query diverges from reference", tc.n, tc.l, tc.s, i)
			}
			for x := range got {
				got[x], want[x] = -7, -7
			}
			RefDotRow(want, ts, ts[i:i+tc.l], tc.s)
			DotRow(got, ts, ts[i:i+tc.l], tc.s)
			if !bitsEqual(got, want) {
				t.Fatalf("n=%d l=%d s=%d i=%d: DotRow diverges from reference", tc.n, tc.l, tc.s, i)
			}
			for j := 0; j < tc.s; j++ {
				if d := series.Dot(ts[i:i+tc.l], ts[j:j+tc.l]); math.Float64bits(got[j]) != math.Float64bits(d) {
					t.Fatalf("n=%d l=%d i=%d j=%d: DotRow %v != series.Dot %v", tc.n, tc.l, i, j, got[j], d)
				}
			}
		}
	}
}

func TestKernelParityAdvanceDot(t *testing.T) { forEachVariant(t, testKernelParityAdvanceDot) }

func testKernelParityAdvanceDot(t *testing.T) {
	const n = 300
	ts := testSeries(n, 4)
	for _, tc := range []struct{ i, j, p0, p1 int }{
		{0, 50, 10, 11},
		{3, 200, 16, 40},
		{7, 9, 0, 99},
		{5, 5, 20, 20}, // empty range
		{5, 5, 21, 20}, // inverted range (post-catch-up no-op)
	} {
		got := AdvanceDot(1.25, ts, tc.i, tc.j, tc.p0, tc.p1)
		want := RefAdvanceDot(1.25, ts, tc.i, tc.j, tc.p0, tc.p1)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: AdvanceDot %v != reference %v", tc, got, want)
		}
	}
}

// covInputs prepares CovScan's inputs at length l as the engine does:
// the head row is the dot row of the first window centred on its
// two-pass mean, and CovInputs centres the rest.
func covInputs(ts []float64, l int) (cov, df, dg, nrm []float64) {
	s := len(ts) - l + 1
	_, invs := moments(ts, l)
	a0, _ := series.MeanStdTwoPass(ts[:l])
	q := make([]float64, l)
	var w float64
	for p := range q {
		q[p] = ts[p] - a0
		w += q[p]
	}
	cov, df, dg, nrm = make([]float64, s), make([]float64, s), make([]float64, s), make([]float64, s)
	RefDotRow(cov, ts, q, s)
	CovInputs(ts, cov, df, dg, nrm, invs, a0, w, l)
	return cov, df, dg, nrm
}

func TestKernelParityCovScan(t *testing.T) { forEachVariant(t, testKernelParityCovScan) }

func testKernelParityCovScan(t *testing.T) {
	for _, n := range []int{120, 493, 1000} {
		ts := testSeries(n, 5)
		for _, l := range []int{8, 21} {
			s := n - l + 1
			cov, df, dg, nrm := covInputs(ts, l)
			excl := (l + 3) / 4
			// Block splits exercising the quad path, its tails, and
			// remainders of 1..3 diagonals; the 16-diagonal group alone
			// (16), with a single (17), with a quad and a single (21), and
			// twice with three singles (35); and groups whose common range
			// is short (s−20) or empty (s−16), where the tails run from the
			// head cells.
			splits := [][2]int{{excl, s}, {excl, excl + 1}, {excl, excl + 5}, {s - 3, s}, {s - 1, s},
				{excl, excl + 16}, {excl, excl + 17}, {excl, excl + 21}, {excl, excl + 35}, {s - 20, s}, {s - 16, s}}
			for _, sp := range splits {
				k0, k1 := sp[0], sp[1]
				if k0 < excl || k1 > s || k0 >= k1 {
					continue
				}
				fc, fi := freshSlots(s)
				covScanParity(t, cov, df, dg, nrm, k0, k1, s, fc, fi, "fresh")
				// Rescan into the split's own winners with every recorded
				// neighbor bumped by one: each winner comes back only
				// through an exact tie, at whichever lane or scalar head or
				// tail cell produced it. From fresh slots the first cell to
				// reach a column slot carries its smallest candidate — a
				// group's last lane or a scalar head cell — so the other
				// lanes never decide a tie there.
				RefCovScan(cov, df, dg, nrm, k0, k1, s, fc, fi)
				want := slices.Clone(fi)
				for i := range fi {
					if fi[i] >= 0 {
						fi[i]++
					}
				}
				covScanParity(t, cov, df, dg, nrm, k0, k1, s, fc, fi, "warmed")
				RefCovScan(cov, df, dg, nrm, k0, k1, s, fc, fi)
				if !slices.Equal(fi, want) {
					t.Fatalf("n=%d l=%d k=[%d,%d): the rescan did not restore the winners", n, l, k0, k1)
				}
			}
		}
	}
}

// covScanParity runs CovScan and RefCovScan over diagonals [k0, k1) from
// copies of the slots corr/idx and fails unless they agree bit for bit.
// corr and idx are left as they were.
func covScanParity(t *testing.T, cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32, slots string) {
	t.Helper()
	gc, gi := slices.Clone(corr), slices.Clone(idx)
	wc, wi := slices.Clone(corr), slices.Clone(idx)
	CovScan(cov, df, dg, nrm, k0, k1, s, gc, gi)
	RefCovScan(cov, df, dg, nrm, k0, k1, s, wc, wi)
	if err := slotsEqual(gc, gi, wc, wi); err != "" {
		t.Fatalf("s=%d k=[%d,%d), %s slots: CovScan %s", s, k0, k1, slots, err)
	}
}

// TestKernelParityDiagScan: DiagScan, which centres a raw head row and
// runs CovScan, is on every tier bit-identical to RefCovScan over the
// inputs CovInputs derives from that head (head[k] − l·a₀·aₖ), over
// whole passes and blocks with group remainders. Over the whole pass it
// also yields at every slot the exact correlation of its reported
// neighbor (two-pass, within 1e-9) and the best one over every
// non-trivial candidate. Windows with σ = 0 are left out of that check:
// the kernels give them correlation 0 and the profile's conventions are
// applied later (internal/core).
func TestKernelParityDiagScan(t *testing.T) { forEachVariant(t, testKernelParityDiagScan) }

func testKernelParityDiagScan(t *testing.T) {
	const n, l = 493, 21
	ts := testSeries(n, 5)
	s := n - l + 1
	excl := (l + 3) / 4
	means, invs := moments(ts, l)
	head := make([]float64, s)
	RefDotRow(head, ts, ts[:l], s)
	cov := slices.Clone(head)
	df, dg, nrm := make([]float64, s), make([]float64, s), make([]float64, s)
	CovInputs(ts, cov, df, dg, nrm, invs, means[0], l*means[0], l)
	for _, sp := range [][2]int{{excl, excl + 21}, {s - 35, s}, {excl, s}} {
		gc, gi := freshSlots(s)
		wc, wi := freshSlots(s)
		DiagScan(ts, head, means, invs, sp[0], sp[1], l, s, gc, gi)
		RefCovScan(cov, df, dg, nrm, sp[0], sp[1], s, wc, wi)
		if err := slotsEqual(gc, gi, wc, wi); err != "" {
			t.Fatalf("k=[%d,%d): DiagScan %s", sp[0], sp[1], err)
		}
	}
	corr, idx := freshSlots(s)
	DiagScan(ts, head, means, invs, excl, s, l, s, corr, idx)
	pearson := func(i, j int) float64 {
		d := series.ZNormDist(ts[i:i+l], ts[j:j+l])
		return 1 - d*d/(2*l)
	}
	for i := 0; i < s; i++ {
		if invs[i] == 0 {
			continue
		}
		best := math.Inf(-1)
		for j := 0; j < s; j++ {
			if j > i-excl && j < i+excl || invs[j] == 0 {
				continue
			}
			best = math.Max(best, pearson(i, j))
		}
		j := int(idx[i])
		if invs[j] == 0 {
			continue // a σ = 0 neighbor at correlation 0: nothing better exists
		}
		if c := pearson(i, j); math.Abs(c-corr[i]) > 1e-9 || math.Abs(best-corr[i]) > 1e-9 {
			t.Fatalf("slot %d: neighbor %d at %v, its correlation %v, best %v", i, j, corr[i], c, best)
		}
	}
}

func TestKernelParitySeedScan(t *testing.T) { forEachVariant(t, testKernelParitySeedScan) }

func testKernelParitySeedScan(t *testing.T) {
	for _, n := range []int{120, 493, 1000} {
		ts := testSeries(n, 7)
		for _, l := range []int{8, 21} {
			s := n - l + 1
			means, invs := moments(ts, l)
			head := make([]float64, s)
			for k := range head {
				head[k] = series.Dot(ts[0:l], ts[k:k+l])
			}
			excl := (l + 3) / 4
			// Block sequences exercising the quad path, its tails, the
			// 1..3-diagonal remainders, and offers into lists an earlier
			// block already filled; then DiagScan's splits: the
			// 16-diagonal group alone (16), with a single (17), with a quad
			// and a single (21), and twice with three singles (35); and
			// groups whose common range is short (s−20) or empty (s−16).
			seqs := [][][2]int{{{excl, s}}, {{excl, excl + 5}}, {{s - 3, s}}, {{excl + 7, excl + 23}, {excl, excl + 7}, {s - 1, s}},
				{{excl, excl + 16}}, {{excl, excl + 17}}, {{excl, excl + 21}}, {{excl, excl + 35}}, {{s - 20, s}}, {{s - 16, s}}}
			for _, seq := range seqs {
				// The warmed slots hold the sequence's own winners with
				// every recorded neighbor bumped by one: each winner comes
				// back only through an exact tie, so every lane must flag
				// c ≥ corr, not c > corr.
				fc, fi := freshSlots(s)
				wc, wi := freshSlots(s)
				for _, b := range seq {
					RefSeedScan(ts, head, means, invs, b[0], b[1], l, s, wc, wi, NewTopLists(s, 1))
				}
				want := slices.Clone(wi)
				for i := range wi {
					if wi[i] >= 0 {
						wi[i]++
					}
				}
				for _, c := range []int{1, 4, 11} {
					for _, closed := range []bool{false, true} {
						seedScanParity(t, ts, head, means, invs, seq, l, s, c, fc, fi, "fresh", closed)
						seedScanParity(t, ts, head, means, invs, seq, l, s, c, wc, wi, "warmed", closed)
					}
				}
				for _, b := range seq {
					RefSeedScan(ts, head, means, invs, b[0], b[1], l, s, wc, wi, NewTopLists(s, 1))
				}
				if !slices.Equal(wi, want) {
					t.Fatalf("n=%d l=%d blocks=%v: the rescan did not restore the winners", n, l, seq)
				}
			}
		}
	}
}

// seedScanParity runs SeedScan and RefSeedScan over the block sequence
// seq from copies of the slots corr/idx, into fresh lists of capacity c
// (those of σ = 0 anchors closed when closed is set, as the engine's seed
// closes them), and fails unless slots and lists agree bit for bit. corr
// and idx are left as they were.
func seedScanParity(t *testing.T, ts, head, means, invs []float64, seq [][2]int, l, s, c int, corr []float64, idx []int32, slots string, closed bool) {
	t.Helper()
	gc, gi := slices.Clone(corr), slices.Clone(idx)
	wc, wi := slices.Clone(corr), slices.Clone(idx)
	got, want := NewTopLists(s, c), NewTopLists(s, c)
	if closed {
		for a, v := range invs {
			if v == 0 {
				got.Thr[a], want.Thr[a] = math.Inf(1), math.Inf(1)
			}
		}
		slots += ", σ = 0 lists closed"
	}
	for _, b := range seq {
		SeedScan(ts, head, means, invs, b[0], b[1], l, s, gc, gi, got)
		RefSeedScan(ts, head, means, invs, b[0], b[1], l, s, wc, wi, want)
	}
	if err := slotsEqual(gc, gi, wc, wi); err != "" {
		t.Fatalf("n=%d l=%d cap=%d blocks=%v, %s slots: SeedScan %s", len(ts), l, c, seq, slots, err)
	}
	if err := topListsEqual(got, want); err != "" {
		t.Fatalf("n=%d l=%d cap=%d blocks=%v, %s slots: SeedScan %s", len(ts), l, c, seq, slots, err)
	}
}

// TestTopListsMerge: folding one list into another keeps the best Cap of
// the union, whichever way round the fold runs.
func TestTopListsMerge(t *testing.T) {
	const c = 5
	rng := rand.New(rand.NewSource(3))
	a, b, all := NewTopLists(1, c), NewTopLists(1, c), NewTopLists(1, c)
	for j := int32(0); j < 40; j++ {
		q := float64(rng.Intn(9) - 4) // repeated keys exercise the offset tie-break
		all.Offer(0, j, float64(j), q)
		if j%3 == 0 {
			a.Offer(0, j, float64(j), q)
		} else {
			b.Offer(0, j, float64(j), q)
		}
	}
	b2, a2 := cloneLists(b), cloneLists(a)
	a.Merge(b2, 0)
	b.Merge(a2, 0)
	for _, got := range []*TopLists{a, b} {
		if err := topListsEqual(got, all); err != "" {
			t.Fatalf("merged lists: %s", err)
		}
	}
}

// TestTopListsClosed: a list closed with Thr = +Inf takes no offer, full
// or not, while the other lists fill as usual.
func TestTopListsClosed(t *testing.T) {
	tl := NewTopLists(2, 3)
	tl.Thr[1] = math.Inf(1)
	for j := int32(0); j < 5; j++ {
		tl.Offer(0, j, float64(j), 1)
		tl.Offer(1, j, float64(j), 1)
	}
	if tl.Len[0] != 3 || tl.Len[1] != 0 {
		t.Fatalf("lengths %v, want [3 0]", tl.Len)
	}
}

// randomWalk returns a seeded Gaussian random walk with no planted
// structure — the input on which the stop-protocol bodies rarely stop.
func randomWalk(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]float64, n)
	v := 0.0
	for i := range ts {
		v += rng.NormFloat64()
		ts[i] = v
	}
	return ts
}

func freshSlots(s int) ([]float64, []int32) {
	c := make([]float64, s)
	ix := make([]int32, s)
	for i := range c {
		c[i], ix[i] = math.Inf(-1), -1
	}
	return c, ix
}

// slotsEqual reports the first difference between two profile
// accumulators ("" when bit-identical).
func slotsEqual(gc []float64, gi []int32, wc []float64, wi []int32) string {
	if !bitsEqual(gc, wc) {
		return "corr diverges"
	}
	for i := range gi {
		if gi[i] != wi[i] {
			return fmt.Sprintf("idx[%d]=%d != %d", i, gi[i], wi[i])
		}
	}
	return ""
}

// topListsEqual reports the first difference between two candidate lists
// ("" when every held entry and threshold is bit-identical).
func topListsEqual(got, want *TopLists) string {
	if got.Cap != want.Cap || len(got.Len) != len(want.Len) {
		return "list shapes differ"
	}
	for a := range want.Len {
		if got.Len[a] != want.Len[a] || math.Float64bits(got.Thr[a]) != math.Float64bits(want.Thr[a]) {
			return fmt.Sprintf("anchor %d: len/thr (%d, %v) != (%d, %v)", a, got.Len[a], got.Thr[a], want.Len[a], want.Thr[a])
		}
		for x := a * want.Cap; x < a*want.Cap+int(want.Len[a]); x++ {
			if got.J[x] != want.J[x] || math.Float64bits(got.QT[x]) != math.Float64bits(want.QT[x]) ||
				math.Float64bits(got.Q[x]) != math.Float64bits(want.Q[x]) {
				return fmt.Sprintf("anchor %d entry %d: (%d, %v, %v) != (%d, %v, %v)", a, x-a*want.Cap,
					got.J[x], got.QT[x], got.Q[x], want.J[x], want.QT[x], want.Q[x])
			}
		}
	}
	return ""
}

func TestKernelParityColScan(t *testing.T) { forEachVariant(t, testKernelParityColScan) }

func testKernelParityColScan(t *testing.T) {
	for _, n := range []int{90, 301, 743} {
		ts := testSeries(n, 6)
		for _, l := range []int{5, 16, 33} {
			s := n - l + 1
			if s < 2 {
				continue
			}
			means, invs := moments(ts, l)
			excl := (l + 3) / 4
			// Replay the streaming append: column j is built from column
			// j−1 exactly as the streamer does, so the scanned values carry
			// the real recurrence history (compounding any drift).
			col := make([]float64, s)
			col[0] = series.Dot(ts[0:l], ts[0:l])
			gc := make([]float64, s)
			gi := make([]int32, s)
			wc := make([]float64, s)
			wi := make([]int32, s)
			for i := 0; i < s; i++ {
				gc[i], wc[i] = math.Inf(-1), math.Inf(-1)
				gi[i], wi[i] = -1, -1
			}
			for j := 1; j < s; j++ {
				RowNext(col, ts, j, l, j+1)
				col[0] = series.Dot(ts[0:l], ts[j:j+l])
				iEnd := j - excl + 1
				gotC, gotI := ColScan(col, means, invs, iEnd, 1/float64(l), means[j], invs[j], gc, gi, int32(j), math.Inf(-1), -1)
				wantC, wantI := RefColScan(col, means, invs, iEnd, 1/float64(l), means[j], invs[j], wc, wi, int32(j), math.Inf(-1), -1)
				if math.Float64bits(gotC) != math.Float64bits(wantC) || gotI != wantI {
					t.Fatalf("n=%d l=%d j=%d: ColScan best (%v,%d) != reference (%v,%d)", n, l, j, gotC, gotI, wantC, wantI)
				}
				if gotI >= 0 {
					gc[j], gi[j] = gotC, gotI
					wc[j], wi[j] = wantC, wantI
				}
			}
			if !bitsEqual(gc, wc) {
				t.Fatalf("n=%d l=%d: ColScan corr slots diverge from reference", n, l)
			}
			for i := range gi {
				if gi[i] != wi[i] {
					t.Fatalf("n=%d l=%d: ColScan idx[%d]=%d != %d", n, l, i, gi[i], wi[i])
				}
			}
		}
	}
}

func benchSetup(n, l int) (ts, head, means, invs []float64, s int) {
	ts = testSeries(n, 9)
	s = n - l + 1
	means, invs = moments(ts, l)
	head = make([]float64, s)
	for k := range head {
		head[k] = series.Dot(ts[0:l], ts[k:k+l])
	}
	return
}

// BenchmarkDiagScan times one full diagonal pass of the incremental
// engine (CovScan at ℓ = 64, every diagonal past a 16-wide exclusion
// zone, inputs prepared as the engine prepares them) into slots reset to
// −Inf, reported per visited cell. "walk" is a plain random walk: after
// the first diagonals have filled the slots few cells reach one, so it
// times the vector body. "flat" is testSeries, whose planted constant
// segments make σ = 0 windows: every candidate of one ties at correlation
// 0 and stops the vector body, so it times the stop path.
func BenchmarkDiagScan(b *testing.B) {
	const n, l, excl = 8192, 64, 16
	for _, in := range []struct {
		name string
		ts   []float64
	}{{"walk", randomWalk(n, 9)}, {"flat", testSeries(n, 9)}} {
		b.Run(in.name, func(b *testing.B) {
			forEachVariantB(b, func(b *testing.B) {
				s := n - l + 1
				cov, df, dg, nrm := covInputs(in.ts, l)
				corr, idx := freshSlots(s)
				cells := (s - excl) * (s - excl + 1) / 2
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < s; j++ {
						corr[j], idx[j] = math.Inf(-1), -1
					}
					CovScan(cov, df, dg, nrm, excl, s, s, corr, idx)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			})
		})
	}
}

// BenchmarkSeedScan is BenchmarkDiagScan's pass on the raw recurrence
// with the partial-profile seed fused in, into slots and lists reset to empty, reported per
// visited cell, on the same two inputs: "walk" times the vector body and
// the list inserts, "flat" the stop path, since every σ = 0 candidate ties
// its slot at correlation 0. As in the engine's seed, the lists of σ = 0
// anchors are closed. Each runs at two list capacities: 5, the
// engine's seed lists (seedKeep = 4 entries and the next key), and 11,
// lists of the default P = 10.
func BenchmarkSeedScan(b *testing.B) {
	const n, l, excl = 8192, 64, 16
	for _, in := range []struct {
		name string
		ts   []float64
	}{{"walk", randomWalk(n, 9)}, {"flat", testSeries(n, 9)}} {
		for _, c := range []int{5, 11} {
			b.Run(fmt.Sprintf("%s/cap%d", in.name, c), func(b *testing.B) {
				forEachVariantB(b, func(b *testing.B) {
					ts := in.ts
					s := n - l + 1
					means, invs := moments(ts, l)
					head := make([]float64, s)
					for k := range head {
						head[k] = series.Dot(ts[0:l], ts[k:k+l])
					}
					corr, idx := freshSlots(s)
					top := NewTopLists(s, c)
					cells := (s - excl) * (s - excl + 1) / 2
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := 0; j < s; j++ {
							corr[j], idx[j] = math.Inf(-1), -1
						}
						top.Reset(s)
						for a, v := range invs {
							if v == 0 {
								top.Thr[a] = math.Inf(1)
							}
						}
						SeedScan(ts, head, means, invs, excl, s, l, s, corr, idx, top)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
				})
			})
		}
	}
}

// BenchmarkColScan times one column scan into slots reset to −Inf, so
// every cell improves its slot: on the avx2 tier every group stops and
// runs the scalar compare-updates. It is the stop path's cost, not the
// stream's; BenchmarkColScanReplay times the call pattern a stream makes.
func BenchmarkColScan(b *testing.B) {
	forEachVariantB(b, func(b *testing.B) {
		ts, _, means, invs, s := benchSetup(8192, 64)
		j := s - 1
		col := make([]float64, s)
		for i := range col {
			col[i] = series.Dot(ts[i:i+l64], ts[j:j+l64])
		}
		iEnd := j - 16 + 1
		corr := make([]float64, s)
		idx := make([]int32, s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for x := 0; x < s; x++ {
				corr[x] = math.Inf(-1)
				idx[x] = -1
			}
			sinkCorr, _ = ColScan(col, means, invs, iEnd, 1.0/64, means[j], invs[j], corr, idx, int32(j), math.Inf(-1), -1)
		}
	})
}

// BenchmarkColScanReplay times the call pattern of a stream's eviction
// replay (Streamer.rebuild): every column of a 4 096-point series at
// ℓ = 64 advanced with RowNext and its head dot, then scanned with ColScan
// into slots that carry every earlier column's candidates, so few cells
// change a slot. ns/cell is the whole replay per scanned cell. "walk" is
// a plain random walk; "flat" holds its middle half constant, where the
// σ = 0 windows tie at correlation 0 and stop most groups.
func BenchmarkColScanReplay(b *testing.B) {
	const n, l = 4096, 64
	walk := randomWalk(n, 9)
	flat := append([]float64(nil), walk...)
	for i := n / 4; i < 3*n/4; i++ {
		flat[i] = flat[n/4]
	}
	for _, in := range []struct {
		name string
		ts   []float64
	}{{"walk", walk}, {"flat", flat}} {
		b.Run(in.name, func(b *testing.B) {
			forEachVariantB(b, func(b *testing.B) {
				ts := in.ts
				s := n - l + 1
				excl := (l + 3) / 4
				means, invs := moments(ts, l)
				col := make([]float64, s)
				corr, idx := freshSlots(s)
				cells := 0
				for j := excl; j < s; j++ {
					cells += j - excl + 1
				}
				b.ReportAllocs()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for x := range corr {
						corr[x], idx[x] = math.Inf(-1), -1
					}
					for j := 0; j < s; j++ {
						RowNext(col, ts, j, l, j+1)
						col[0] = series.Dot(ts[0:l], ts[j:j+l])
						if iEnd := j - excl + 1; iEnd > 0 {
							bc, bi := ColScan(col, means, invs, iEnd, 1.0/l, means[j], invs[j], corr, idx, int32(j), math.Inf(-1), -1)
							if bi >= 0 {
								corr[j], idx[j] = bc, bi
							}
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			})
		})
	}
}

func BenchmarkRefCovScan(b *testing.B) {
	const n, l, excl = 4096, 64, 16
	s := n - l + 1
	cov, df, dg, nrm := covInputs(testSeries(n, 9), l)
	corr, idx := freshSlots(s)
	b.ReportAllocs()
	b.SetBytes(int64(8 * (s - excl) * (s - excl) / 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < s; j++ {
			corr[j] = math.Inf(-1)
			idx[j] = -1
		}
		RefCovScan(cov, df, dg, nrm, excl, s, s, corr, idx)
	}
}

// BenchmarkArgmaxCorr times one row scan at ℓ = 64 over 8 129 cells on
// every tier, reported per scanned cell. "row" is testSeries' row of
// anchor 0 with [100, 132) excluded, so the anchor's own cell at j = 0 is
// the first maximum; "mid" is a random walk's row of anchor 0 outside its
// exclusion zone, with the anchor's window planted at the middle of the
// row, so the first maximum lies mid-row — a recompute's case. Each scans
// for the maximum alone (ArgmaxCorr) and with a refill list of capacity 11
// (RowScan, the default P = 10 and the next key), emptied before each
// scan.
func BenchmarkArgmaxCorr(b *testing.B) {
	const n, l = 8192, 64
	s := n - l + 1
	mid := randomWalk(n, 9)
	copy(mid[s/2:s/2+l], mid[:l])
	for _, in := range []struct {
		name   string
		ts     []float64
		e1, j2 int
	}{{"row", testSeries(n, 9), 100, 132}, {"mid", mid, -15, 16}} {
		means, invs := moments(in.ts, l)
		row := make([]float64, s)
		for j := range row {
			row[j] = series.Dot(in.ts[0:l], in.ts[j:j+l])
		}
		cells := s - (min(in.j2, s) - max(in.e1, 0))
		for _, c := range []int{0, 11} {
			name := in.name + "/argmax"
			if c > 0 {
				name = fmt.Sprintf("%s/list%d", in.name, c)
			}
			b.Run(name, func(b *testing.B) {
				forEachVariantB(b, func(b *testing.B) {
					var top *TopLists
					if c > 0 {
						top = NewTopLists(1, c)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if top != nil {
							top.Reset(1)
						}
						sinkCorr, sinkJ = RowScan(row, means, invs, in.e1, in.j2, s, 1.0/l, means[0], invs[0], math.Inf(-1), -1, top)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
				})
			})
		}
	}
}

func BenchmarkRefArgmaxCorr(b *testing.B) {
	ts, _, means, invs, s := benchSetup(8192, 64)
	row := make([]float64, s)
	for j := range row {
		row[j] = series.Dot(ts[0:l64], ts[j:j+l64])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCorr, sinkJ = RefArgmaxCorr(row, means, invs, 100, 132, s, 1.0/64, means[0], invs[0], math.Inf(-1), -1)
	}
}

const l64 = 64

var (
	sinkCorr float64
	sinkJ    int
)

// BenchmarkDotRow times one dot-product row from scratch, reported in
// µs per row: "direct" is DotRow on every tier, "fft" the correlator row
// the engine takes above the direct row's cutover — Dots, and DotsPair
// per row (two rows per transform, the recompute path's packing). The
// FFT row does not depend on l below the padded size, so it runs once
// per n, at l = 512.
func BenchmarkDotRow(b *testing.B) {
	for _, n := range []int{5000, 20000, 50000} {
		ts := randomWalk(n, 12)
		for _, l := range []int{64, 263, 512} {
			s := n - l + 1
			row := make([]float64, s)
			b.Run(fmt.Sprintf("direct/n=%d/l=%d", n, l), func(b *testing.B) {
				forEachVariantB(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						x := (i * 97) % s
						DotRow(row, ts, ts[x:x+l], s)
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/row")
				})
			})
		}
		const l = 512
		s := n - l + 1
		corr := fft.NewCorrelator(ts, l)
		row1, row2 := make([]float64, s), make([]float64, s)
		b.Run(fmt.Sprintf("fft/n=%d/Dots", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := (i * 97) % s
				corr.Dots(ts[x:x+l], row1)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/row")
		})
		b.Run(fmt.Sprintf("fft/n=%d/DotsPair", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := (i * 97) % (s - 1)
				corr.DotsPair(ts[x:x+l], ts[x+1:x+1+l], row1, row2)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(2*b.N), "µs/row")
		})
		corr.Release()
	}
}

func BenchmarkRowNext(b *testing.B) {
	forEachVariantB(b, func(b *testing.B) {
		ts, head, _, _, s := benchSetup(8192, 64)
		row := append([]float64(nil), head...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RowNext(row, ts, 1+(i&7), 64, s)
		}
	})
}
