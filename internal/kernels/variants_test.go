package kernels

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/seriesmining/valmod/internal/series"
)

// forEachVariant runs f once per available dispatch tier as a subtest, so
// every parity assertion certifies every reachable dispatch path (on
// amd64 with AVX2 that is generic and avx2, plus avx512 with AVX-512F).
// The active tier is restored afterwards.
func forEachVariant(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	orig := Active()
	defer func() {
		if err := SetVariant(orig); err != nil {
			t.Fatalf("restore variant %v: %v", orig, err)
		}
	}()
	for _, v := range Available() {
		if err := SetVariant(v); err != nil {
			t.Fatalf("SetVariant(%v): %v", v, err)
		}
		t.Run(v.String(), f)
	}
}

// forEachVariantB is forEachVariant for benchmarks: one sub-benchmark per
// dispatch tier, so `go test -bench` reports the tiers side by side.
func forEachVariantB(b *testing.B, f func(b *testing.B)) {
	b.Helper()
	orig := Active()
	defer func() {
		if err := SetVariant(orig); err != nil {
			b.Fatalf("restore variant %v: %v", orig, err)
		}
	}()
	for _, v := range Available() {
		if err := SetVariant(v); err != nil {
			b.Fatalf("SetVariant(%v): %v", v, err)
		}
		b.Run(v.String(), f)
	}
}

// allVariants is the plain-loop form for fuzz targets, where t.Run is not
// permitted: f runs once per available tier with that tier active and its
// Variant passed for failure messages. The active tier is restored.
func allVariants(t *testing.T, f func(v Variant)) {
	t.Helper()
	orig := Active()
	defer func() {
		if err := SetVariant(orig); err != nil {
			t.Fatalf("restore variant %v: %v", orig, err)
		}
	}()
	for _, v := range Available() {
		if err := SetVariant(v); err != nil {
			t.Fatalf("SetVariant(%v): %v", v, err)
		}
		f(v)
	}
}

// fuzzSeries builds a series with fuzz-controlled degeneracy: a seeded
// random walk with up to two constant segments (σ = 0 windows) whose
// placement, including flush against either edge, comes from the fuzz
// input, plus a planted exact repeat for correlation ties.
func fuzzSeries(n int, seed int64, segA, segB uint8) []float64 {
	rng := rand.New(rand.NewSource(seed))
	t := make([]float64, n)
	v := 0.0
	for i := range t {
		v += rng.NormFloat64()
		t[i] = v
	}
	if segA&1 != 0 {
		start, end := int(segA)%n, int(segA)%n+n/6
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			t[i] = 3.25
		}
	}
	if segB&1 != 0 {
		start := n - 1 - int(segB)%(n/2+1)
		if start < 0 {
			start = 0
		}
		for i := start; i < n; i++ {
			t[i] = -1.5
		}
	}
	if n >= 24 {
		copy(t[n/2:n/2+n/12], t[n/8:n/8+n/12])
	}
	return t
}

// FuzzKernelParity drives every dispatch tier of every kernel against its
// Ref* baseline on fuzz-chosen series sizes, lengths, anchors and
// degenerate-segment placements, asserting bit-identity. kernel % 7 picks
// the kernel and kernel / 7 a case's own variations. DotRow shares
// ExtendRow's case: the row it writes is the row ExtendRow extends. Random sizes
// exercise the unroll and vector-width remainders; random anchors
// exercise edge-clipped exclusion zones.
func FuzzKernelParity(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(257), uint8(31), uint8(3), uint8(7), uint8(1))
	f.Add(int64(3), uint16(500), uint8(63), uint8(129), uint8(255), uint8(2))
	f.Add(int64(4), uint16(100), uint8(8), uint8(1), uint8(1), uint8(3))
	f.Add(int64(5), uint16(333), uint8(16), uint8(0), uint8(9), uint8(4))
	f.Add(int64(6), uint16(1000), uint8(40), uint8(200), uint8(0), uint8(5))
	f.Add(int64(7), uint16(96), uint8(5), uint8(11), uint8(33), uint8(7))
	f.Add(int64(8), uint16(770), uint8(50), uint8(77), uint8(128), uint8(8))
	f.Add(int64(500), uint16(611), uint8(20), uint8(6), uint8(2), uint8(11))
	f.Add(int64(900), uint16(1100), uint8(61), uint8(3), uint8(6), uint8(18))
	f.Add(int64(3666), uint16(1410), uint8(26), uint8(94), uint8(56), uint8(4))
	// CovScan blocks of 17–48 diagonals (16-diagonal groups, alone and
	// with quad and single remainders) into slots warmed after, over and
	// before them; the last two put σ = 0 ties where a group's first lane
	// (slot i) or last lane (slot j) decides, so only c ≥ slot flags them.
	f.Add(int64(11), uint16(640), uint8(20), uint8(129), uint8(16), uint8(10))
	f.Add(int64(12), uint16(900), uint8(33), uint8(7), uint8(35), uint8(24))
	f.Add(int64(13), uint16(1150), uint8(30), uint8(200), uint8(47), uint8(255))
	f.Add(int64(14), uint16(300), uint8(10), uint8(65), uint8(20), uint8(17))
	f.Add(int64(700), uint16(800), uint8(25), uint8(1), uint8(33), uint8(31))
	f.Add(int64(200), uint16(968), uint8(17), uint8(101), uint8(40), uint8(143))
	f.Add(int64(55), uint16(968), uint8(17), uint8(101), uint8(47), uint8(143))
	// DotRow rows of 17–31 cells (under one 32-cell block), of an exact
	// multiple of 32, and with 8-, 16- and 32-cell remainders, some
	// crossing σ = 0 stretches, each extended by ExtendRow.
	f.Add(int64(21), uint16(10), uint8(15), uint8(0), uint8(0), uint8(2))
	f.Add(int64(22), uint16(62), uint8(6), uint8(3), uint8(1), uint8(9))
	f.Add(int64(23), uint16(98), uint8(32), uint8(5), uint8(0), uint8(16))
	f.Add(int64(24), uint16(453), uint8(50), uint8(9), uint8(11), uint8(23))
	f.Add(int64(25), uint16(1167), uint8(61), uint8(131), uint8(201), uint8(30))
	// SeedScan second blocks of one 16-diagonal group alone (16), with a
	// single (17), with a quad and a single (21), two groups with three
	// singles (35) and three groups (48).
	f.Add(int64(31), uint16(700), uint8(30), uint8(4), uint8(15), uint8(5))
	f.Add(int64(32), uint16(1000), uint8(21), uint8(10), uint8(16), uint8(12))
	f.Add(int64(33), uint16(420), uint8(12), uint8(2), uint8(20), uint8(19))
	f.Add(int64(34), uint16(1180), uint8(45), uint8(131), uint8(34), uint8(26))
	f.Add(int64(35), uint16(850), uint8(8), uint8(99), uint8(47), uint8(33))
	// RowScan into an empty list and full ones keyed 0 (every σ = 0
	// candidate ties Thr), 1/8, 3/8 and 1, from a fresh best and from one
	// that must survive a tie; the last two anchors sit flush against
	// either edge.
	f.Add(int64(41), uint16(400), uint8(13), uint8(4), uint8(0), uint8(6))
	f.Add(int64(42), uint16(700), uint8(20), uint8(1), uint8(1), uint8(13))
	f.Add(int64(43), uint16(257), uint8(9), uint8(10), uint8(7), uint8(13))
	f.Add(int64(44), uint16(900), uint8(31), uint8(3), uint8(17), uint8(20))
	f.Add(int64(0), uint16(333), uint8(16), uint8(6), uint8(1), uint8(27))
	f.Add(int64(346), uint16(333), uint8(16), uint8(2), uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, lRaw, segA, segB, kernel uint8) {
		n := 32 + int(nRaw)%1200
		l := 3 + int(lRaw)%62
		if l > n/2 {
			l = n / 2
		}
		s := n - l + 1
		ts := fuzzSeries(n, seed, segA, segB)
		means, invs := moments(ts, l)
		invFl := 1 / float64(l)
		excl := (l + 3) / 4
		if excl < 1 {
			excl = 1
		}
		anchor := int(seed&0x7fffffff) % s

		switch kernel % 7 {
		case 0: // RowNext
			row0 := make([]float64, s)
			for j := range row0 {
				row0[j] = series.Dot(ts[0:l], ts[j:j+l])
			}
			i := 1 + anchor%s
			if i >= s {
				i = s - 1
			}
			if i < 1 {
				return
			}
			want := append([]float64(nil), row0...)
			RefRowNext(want, ts, i, l, s)
			allVariants(t, func(v Variant) {
				got := append([]float64(nil), row0...)
				RowNext(got, ts, i, l, s)
				if !bitsEqual(got, want) {
					t.Fatalf("%v: RowNext(n=%d l=%d i=%d) diverges from reference", v, n, l, i)
				}
			})
		case 1: // ArgmaxCorr with an edge-clippable exclusion zone
			i := anchor
			row := make([]float64, s)
			for j := range row {
				row[j] = series.Dot(ts[i:i+l], ts[j:j+l])
			}
			muA, invA := means[i], invs[i]
			if invA == 0 {
				invA = 1
			}
			e1, j2 := i-excl+1, i+excl
			wc, wj := RefArgmaxCorr(row, means, invs, e1, j2, s, invFl, muA, invA, math.Inf(-1), -1)
			allVariants(t, func(v Variant) {
				gc, gj := ArgmaxCorr(row, means, invs, e1, j2, s, invFl, muA, invA, math.Inf(-1), -1)
				if math.Float64bits(gc) != math.Float64bits(wc) || gj != wj {
					t.Fatalf("%v: ArgmaxCorr(n=%d l=%d i=%d): (%v,%d) != reference (%v,%d)", v, n, l, i, gc, gj, wc, wj)
				}
			})
		case 2: // DotRow, then ExtendRow from it, single- and multi-step
			cur := l
			newL := l + 1 + int(segA)%12
			if newL > n {
				newL = n
			}
			i := anchor % (n - newL + 1)
			row0 := make([]float64, n-cur+1)
			RefDotRow(row0, ts, ts[i:i+cur], len(row0))
			want := append([]float64(nil), row0...)
			RefExtendRow(want, ts, i, cur, newL)
			// The extended row is the direct row at newL: a hot row that
			// entered the cache as a DotRow stays one.
			sNew := n - newL + 1
			direct := make([]float64, sNew)
			RefDotRow(direct, ts, ts[i:i+newL], sNew)
			if !bitsEqual(want[:sNew], direct) {
				t.Fatalf("ExtendRow(n=%d i=%d cur=%d l=%d) from a direct row is not the direct row", n, i, cur, newL)
			}
			allVariants(t, func(v Variant) {
				got := make([]float64, len(row0))
				DotRow(got, ts, ts[i:i+cur], len(row0))
				if !bitsEqual(got, row0) {
					t.Fatalf("%v: DotRow(n=%d i=%d l=%d) diverges from reference", v, n, i, cur)
				}
				ExtendRow(got, ts, i, cur, newL)
				if !bitsEqual(got, want) {
					t.Fatalf("%v: ExtendRow(n=%d i=%d cur=%d l=%d) diverges from reference", v, n, i, cur, newL)
				}
			})
		case 3: // CovScan over a fuzz-chosen diagonal block into warm slots
			if excl >= s {
				return
			}
			cov, df, dg, nrm := covInputs(ts, l)
			k0 := excl + anchor%(s-excl)
			k1 := k0 + 1 + int(segB)%48
			if k1 > s {
				k1 = s
			}
			// Both sides' slots are first warmed by a second fuzz-chosen
			// block — one diagonal up to the whole range, before, over or
			// after [k0, k1) — through the reference, so the vector bodies
			// run through rows where no lane reaches a slot and stop with
			// partial lane masks, and σ = 0 ties meet recorded neighbors
			// on both sides.
			w0 := excl + int(segA)*(s-excl)/256
			w1 := w0 + 1 + int(kernel/7)*(s-excl)/42
			if w1 > s {
				w1 = s
			}
			warm := func() ([]float64, []int32) {
				c, ix := freshSlots(s)
				RefCovScan(cov, df, dg, nrm, w0, w1, s, c, ix)
				return c, ix
			}
			wc, wi := warm()
			RefCovScan(cov, df, dg, nrm, k0, k1, s, wc, wi)
			allVariants(t, func(v Variant) {
				gc, gi := warm()
				CovScan(cov, df, dg, nrm, k0, k1, s, gc, gi)
				if err := slotsEqual(gc, gi, wc, wi); err != "" {
					t.Fatalf("%v: CovScan(n=%d l=%d k=[%d,%d) warm=[%d,%d)) %s", v, n, l, k0, k1, w0, w1, err)
				}
			})
		case 4: // ColScan into warm slots, with a seeded best and planted ties
			j := 1 + anchor%s
			if j >= s {
				j = s - 1
			}
			colAt := func(c int) []float64 {
				col := make([]float64, s)
				for i := range col {
					col[i] = series.Dot(ts[i:i+l], ts[c:c+l])
				}
				return col
			}
			// Warm-up columns spread over the series, before and after j,
			// fill the slots with real winners — so the avx2 body runs
			// through groups where no lane reaches its slot — and record
			// neighbors on both sides of j.
			warm := make([]int, 1+int(segA>>1)%4)
			warmCols := make([][]float64, len(warm))
			stride := (s-1)/(len(warm)+1) + int(segB)
			for x := range warm {
				warm[x] = 1 + (j+(x+1)*stride)%(s-1)
				warmCols[x] = colAt(warm[x])
			}
			col := colAt(j)
			iEnd := j - excl + 1
			muJ, invJ := means[j], invs[j]
			cellCorr := func(i int) float64 { return (col[i]*invFl - means[i]*muJ) * invs[i] * invJ }
			// The running best starts fresh, at an exact tie with a
			// fuzz-chosen cell (the seed must survive the tie), or at the
			// column's maximum (nothing may replace it).
			bestC, bestI := math.Inf(-1), int32(-1)
			if iEnd > 0 {
				switch kernel / 7 % 3 {
				case 1:
					bestC, bestI = cellCorr(anchor%iEnd), int32(s)
				case 2:
					for i := 0; i < iEnd; i++ {
						bestC = math.Max(bestC, cellCorr(i))
					}
					bestI = int32(s)
				}
			}
			run := func(ref bool) (c []float64, ix []int32, bests []float64, bestIdx []int32) {
				scan := ColScan
				if ref {
					scan = RefColScan
				}
				c, ix = freshSlots(s)
				for x, w := range warm {
					bc, bi := scan(warmCols[x], means, invs, w-excl+1, invFl, means[w], invs[w], c, ix, int32(w), math.Inf(-1), -1)
					bests, bestIdx = append(bests, bc), append(bestIdx, bi)
				}
				// Exact ties with column j on every p-th slot, alternately
				// recorded with a neighbor above j (the tie must take j) and
				// below it (the tie must keep the slot).
				if segB&2 != 0 {
					p := 1 + int(segA)%5
					for i := 0; i < iEnd; i += p {
						nb := int32(j + 1)
						if (i/p)%2 == 1 {
							nb = int32(j - 1)
						}
						c[i], ix[i] = cellCorr(i), nb
					}
				}
				bc, bi := scan(col, means, invs, iEnd, invFl, muJ, invJ, c, ix, int32(j), bestC, bestI)
				return c, ix, append(bests, bc), append(bestIdx, bi)
			}
			wc, wi, wb, wbi := run(true)
			allVariants(t, func(v Variant) {
				gc, gi, gb, gbi := run(false)
				if !bitsEqual(gb, wb) || !slices.Equal(gbi, wbi) {
					t.Fatalf("%v: ColScan(n=%d l=%d j=%d warm=%v) bests (%v,%v) != reference (%v,%v)", v, n, l, j, warm, gb, gbi, wb, wbi)
				}
				if err := slotsEqual(gc, gi, wc, wi); err != "" {
					t.Fatalf("%v: ColScan(n=%d l=%d j=%d warm=%v) %s", v, n, l, j, warm, err)
				}
			})
		case 5: // SeedScan over two fuzz-chosen blocks into shared lists
			if excl >= s {
				return
			}
			head := make([]float64, s)
			for k := range head {
				head[k] = series.Dot(ts[0:l], ts[k:k+l])
			}
			c := 1 + int(segA)%12
			// The second block, up to 48 diagonals, runs whole 16-diagonal
			// groups and a remainder into the slots and lists the first
			// one filled.
			k0 := excl + anchor%(s-excl)
			k1 := k0 + 1 + int(segB)%48
			if k1 > s {
				k1 = s
			}
			wc, wi := freshSlots(s)
			want := NewTopLists(s, c)
			RefSeedScan(ts, head, means, invs, excl, k0, l, s, wc, wi, want)
			RefSeedScan(ts, head, means, invs, k0, k1, l, s, wc, wi, want)
			allVariants(t, func(v Variant) {
				gc, gi := freshSlots(s)
				got := NewTopLists(s, c)
				SeedScan(ts, head, means, invs, excl, k0, l, s, gc, gi, got)
				SeedScan(ts, head, means, invs, k0, k1, l, s, gc, gi, got)
				if err := slotsEqual(gc, gi, wc, wi); err != "" {
					t.Fatalf("%v: SeedScan(n=%d l=%d k=[%d,%d)) %s", v, n, l, k0, k1, err)
				}
				if err := topListsEqual(got, want); err != "" {
					t.Fatalf("%v: SeedScan(n=%d l=%d k=[%d,%d) cap=%d) %s", v, n, l, k0, k1, c, err)
				}
			})
		case 6: // RowScan: a recompute's row scan with its refill list
			i := anchor
			row := make([]float64, s)
			for j := range row {
				row[j] = series.Dot(ts[i:i+l], ts[j:j+l])
			}
			muA, invA := means[i], invs[i]
			if invA == 0 {
				invA = 1
			}
			e1, j2 := i-excl+1, i+excl
			corrAt := func(j int) float64 { return (row[j]*invFl - muA*means[j]) * invA * invs[j] }
			// The list starts empty or full, at offsets past the row, of a
			// fuzz-chosen key on a 1/8 grid (0 ties the σ = 0 candidates);
			// the running best starts fresh or tied with a fuzz-chosen
			// cell, a tie it must survive.
			c := 1 + int(segA)%12
			fresh := func() *TopLists {
				top := NewTopLists(1, c)
				if segB&1 != 0 {
					for x := 0; x < c; x++ {
						top.Offer(0, int32(s+x), float64(x), float64(int(segB>>1)%9)/8)
					}
				}
				return top
			}
			bc, bj := math.Inf(-1), -1
			if kernel/7%2 == 1 {
				bc, bj = corrAt(int(segA)*s/256), s
			}
			want := fresh()
			wc, wj := RefRowScan(row, means, invs, e1, j2, s, invFl, muA, invA, bc, bj, want)
			allVariants(t, func(v Variant) {
				got := fresh()
				gc, gj := RowScan(row, means, invs, e1, j2, s, invFl, muA, invA, bc, bj, got)
				if math.Float64bits(gc) != math.Float64bits(wc) || gj != wj {
					t.Fatalf("%v: RowScan(n=%d l=%d i=%d cap=%d): (%v,%d) != reference (%v,%d)", v, n, l, i, c, gc, gj, wc, wj)
				}
				if err := topListsEqual(got, want); err != "" {
					t.Fatalf("%v: RowScan(n=%d l=%d i=%d cap=%d) %s", v, n, l, i, c, err)
				}
			})
		}
	})
}
