package kernels

import (
	"math"
	"testing"

	"github.com/seriesmining/valmod/internal/series"
)

func toF32(t []float64) []float32 {
	out := make([]float32, len(t))
	for i, v := range t {
		out[i] = float32(v)
	}
	return out
}

func bits32Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestKernelParityExtendRow32(t *testing.T) { forEachVariant(t, testKernelParityExtendRow32) }

func testKernelParityExtendRow32(t *testing.T) {
	const n = 512
	ts := toF32(testSeries(n, 12))
	for _, tc := range []struct{ i, cur, l int }{
		{0, 8, 9},
		{0, 8, 20},
		{5, 16, 17},
		{5, 16, 31},
		{2, 500, 510},
		{3, 12, 12},
	} {
		row0 := make([]float32, n-tc.cur+1)
		for j := range row0 {
			sum := 0.0
			for p := 0; p < tc.cur; p++ {
				sum += float64(ts[tc.i+p]) * float64(ts[j+p])
			}
			row0[j] = float32(sum)
		}
		got := append([]float32(nil), row0...)
		want := append([]float32(nil), row0...)
		ExtendRow32(got, ts, tc.i, tc.cur, tc.l)
		RefExtendRow32(want, ts, tc.i, tc.cur, tc.l)
		if !bits32Equal(got, want) {
			t.Fatalf("i=%d cur=%d l=%d: ExtendRow32 diverges from reference", tc.i, tc.cur, tc.l)
		}
	}
}

func TestKernelParityDiagScan32(t *testing.T) { forEachVariant(t, testKernelParityDiagScan32) }

func testKernelParityDiagScan32(t *testing.T) {
	for _, n := range []int{120, 493, 1000} {
		ts64 := testSeries(n, 13)
		ts := toF32(ts64)
		for _, l := range []int{8, 21} {
			s := n - l + 1
			means, invs := moments(ts64, l)
			head := make([]float32, s)
			for k := range head {
				sum := 0.0
				for p := 0; p < l; p++ {
					sum += float64(ts[p]) * float64(ts[k+p])
				}
				head[k] = float32(sum)
			}
			excl := (l + 3) / 4
			splits := [][2]int{{excl, s}, {excl, excl + 1}, {excl, excl + 5}, {s - 3, s}, {s - 1, s}}
			for _, sp := range splits {
				k0, k1 := sp[0], sp[1]
				if k0 < excl || k1 > s || k0 >= k1 {
					continue
				}
				gc := make([]float64, s)
				gi := make([]int32, s)
				wc := make([]float64, s)
				wi := make([]int32, s)
				for i := 0; i < s; i++ {
					gc[i], wc[i] = math.Inf(-1), math.Inf(-1)
					gi[i], wi[i] = -1, -1
				}
				DiagScan32(ts, head, means, invs, k0, k1, l, s, gc, gi)
				RefDiagScan32(ts, head, means, invs, k0, k1, l, s, wc, wi)
				if !bitsEqual(gc, wc) {
					t.Fatalf("n=%d l=%d k=[%d,%d): DiagScan32 corr diverges", n, l, k0, k1)
				}
				for i := range gi {
					if gi[i] != wi[i] {
						t.Fatalf("n=%d l=%d k=[%d,%d): DiagScan32 idx[%d]=%d != %d", n, l, k0, k1, i, gi[i], wi[i])
					}
				}
			}
		}
	}
}

// TestDiagScan32TracksFloat64 bounds the float32 carry's drift against the
// float64 diagonal pass: with the head and series rounded once to float32,
// the winning correlations must stay within single-precision tolerance
// (the engine's Carry32 contract: trailing digits only).
func TestDiagScan32TracksFloat64(t *testing.T) { forEachVariant(t, testDiagScan32TracksFloat64) }

func testDiagScan32TracksFloat64(t *testing.T) {
	const n, l = 800, 16
	ts64 := testSeries(n, 14)
	ts := toF32(ts64)
	s := n - l + 1
	means, invs := moments(ts64, l)
	head64 := make([]float64, s)
	head32 := make([]float32, s)
	for k := range head64 {
		head64[k] = series.Dot(ts64[0:l], ts64[k:k+l])
		head32[k] = float32(head64[k])
	}
	excl := (l + 3) / 4
	c64 := make([]float64, s)
	i64 := make([]int32, s)
	c32 := make([]float64, s)
	i32 := make([]int32, s)
	for i := 0; i < s; i++ {
		c64[i], c32[i] = math.Inf(-1), math.Inf(-1)
		i64[i], i32[i] = -1, -1
	}
	DiagScan(ts64, head64, means, invs, excl, s, l, s, c64, i64)
	DiagScan32(ts, head32, means, invs, excl, s, l, s, c32, i32)
	for i := 0; i < s; i++ {
		if math.IsInf(c64[i], -1) != math.IsInf(c32[i], -1) {
			t.Fatalf("offset %d: coverage differs (%v vs %v)", i, c64[i], c32[i])
		}
		if math.IsInf(c64[i], -1) {
			continue
		}
		// The f32 scan reads the same f64 moments; the drift comes from the
		// one-time rounding of head and series (relative ~1e-7, amplified
		// along a diagonal chain).
		if d := math.Abs(c64[i] - c32[i]); d > 2e-4 {
			t.Fatalf("offset %d: corr drift %g (f64 %g, f32-carry %g)", i, d, c64[i], c32[i])
		}
	}
}
