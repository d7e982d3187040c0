package series

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestStatsAppendBitIdentical grows a Stats value in random chunks and
// asserts the result is bit-identical to a fresh NewStats over the same
// prefix at every step — the property the streaming engine's moment
// equality rests on — and so is a Stats Reset to that prefix from a
// longer series, as a sliding window's eviction does.
func TestStatsAppendBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 500
	x := make([]float64, n)
	v := 0.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
	}
	// Constant stretches, chunk boundaries falling inside them, give the
	// run starts something to carry across Appends.
	for i := 100; i < 160; i++ {
		x[i] = 4.25
	}
	for i := 300; i < 303; i++ {
		x[i] = x[299]
	}

	st := NewStats(nil)
	reset := NewStats(x)
	pos := 0
	for pos < n {
		chunk := 1 + rng.Intn(40)
		if pos+chunk > n {
			chunk = n - pos
		}
		st.Append(x[pos : pos+chunk])
		pos += chunk
		want := NewStats(x[:pos])
		assertStatsIdentical(t, fmt.Sprintf("append to %d", pos), st, want)
		reset.Reset(x[:pos])
		assertStatsIdentical(t, fmt.Sprintf("reset to %d", pos), reset, want)
	}
}

func assertStatsIdentical(t *testing.T, tag string, got, want *Stats) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N=%d, want %d", tag, got.N(), want.N())
	}
	for i := 0; i <= want.N(); i++ {
		if math.Float64bits(got.cum[i]) != math.Float64bits(want.cum[i]) ||
			math.Float64bits(got.cumSq[i]) != math.Float64bits(want.cumSq[i]) {
			t.Fatalf("%s: sums diverge at i=%d: (%v,%v) vs (%v,%v)",
				tag, i, got.cum[i], got.cumSq[i], want.cum[i], want.cumSq[i])
		}
	}
	for i := 0; i < want.N(); i++ {
		if got.runStart[i] != want.runStart[i] {
			t.Fatalf("%s: run start of x[%d] is %d, want %d", tag, i, got.runStart[i], want.runStart[i])
		}
	}
}

// TestStatsConstantWindowsExactZero: a window of one repeated value has
// σ = 0 exactly from Var, Std and MeanStd, although the cumulative sums
// alone leave some such windows a σ > 0 from cancellation; a window that
// straddles the stretch's edge keeps its σ > 0.
func TestStatsConstantWindowsExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 600
	x := make([]float64, n)
	v := 50.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
	}
	const lo, hi = 200, 260
	for i := lo; i < hi; i++ {
		x[i] = 47.3 // no short binary expansion, so the sums round
	}
	st := NewStats(x)
	cancelled := 0
	for m := 1; m <= 24; m++ {
		for i := lo; i+m <= hi; i++ {
			if v := st.SumSq(i, m)/float64(m) - st.Mean(i, m)*st.Mean(i, m); m > 1 && v > 0 {
				cancelled++
			}
			if _, sd := st.MeanStd(i, m); sd != 0 {
				t.Fatalf("m=%d i=%d: MeanStd σ = %g on a constant window", m, i, sd)
			}
			if st.Var(i, m) != 0 || st.Std(i, m) != 0 {
				t.Fatalf("m=%d i=%d: Var %g, Std %g on a constant window", m, i, st.Var(i, m), st.Std(i, m))
			}
		}
		if m > 1 {
			for _, i := range []int{lo - 1, hi - m + 1} {
				if _, sd := st.MeanStd(i, m); sd == 0 {
					t.Fatalf("m=%d i=%d: window straddling the stretch's edge has σ = 0", m, i)
				}
			}
		}
	}
	if cancelled == 0 {
		t.Fatal("test setup: the sums give every constant window σ = 0 on their own")
	}
}
