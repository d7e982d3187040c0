package stomp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/seriesmining/valmod/internal/profile"
)

func randWalk(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	v := 0.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
	}
	return x
}

func profilesMatch(t *testing.T, got, want *profile.MatrixProfile, tag string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d want %d", tag, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Dist[i], want.Dist[i]
		if math.IsInf(g, 1) != math.IsInf(w, 1) {
			t.Fatalf("%s: i=%d inf mismatch %g vs %g", tag, i, g, w)
		}
		if !math.IsInf(g, 1) && math.Abs(g-w) > 1e-6*(1+w) {
			t.Fatalf("%s: i=%d dist %g want %g", tag, i, g, w)
		}
	}
}

func TestComputeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ n, m int }{{64, 8}, {128, 16}, {200, 10}, {100, 50}} {
		x := randWalk(rng, c.n)
		got, err := Compute(x, c.m, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Brute(x, c.m, 0)
		if err != nil {
			t.Fatal(err)
		}
		profilesMatch(t, got, want, "compute-vs-brute")
	}
}

func TestComputeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randWalk(rng, 400)
	serial, err := Compute(x, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		par, err := ComputeParallel(x, 20, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		profilesMatch(t, par, serial, "parallel")
	}
}

func TestComputeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(120) + 30
		m := rng.Intn(n/3) + 4
		x := randWalk(rng, n)
		got, err := Compute(x, m, 0)
		if err != nil {
			return false
		}
		want, err := Brute(x, m, 0)
		if err != nil {
			return false
		}
		for i := 0; i < got.Len(); i++ {
			g, w := got.Dist[i], want.Dist[i]
			if math.IsInf(g, 1) != math.IsInf(w, 1) {
				return false
			}
			if !math.IsInf(g, 1) && math.Abs(g-w) > 1e-5*(1+w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSelfJoinSymmetryInvariant(t *testing.T) {
	// The motif pair (i, MP.Index[i]) at the global minimum must be mutual
	// within distance equality: dist[i] == dist[index[i]] at the minimum.
	rng := rand.New(rand.NewSource(5))
	x := randWalk(rng, 300)
	mp, err := Compute(x, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, i := mp.Min()
	j := mp.Index[i]
	if math.Abs(mp.Dist[j]-d) > 1e-9*(1+d) {
		t.Errorf("global motif not mutual: d[i]=%g d[j]=%g", d, mp.Dist[j])
	}
}

func TestValidation(t *testing.T) {
	x := make([]float64, 10)
	if _, err := Compute(x, 1, 0); err == nil {
		t.Error("m=1 should fail")
	}
	if _, err := Compute(x, 11, 0); err == nil {
		t.Error("m>n should fail")
	}
	if _, err := ComputeParallel(x, 0, 0, 2); err == nil {
		t.Error("m=0 should fail")
	}
}

func TestNoPairsWhenTooShort(t *testing.T) {
	// s <= excl: profile exists but is all +Inf / -1.
	x := randWalk(rand.New(rand.NewSource(6)), 20)
	mp, err := Compute(x, 16, 0) // s=5, excl=4 → only j-i=4 allowed... s>excl so pairs exist
	if err != nil {
		t.Fatal(err)
	}
	_ = mp
	mp2, err := Compute(x[:18], 16, 0) // s=3, excl=4 → no pairs
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mp2.Len(); i++ {
		if mp2.Index[i] != -1 {
			t.Fatalf("expected empty profile, got index %d at %d", mp2.Index[i], i)
		}
	}
}

func TestPlantedMotifIsFound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, m := 500, 32
	x := randWalk(rng, n)
	// Plant a near-identical pattern at offsets 50 and 300.
	pattern := make([]float64, m)
	for i := range pattern {
		pattern[i] = math.Sin(float64(i) * 0.4)
	}
	for i := 0; i < m; i++ {
		x[50+i] = pattern[i]*10 + 3
		x[300+i] = pattern[i]*10 + 3 + rng.NormFloat64()*0.001
	}
	mp, err := Compute(x, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := mp.TopKPairs(1)
	if len(pairs) != 1 {
		t.Fatal("no motif found")
	}
	p := pairs[0]
	if !(near(p.A, 50, 2) && near(p.B, 300, 2)) {
		t.Errorf("motif pair = %v, want ~(50,300)", p)
	}
}

func near(x, target, tol int) bool {
	d := x - target
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func BenchmarkComputeN2000M64(b *testing.B) {
	x := randWalk(rand.New(rand.NewSource(8)), 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(x, 64, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeParallelN2000M64(b *testing.B) {
	x := randWalk(rand.New(rand.NewSource(9)), 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeParallel(x, 64, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExtendDiagonalHeadMatchesSeed: the extend path (cross-length FMA
// recurrence) must agree with the seed path (a fresh FFT) at the target
// length, and the profile built from the extended head must match the
// one built from a fresh seed.
func TestExtendDiagonalHeadMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randWalk(rng, 400)
	const m0, m1 = 16, 40
	head, err := DiagonalHead(x, m0)
	if err != nil {
		t.Fatal(err)
	}
	head, err = ExtendDiagonalHead(head, x, m0, m1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := DiagonalHead(x, m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != len(fresh) {
		t.Fatalf("extended head has %d cells, fresh seed %d", len(head), len(fresh))
	}
	for k := range fresh {
		if math.Abs(head[k]-fresh[k]) > 1e-6*(1+math.Abs(fresh[k])) {
			t.Fatalf("k=%d: extended %g, fresh %g", k, head[k], fresh[k])
		}
	}
	got, err := ComputeFromHead(x, m1, 0, head)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compute(x, m1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Dist {
		if math.Abs(got.Dist[i]-want.Dist[i]) > 1e-6*(1+want.Dist[i]) {
			t.Fatalf("i=%d: dist %g from extended head, %g from fresh seed", i, got.Dist[i], want.Dist[i])
		}
	}
}

// TestExtendDiagonalHeadValidation: the extend path rejects shrinking
// targets, undersized heads and out-of-range lengths.
func TestExtendDiagonalHeadValidation(t *testing.T) {
	x := randWalk(rand.New(rand.NewSource(22)), 64)
	head, err := DiagonalHead(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtendDiagonalHead(head, x, 8, 6); err == nil {
		t.Error("shrinking extension accepted")
	}
	if _, err := ExtendDiagonalHead(head[:10], x, 8, 12); err == nil {
		t.Error("undersized head accepted")
	}
	if _, err := ExtendDiagonalHead(head, x, 8, len(x)+1); err == nil {
		t.Error("target length beyond the series accepted")
	}
	if _, err := ComputeFromHead(x, 12, 0, head[:10]); err == nil {
		t.Error("ComputeFromHead accepted an undersized head")
	}
}
