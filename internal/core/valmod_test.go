package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
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

// sineMix builds structured data with motifs at several scales.
func sineMix(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		f := float64(i)
		x[i] = math.Sin(f*0.21) + 0.5*math.Sin(f*0.043) + 0.2*math.Sin(f*0.009)
	}
	return x
}

// referencePairs computes the exact top-k pairs at one length via STOMP.
func referencePairs(t *testing.T, x []float64, m, k, exclFactor int) []profile.MotifPair {
	t.Helper()
	mp, err := stomp.Compute(x, m, exclFactor)
	if err != nil {
		t.Fatal(err)
	}
	return mp.TopKPairs(k)
}

// assertPairsEquivalent compares two top-k pair lists: same cardinality and
// pairwise-equal distances within floating tolerance. Offsets are compared
// only for the best pair (later pairs may legally differ under exact
// distance ties).
func assertPairsEquivalent(t *testing.T, tag string, got, want []profile.MotifPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d pairs, want %d\n got: %v\nwant: %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
			t.Fatalf("%s: pair %d dist %g, want %g", tag, i, got[i].Dist, want[i].Dist)
		}
	}
	if len(got) > 0 {
		g, w := got[0], want[0]
		if g.A != w.A || g.B != w.B {
			// Allow a true tie: distances equal within tolerance already
			// checked; verify the reference profile agrees the distance at
			// got's offsets equals want's distance.
			if math.Abs(g.Dist-w.Dist) > 1e-9*(1+w.Dist) {
				t.Fatalf("%s: best pair (%d,%d), want (%d,%d)", tag, g.A, g.B, w.A, w.B)
			}
		}
	}
}

func TestRunExactOnRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randWalk(rng, 400)
	cfg := Config{LMin: 8, LMax: 48, TopK: 3, P: 5}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLength) != 48-8+1 {
		t.Fatalf("per-length count %d", len(res.PerLength))
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 3, 0)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want)
	}
}

func TestRunExactOnStructuredData(t *testing.T) {
	x := sineMix(600)
	cfg := Config{LMin: 16, LMax: 80, TopK: 2, P: 8}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 2, 0)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want)
	}
}

func TestRunExactWithPlantedMotifs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 800
	x := randWalk(rng, n)
	// Plant two scales of motif: short at (100, 400), long at (200, 600).
	for i := 0; i < 24; i++ {
		v := math.Sin(float64(i) * 0.5)
		x[100+i] = v*8 + 1
		x[400+i] = v*8 + 1 + rng.NormFloat64()*0.01
	}
	for i := 0; i < 64; i++ {
		v := math.Sin(float64(i)*0.2) + 0.7*math.Cos(float64(i)*0.05)
		x[200+i] = v*9 - 2
		x[600+i] = v*9 - 2 + rng.NormFloat64()*0.01
	}
	cfg := Config{LMin: 16, LMax: 64, TopK: 1, P: 6}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 1, 0)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want)
	}
	// The length-24 result must land on planted structure: either the short
	// pair (100,400) or a window pair inside the long planted regions,
	// which match each other equally well at this length (spacing 400).
	lr24, ok := res.ResultOfLength(24)
	if !ok || len(lr24.Pairs) == 0 {
		t.Fatal("no result at length 24")
	}
	p := lr24.Pairs[0]
	shortHit := nearInt(p.A, 100, 2) && nearInt(p.B, 400, 2)
	longHit := p.B-p.A == 400 && p.A >= 198 && p.A+24 <= 266
	if !shortHit && !longHit {
		t.Errorf("length-24 motif = %v, want planted structure", p)
	}
	// The length-64 result must recover the long planted pair.
	lr64, _ := res.ResultOfLength(64)
	p = lr64.Pairs[0]
	if !(nearInt(p.A, 200, 2) && nearInt(p.B, 600, 2)) {
		t.Errorf("length-64 motif = %v, want ~(200,600)", p)
	}
}

func TestDisablePruningSameAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randWalk(rng, 300)
	base := Config{LMin: 10, LMax: 30, TopK: 2, P: 4, pinPruned: true}
	ablated := base
	ablated.DisablePruning = true
	a, err := Run(x, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(x, ablated)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerLength {
		assertPairsEquivalent(t, a.PerLength[i].StatsTag(), a.PerLength[i].Pairs, b.PerLength[i].Pairs)
	}
	for _, lr := range b.PerLength {
		if !lr.Stats.FullRecompute {
			t.Fatal("DisablePruning must full-recompute every length")
		}
	}
}

func TestSmallPStillExact(t *testing.T) {
	// P=1 certifies almost nothing; correctness must survive via recompute
	// (pinned to the pruned pass, which the cost model would leave early).
	rng := rand.New(rand.NewSource(4))
	x := randWalk(rng, 250)
	res, err := Run(x, Config{LMin: 8, LMax: 24, TopK: 2, P: 1, pinPruned: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 2, 0)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want)
	}
}

func TestVALMAPInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randWalk(rng, 400)
	cfg := Config{LMin: 10, LMax: 40, TopK: 5, P: 6}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm := res.VMap
	if vm.Len() != len(x)-cfg.LMin+1 {
		t.Fatalf("VALMAP size %d", vm.Len())
	}
	for i := 0; i < vm.Len(); i++ {
		if vm.IP[i] < 0 {
			continue
		}
		if vm.LP[i] < cfg.LMin || vm.LP[i] > cfg.LMax {
			t.Fatalf("LP[%d] = %d outside range", i, vm.LP[i])
		}
		// MPn must never exceed the initial (ℓmin) normalized profile value.
		init := series.LengthNormalize(res.MPMin.Dist[i], cfg.LMin)
		if vm.MPn[i] > init+1e-9 {
			t.Fatalf("MPn[%d] = %g worse than initial %g", i, vm.MPn[i], init)
		}
		// The recorded pair really has that normalized distance at LP.
		l, j := vm.LP[i], vm.IP[i]
		d := series.ZNormDist(x[i:i+l], x[j:j+l])
		if math.Abs(series.LengthNormalize(d, l)-vm.MPn[i]) > 1e-6*(1+vm.MPn[i]) {
			t.Fatalf("MPn[%d] = %g but recomputed %g (l=%d j=%d)", i, vm.MPn[i], series.LengthNormalize(d, l), l, j)
		}
	}
	// Checkpoints are in increasing length order.
	prev := 0
	for _, cp := range vm.Checkpoints {
		if cp.L <= prev {
			t.Fatalf("checkpoint order violated: %d after %d", cp.L, prev)
		}
		prev = cp.L
	}
}

func TestGlobalBest(t *testing.T) {
	x := sineMix(500)
	res, err := Run(x, Config{LMin: 16, LMax: 48, TopK: 2, P: 6})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.GlobalBest()
	if !ok {
		t.Fatal("no global best")
	}
	// Must equal the minimum normalized distance over all reported pairs.
	want := math.Inf(1)
	for _, lr := range res.PerLength {
		for _, p := range lr.Pairs {
			if nd := p.NormDist(); nd < want {
				want = nd
			}
		}
	}
	if math.Abs(best.NormDist()-want) > 1e-12 {
		t.Errorf("GlobalBest norm %g, want %g", best.NormDist(), want)
	}
}

func TestConfigValidation(t *testing.T) {
	x := make([]float64, 100)
	if _, err := Run(x, Config{LMin: 2, LMax: 10}); err == nil {
		t.Error("LMin too small should fail")
	}
	if _, err := Run(x, Config{LMin: 20, LMax: 10}); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := Run(x, Config{LMin: 10, LMax: 200}); err == nil {
		t.Error("LMax beyond series should fail")
	}
}

func TestDefaultsFilled(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randWalk(rng, 120)
	res, err := Run(x, Config{LMin: 8, LMax: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cfg.TopK != DefaultTopK || res.Cfg.P != DefaultP {
		t.Errorf("defaults not filled: %+v", res.Cfg)
	}
	if res.Cfg.RecomputeFraction != DefaultRecomputeFraction {
		t.Errorf("recompute fraction default: %v", res.Cfg.RecomputeFraction)
	}
}

func TestLengthNearSeriesEnd(t *testing.T) {
	// LMax = n/2+something: lengths where few subsequences remain must not
	// panic and must report empty or tiny pair lists consistently.
	rng := rand.New(rand.NewSource(7))
	x := randWalk(rng, 64)
	res, err := Run(x, Config{LMin: 8, LMax: 60, TopK: 2, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLength {
		want := referencePairs(t, x, lr.M, 2, 0)
		if len(lr.Pairs) != len(want) {
			t.Fatalf("m=%d: %d pairs, reference %d", lr.M, len(lr.Pairs), len(want))
		}
	}
}

func TestResultOfLength(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randWalk(rng, 120)
	res, err := Run(x, Config{LMin: 8, LMax: 16})
	if err != nil {
		t.Fatal(err)
	}
	if lr, ok := res.ResultOfLength(12); !ok || lr.M != 12 {
		t.Errorf("ResultOfLength(12) = %v %v", lr.M, ok)
	}
	if _, ok := res.ResultOfLength(7); ok {
		t.Error("length below range should miss")
	}
	if _, ok := res.ResultOfLength(17); ok {
		t.Error("length above range should miss")
	}
}

func TestStatsAccounting(t *testing.T) {
	x := sineMix(500)
	res, err := Run(x, Config{LMin: 16, LMax: 48, TopK: 2, P: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	if s.Lengths != 33 {
		t.Errorf("lengths = %d", s.Lengths)
	}
	if s.CertifiedAnchors+s.RecomputedAnchors == 0 && s.FullRecomputes == 0 {
		t.Error("stats are all zero; instrumentation broken")
	}
}

func nearInt(x, target, tol int) bool {
	d := x - target
	if d < 0 {
		d = -d
	}
	return d <= tol
}
