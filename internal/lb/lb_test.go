package lb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/series"
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

// qTildeFor computes q̃ for anchor i, candidate j at base length l.
func qTildeFor(t []float64, st *series.Stats, i, j, l int) float64 {
	qtL := series.Dot(t[i:i+l], t[j:j+l])
	muB, sdB := st.MeanStd(j, l)
	return QTilde(qtL, st.Sum(i, l), muB, sdB)
}

// TestBoundSoundness is the load-bearing property: LB(i,j,ℓ+k) must never
// exceed the true z-normalized distance, for any anchor/candidate/extension.
func TestBoundSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 60
		x := randWalk(rng, n)
		st := series.NewStats(x)
		l := rng.Intn(20) + 4
		maxK := n - l
		for trial := 0; trial < 20; trial++ {
			k := rng.Intn(maxK/2 + 1)
			m := l + k
			if m > n/2 {
				continue
			}
			i := rng.Intn(n - m + 1)
			j := rng.Intn(n - m + 1)
			qt := qTildeFor(x, st, i, j, l)
			terms := NewAnchorTerms(st, i, l, k)
			bound := terms.Bound(qt)
			truth := series.ZNormDist(x[i:i+m], x[j:j+m])
			// Compare squared distances: d = √(2m(1−ρ)) amplifies one ULP
			// of correlation error into ~1e-6 of distance near perfect
			// matches (ρ→1, e.g. i=j), so the distance has no uniform
			// relative tolerance; d² is linear in ρ and does.
			if bound*bound > truth*truth+1e-6*(1+truth*truth) {
				t.Logf("violation: i=%d j=%d l=%d k=%d bound=%g truth=%g", i, j, l, k, bound, truth)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBoundSoundnessStructured repeats the soundness check on structured
// (sinusoidal) data where correlations are high and the bound is tight.
func TestBoundSoundnessStructured(t *testing.T) {
	n := 400
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)*0.17) + 0.3*math.Sin(float64(i)*0.031)
	}
	st := series.NewStats(x)
	l := 16
	for k := 0; k <= 64; k += 8 {
		m := l + k
		for i := 0; i+m <= n; i += 29 {
			for j := 0; j+m <= n; j += 17 {
				qt := qTildeFor(x, st, i, j, l)
				bound := NewAnchorTerms(st, i, l, k).Bound(qt)
				truth := series.ZNormDist(x[i:i+m], x[j:j+m])
				if bound > truth+1e-6*(1+truth) {
					t.Fatalf("violation: i=%d j=%d k=%d bound=%g truth=%g", i, j, k, bound, truth)
				}
			}
		}
	}
}

// TestBoundTightAtKZero: with k=0 and non-negative correlation the bound
// equals the true distance (the derivation collapses to d itself).
func TestBoundTightAtKZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randWalk(rng, 200)
	st := series.NewStats(x)
	l := 24
	for i := 0; i+l <= 200; i += 31 {
		for j := 0; j+l <= 200; j += 13 {
			ai, aj := x[i:i+l], x[j:j+l]
			muA, sdA := series.MeanStdTwoPass(ai)
			muB, sdB := series.MeanStdTwoPass(aj)
			if sdA == 0 || sdB == 0 {
				continue
			}
			rho := series.CorrFromDot(series.Dot(ai, aj), float64(l), muA, sdA, muB, sdB)
			if rho < 0 {
				continue
			}
			qt := qTildeFor(x, st, i, j, l)
			bound := NewAnchorTerms(st, i, l, 0).Bound(qt)
			truth := series.ZNormDist(ai, aj)
			if math.Abs(bound-truth) > 1e-6*(1+truth) {
				t.Fatalf("k=0 not tight: i=%d j=%d bound=%g truth=%g rho=%g", i, j, bound, truth, rho)
			}
		}
	}
}

// TestRankPreservation: ordering candidates by q̃² descending must equal
// ordering by LB ascending, at every extension k.
func TestRankPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randWalk(rng, 300)
	st := series.NewStats(x)
	l, i := 16, 40
	cands := []int{0, 10, 25, 70, 99, 130, 180, 220, 260}
	for _, k := range []int{1, 5, 20, 60} {
		terms := NewAnchorTerms(st, i, l, k)
		type pair struct{ q2, lb float64 }
		ps := make([]pair, len(cands))
		for c, j := range cands {
			qt := qTildeFor(x, st, i, j, l)
			ps[c] = pair{qt * qt, terms.Bound(qt)}
		}
		byQ2 := append([]pair(nil), ps...)
		sort.Slice(byQ2, func(a, b int) bool { return byQ2[a].q2 > byQ2[b].q2 })
		for c := 1; c < len(byQ2); c++ {
			if byQ2[c-1].lb > byQ2[c].lb+1e-12 {
				t.Fatalf("k=%d: q̃² order violates LB order: %v then %v", k, byQ2[c-1], byQ2[c])
			}
		}
	}
}

// TestBoundMonotoneInQTilde: for one anchor, LB is non-increasing in |q̃|.
func TestBoundMonotoneInQTilde(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randWalk(rng, 150)
	st := series.NewStats(x)
	terms := NewAnchorTerms(st, 10, 12, 8)
	prev := math.Inf(1)
	for q := 0.0; q < 50; q += 2.5 {
		b := terms.Bound(q)
		if b > prev+1e-12 {
			t.Fatalf("bound increased with |q̃|: %g → %g at q=%g", prev, b, q)
		}
		prev = b
	}
}

func TestDegenerateAnchor(t *testing.T) {
	x := make([]float64, 50) // all zeros: every window constant
	st := series.NewStats(x)
	terms := NewAnchorTerms(st, 0, 8, 4)
	if b := terms.Bound(3); b != 0 {
		t.Errorf("degenerate anchor bound = %g, want 0 (trivially valid)", b)
	}
}

func TestDegenerateCandidate(t *testing.T) {
	// Candidate head constant: q̃ = 0, and the bound must still be sound.
	rng := rand.New(rand.NewSource(6))
	x := randWalk(rng, 100)
	for i := 30; i < 40; i++ {
		x[i] = 7 // flat candidate head at j=30, l=8
	}
	st := series.NewStats(x)
	l, k := 8, 6
	i, j := 0, 30
	muB, sdB := st.MeanStd(j, l)
	if sdB != 0 {
		t.Fatal("test setup: candidate head should be constant")
	}
	qt := QTilde(series.Dot(x[i:i+l], x[j:j+l]), st.Sum(i, l), muB, sdB)
	if qt != 0 {
		t.Errorf("degenerate candidate q̃ = %g, want 0", qt)
	}
	bound := NewAnchorTerms(st, i, l, k).Bound(qt)
	truth := series.ZNormDist(x[i:i+l+k], x[j:j+l+k])
	if bound > truth+1e-9 {
		t.Errorf("degenerate candidate bound %g exceeds truth %g", bound, truth)
	}
}

// TestEntryAdvance: a retained entry's dot product at length ℓ, advanced
// one length step by kernels.AdvanceDot, is the direct dot product at ℓ+1
// (summed in the same ascending order).
func TestEntryAdvance(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	i, j, l := 0, 3, 3
	got := kernels.AdvanceDot(series.Dot(x[i:i+l], x[j:j+l]), x, i, j, l, l+1)
	if want := series.Dot(x[i:i+l+1], x[j:j+l+1]); got != want {
		t.Errorf("advanced QT = %g, want %g", got, want)
	}
}

// TestMaxLB: the largest lower bound among retained entries is the bound
// at the smallest q̃², whatever the entries' signs and order, and the
// engine, which keeps keys as q̃², recovers it as Bound(√q̃²).
func TestMaxLB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randWalk(rng, 200)
	st := series.NewStats(x)
	i, l, k := 5, 10, 15
	terms := NewAnchorTerms(st, i, l, k)
	qs := []float64{30, -2, 11} // smallest |q̃| → largest LB
	maxLB := math.Inf(-1)
	for _, q := range qs {
		maxLB = math.Max(maxLB, terms.Bound(q))
	}
	want := terms.Bound(2)
	if math.Abs(maxLB-want) > 1e-12 {
		t.Errorf("max LB = %g, want %g", maxLB, want)
	}
	if got := terms.Bound(math.Sqrt(qs[1] * qs[1])); got != maxLB {
		t.Errorf("bound from the key q̃² = %g, max LB %g", got, maxLB)
	}
}

// TestMaxLBCoversUnkept ties the certification threshold to its semantic
// claim: given the p candidates with largest q̃², every other candidate's
// true distance at the extended length is at least the bound at the best
// unkept key — the threshold the engine certifies with — which is itself
// at least the bound at the worst kept key.
func TestMaxLBCoversUnkept(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randWalk(rng, 250)
	st := series.NewStats(x)
	i, l, k, p := 17, 12, 9, 5
	m := l + k
	sCur := len(x) - m + 1
	type cand struct {
		j  int
		q2 float64
	}
	var all []cand
	for j := 0; j < sCur; j++ {
		if j > i-3 && j < i+3 {
			continue
		}
		qt := qTildeFor(x, st, i, j, l)
		all = append(all, cand{j, qt * qt})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].q2 > all[b].q2 })
	terms := NewAnchorTerms(st, i, l, k)
	worstLB := terms.Bound(math.Sqrt(all[p-1].q2))
	maxLB := terms.Bound(math.Sqrt(all[p].q2))
	if maxLB < worstLB {
		t.Fatalf("bound from the best unkept key %g below the bound from the worst kept key %g", maxLB, worstLB)
	}
	for _, c := range all[p:] {
		truth := series.ZNormDist(x[i:i+m], x[c.j:c.j+m])
		if truth < maxLB-1e-7*(1+maxLB) {
			t.Fatalf("unkept candidate j=%d has d=%g < maxLB=%g", c.j, truth, maxLB)
		}
	}
}
