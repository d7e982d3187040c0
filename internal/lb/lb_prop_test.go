package lb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/series"
)

// propSeries returns the two datasets the pruned pass leans on the bound
// for: the ECG generator (structured, high correlations) and a
// generated random walk with a planted constant segment (σ = 0 windows).
func propSeries(n int, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	walk := randWalk(rng, n)
	for i := n / 3; i < n/3+n/10 && i < n; i++ {
		walk[i] = 4.25
	}
	return map[string][]float64{
		"ecg":       gen.ECG(n, seed).Values,
		"generated": walk,
	}
}

// TestRankPreservationLargeK: the property the pruned pass's
// retained-entry machinery relies on across long planner gaps — ordering
// candidates by q̃² descending equals ordering by LB ascending — must hold
// at extensions far beyond the base length (k up to ~10ℓ), on ECG and on
// degenerate-window data, for every candidate of the row (σ = 0 candidates
// included: their q̃ is 0, so they sort last by q̃² and must carry the
// largest bound).
func TestRankPreservationLargeK(t *testing.T) {
	for name, x := range propSeries(600, 21) {
		st := series.NewStats(x)
		l := 16
		for _, i := range []int{0, 37, 190} {
			for _, k := range []int{1, 10, 50, 200} {
				m := l + k
				sExt := len(x) - m + 1
				if i >= sExt {
					continue
				}
				terms := NewAnchorTerms(st, i, l, k)
				type pair struct {
					j      int
					q2, lb float64
				}
				var ps []pair
				for j := 0; j < sExt; j += 3 {
					qt := qTildeFor(x, st, i, j, l)
					ps = append(ps, pair{j, qt * qt, terms.Bound(qt)})
				}
				sort.Slice(ps, func(a, b int) bool { return ps[a].q2 > ps[b].q2 })
				for c := 1; c < len(ps); c++ {
					if ps[c-1].lb > ps[c].lb+1e-12 {
						t.Fatalf("%s i=%d k=%d: q̃² order violates LB order: j=%d (q2=%g lb=%g) before j=%d (q2=%g lb=%g)",
							name, i, k, ps[c-1].j, ps[c-1].q2, ps[c-1].lb, ps[c].j, ps[c].q2, ps[c].lb)
					}
				}
			}
		}
	}
}

// TestBoundSoundnessLargeKProperty: randomized soundness at large-k
// extensions over both datasets — LB(i,j,ℓ+k) never exceeds the true
// distance, σ = 0 anchors and candidates included.
func TestBoundSoundnessLargeKProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for name, x := range propSeries(500, seed) {
			st := series.NewStats(x)
			l := rng.Intn(24) + 4
			for trial := 0; trial < 12; trial++ {
				k := l * (1 + rng.Intn(10)) // large-k regime: k ∈ [ℓ, 10ℓ]
				m := l + k
				sExt := len(x) - m + 1
				if sExt < 2 {
					continue
				}
				i, j := rng.Intn(sExt), rng.Intn(sExt)
				qt := qTildeFor(x, st, i, j, l)
				bound := NewAnchorTerms(st, i, l, k).Bound(qt)
				truth := series.ZNormDist(x[i:i+m], x[j:j+m])
				if bound*bound > truth*truth+1e-6*(1+truth*truth) {
					t.Logf("%s: i=%d j=%d l=%d k=%d bound=%g truth=%g", name, i, j, l, k, bound, truth)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRankPreservationSigmaZeroWindows pins the σ = 0 conventions the rank
// order depends on: a degenerate candidate head yields q̃ = 0 (never a NaN
// or an Inf), a degenerate anchor collapses every bound to 0, and mixing
// degenerate candidates into a row cannot break the q̃²/LB duality.
func TestRankPreservationSigmaZeroWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randWalk(rng, 300)
	for i := 120; i < 170; i++ {
		x[i] = -1.5 // σ = 0 at every window inside, at any l ≤ 50
	}
	st := series.NewStats(x)
	l, i, k := 12, 20, 60
	terms := NewAnchorTerms(st, i, l, k)
	degBound := math.Inf(-1)
	var maxBound float64
	for j := 0; j+l+k <= len(x); j++ {
		_, sd := st.MeanStd(j, l)
		qt := qTildeFor(x, st, i, j, l)
		b := terms.Bound(qt)
		if math.IsNaN(qt) || math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("j=%d: non-finite q̃=%g or bound=%g", j, qt, b)
		}
		if sd == 0 {
			if qt != 0 {
				t.Fatalf("degenerate candidate j=%d: q̃ = %g, want 0", j, qt)
			}
			degBound = b
		}
		if b > maxBound {
			maxBound = b
		}
	}
	if degBound == math.Inf(-1) {
		t.Fatal("test setup: no degenerate candidate window visited")
	}
	// q̃ = 0 is the row's q̃² minimum, so by rank preservation its bound is
	// the row's maximum.
	if degBound < maxBound-1e-12 {
		t.Fatalf("degenerate candidate bound %g below row max %g", degBound, maxBound)
	}
}
