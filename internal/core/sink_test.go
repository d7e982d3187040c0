package core

// Tests for the sink pipeline: the discord sink against a from-scratch
// brute-force baseline, bit-identical discords at every worker count, and
// the invariant that registering a FullProfile sink does not change the
// pairs/VALMAP outputs the TopKPairs plan produces.

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// bruteDiscords recomputes the exact variable-length discords from
// scratch: per length, every offset's NN distance by direct z-normalized
// comparison (no FFT, no recurrences), then the documented extraction —
// per-length top-k with trivial-match de-dup, cross-length greedy
// selection by length-normalized distance under the
// |I−I'| < ⌈max(L,L')/factor⌉ exclusion.
func bruteDiscords(x []float64, lmin, lmax, k, factor int) []Discord {
	var cands []Discord
	for l := lmin; l <= lmax; l++ {
		s := len(x) - l + 1
		excl := profile.ExclusionZone(l, factor)
		if s <= excl {
			continue
		}
		// Exact per-offset NN distances, the slow way.
		type cand struct {
			i int
			d float64
		}
		var perLen []cand
		for i := 0; i < s; i++ {
			best := math.Inf(1)
			found := false
			for j := 0; j < s; j++ {
				if j > i-excl && j < i+excl {
					continue
				}
				if d := series.ZNormDist(x[i:i+l], x[j:j+l]); d < best {
					best = d
					found = true
				}
			}
			if found {
				perLen = append(perLen, cand{i, best})
			}
		}
		// Per-length top-k discords: largest NN distance first, offset
		// ascending on ties, de-duplicated by the per-length zone.
		sort.Slice(perLen, func(a, b int) bool {
			if perLen[a].d != perLen[b].d {
				return perLen[a].d > perLen[b].d
			}
			return perLen[a].i < perLen[b].i
		})
		var used []int
		for _, c := range perLen {
			if len(used) >= k {
				break
			}
			skip := false
			for _, u := range used {
				if abs(c.i-u) < excl {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			used = append(used, c.i)
			cands = append(cands, Discord{I: c.i, L: l, Dist: c.d})
		}
	}
	// Cross-length selection, same total order as the sink.
	sort.Slice(cands, func(a, b int) bool {
		da, db := cands[a].NormDist(), cands[b].NormDist()
		if da != db {
			return da > db
		}
		if cands[a].L != cands[b].L {
			return cands[a].L < cands[b].L
		}
		return cands[a].I < cands[b].I
	})
	var out []Discord
	for _, c := range cands {
		if len(out) >= k {
			break
		}
		trivial := false
		for _, u := range out {
			lz := c.L
			if u.L > lz {
				lz = u.L
			}
			if abs(c.I-u.I) < profile.ExclusionZone(lz, factor) {
				trivial = true
				break
			}
		}
		if !trivial {
			out = append(out, c)
		}
	}
	return out
}

// TestDiscordSinkMatchesBruteForce: the discord sink must reproduce the
// brute-force baseline — same (offset, length) discords in the same
// order, distances within floating tolerance — at every worker count.
func TestDiscordSinkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := randWalk(rng, 260)
	const lmin, lmax, k = 8, 24, 3
	want := bruteDiscords(x, lmin, lmax, k, profile.DefaultExclusionFactor)
	if len(want) == 0 {
		t.Fatal("brute force found no discords — test series too small")
	}
	for _, w := range []int{1, 2, 3, 8} {
		res, err := Run(x, Config{LMin: lmin, LMax: lmax, TopK: 2, Discords: k, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Discords
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d discords, brute force %d\n got: %v\nwant: %v",
				w, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].I != want[i].I || got[i].L != want[i].L {
				t.Fatalf("workers=%d discord %d: (i=%d,l=%d), brute force (i=%d,l=%d)",
					w, i, got[i].I, got[i].L, want[i].I, want[i].L)
			}
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
				t.Fatalf("workers=%d discord %d: dist %g, brute force %g",
					w, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// TestDiscordsBitIdenticalAcrossWorkers: the full-profile pass runs on
// the seed's fixed block grid, so discord output must be byte-for-byte
// identical — not merely tolerance-equal — at every worker count.
func TestDiscordsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := randWalk(rng, 1100)
	var results [][]Discord
	for _, w := range []int{1, 2, 4, 7} {
		res, err := Run(x, Config{LMin: 12, LMax: 48, TopK: 3, Discords: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res.Discords)
	}
	base := results[0]
	if len(base) == 0 {
		t.Fatal("no discords found")
	}
	for ri, ds := range results[1:] {
		if len(ds) != len(base) {
			t.Fatalf("variant %d: %d discords vs %d", ri, len(ds), len(base))
		}
		for i := range ds {
			if ds[i] != base[i] {
				t.Fatalf("variant %d discord %d: %+v vs %+v", ri, i, ds[i], base[i])
			}
		}
	}
}

// TestFullProfilePlanKeepsPairsAndVALMAP: registering the FullProfile
// discord sink switches the length plan, but pairs and VALMAP must stay
// equivalent to the pruned TopKPairs plan (same pair sets within
// floating tolerance — the two plans take different arithmetic paths).
func TestFullProfilePlanKeepsPairsAndVALMAP(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := randWalk(rng, 500)
	pruned, err := Run(x, Config{LMin: 10, LMax: 30, TopK: 2, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(x, Config{LMin: 10, LMax: 30, TopK: 2, P: 4, Discords: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.PerLength) != len(full.PerLength) {
		t.Fatalf("length counts differ: %d vs %d", len(pruned.PerLength), len(full.PerLength))
	}
	for li := range pruned.PerLength {
		a, b := pruned.PerLength[li], full.PerLength[li]
		if len(a.Pairs) != len(b.Pairs) {
			t.Fatalf("m=%d: %d pairs vs %d", a.M, len(a.Pairs), len(b.Pairs))
		}
		for pi := range a.Pairs {
			if math.Abs(a.Pairs[pi].Dist-b.Pairs[pi].Dist) > 1e-9*(1+a.Pairs[pi].Dist) {
				t.Fatalf("m=%d pair %d: %v vs %v", a.M, pi, a.Pairs[pi], b.Pairs[pi])
			}
		}
	}
	for i := range pruned.VMap.MPn {
		if math.Abs(pruned.VMap.MPn[i]-full.VMap.MPn[i]) > 1e-9*(1+pruned.VMap.MPn[i]) &&
			!(math.IsInf(pruned.VMap.MPn[i], 1) && math.IsInf(full.VMap.MPn[i], 1)) {
			t.Fatalf("VALMAP slot %d: %g vs %g", i, pruned.VMap.MPn[i], full.VMap.MPn[i])
		}
	}
}

// TestRunSinksCustomSink: an external TopKPairs sink plugs into the
// pipeline and sees every length in order with the pairs the Result
// reports; the ℓmin profile is delivered regardless of requirements.
func TestRunSinksCustomSink(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    []float64
		cfg  Config
	}{
		{"default", sineMix(400), Config{LMin: 12, LMax: 24, TopK: 2}},
		// Pinned to the pruned pass with a microscopic recompute budget,
		// every length that needs a recompute falls back to a seed sweep.
		{"fallbacks", randWalk(rand.New(rand.NewSource(12)), 400),
			Config{LMin: 12, LMax: 24, TopK: 2, RecomputeFraction: 1e-9, pinPruned: true}},
	} {
		var seen []LengthData
		collect := &collectSink{out: &seen}
		if err := NewEngine().RunSinks(context.Background(), tc.x, tc.cfg, collect); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 24-12+1 {
			t.Fatalf("%s: %d lengths delivered, want %d", tc.name, len(seen), 24-12+1)
		}
		if seen[0].Profile == nil {
			t.Fatalf("%s: ℓmin profile not delivered", tc.name)
		}
		// A profile comes with exactly the lengths a whole-profile pass
		// resolved: the seed, fixpoint fallbacks and latched lengths.
		wholeAfterSeed := 0
		for i, ld := range seen {
			if ld.L != 12+i {
				t.Fatalf("%s: delivery %d: length %d, want %d", tc.name, i, ld.L, 12+i)
			}
			if (ld.Profile != nil) != ld.Result.Stats.FullRecompute {
				t.Fatalf("%s: length %d: profile present=%v with FullRecompute=%v",
					tc.name, ld.L, ld.Profile != nil, ld.Result.Stats.FullRecompute)
			}
			if i > 0 && ld.Profile != nil {
				wholeAfterSeed++
				if ld.Profile.M != ld.L {
					t.Fatalf("%s: length %d delivered the profile of length %d", tc.name, ld.L, ld.Profile.M)
				}
			}
		}
		if tc.cfg.pinPruned && wholeAfterSeed == 0 {
			t.Fatalf("%s: no length after the seed fell back", tc.name)
		}
	}
}

type collectSink struct{ out *[]LengthData }

func (*collectSink) Requires() Requirement { return TopKPairs }
func (c *collectSink) Consume(ld LengthData) {
	// Result.Pairs is engine scratch, valid only during Consume: copy.
	ld.Result.Pairs = append([]profile.MotifPair(nil), ld.Result.Pairs...)
	*c.out = append(*c.out, ld)
}
