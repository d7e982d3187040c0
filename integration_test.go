package valmod_test

// Cross-module integration tests exercising the full public pipeline the
// way the CLI tools and a downstream user would, plus a property-based
// fuzz of Discover exactness over random shapes and configurations.

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/stomp"
	"github.com/seriesmining/valmod/internal/valmap"
)

// TestDiscoverFuzzExactness is the suite's widest net: random generators,
// random ranges, random knobs — every length's best distance must equal
// STOMP's.
func TestDiscoverFuzzExactness(t *testing.T) {
	names := gen.Names()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := names[rng.Intn(len(names))]
		n := rng.Intn(400) + 200
		s, err := gen.Dataset(ds, n, seed)
		if err != nil {
			return false
		}
		lmin := rng.Intn(12) + 4
		lmax := lmin + rng.Intn(24) + 1
		if lmax > n/3 {
			lmax = n / 3
		}
		if lmax < lmin {
			return true // degenerate draw, skip
		}
		opts := valmod.Options{
			TopK: rng.Intn(3) + 1,
			P:    rng.Intn(8) + 1,
		}
		res, err := valmod.Discover(s.Values, lmin, lmax, opts)
		if err != nil {
			t.Logf("seed %d (%s n=%d [%d,%d]): %v", seed, ds, n, lmin, lmax, err)
			return false
		}
		for _, lr := range res.PerLength {
			mp, err := stomp.Compute(s.Values, lr.Length, 0)
			if err != nil {
				return false
			}
			want := mp.TopKPairs(1)
			if len(want) == 0 {
				if len(lr.Pairs) != 0 {
					t.Logf("seed %d m=%d: got pairs where none exist", seed, lr.Length)
					return false
				}
				continue
			}
			if len(lr.Pairs) == 0 {
				t.Logf("seed %d m=%d: missing pairs", seed, lr.Length)
				return false
			}
			if math.Abs(lr.Pairs[0].Distance-want[0].Dist) > 1e-5*(1+want[0].Dist) {
				t.Logf("seed %d (%s n=%d [%d,%d] k=%d p=%d) m=%d: %g want %g",
					seed, ds, n, lmin, lmax, opts.TopK, opts.P, lr.Length, lr.Pairs[0].Distance, want[0].Dist)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPipelineDiscoverExportView replays the valmod → valmod-view data
// flow: discover, export VALMAP JSON, reload, walk the checkpoints.
func TestPipelineDiscoverExportView(t *testing.T) {
	s := gen.ECG(2500, 9)
	res, err := valmod.Discover(s.Values, 40, 90, valmod.Options{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.VALMAP.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	vm, err := valmap.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded VALMAP replays to the same final state.
	mpn, ip, lp, err := vm.StateAt(90)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mpn {
		if mpn[i] != res.VALMAP.MPn[i] || ip[i] != res.VALMAP.IP[i] || lp[i] != res.VALMAP.LP[i] {
			t.Fatalf("reloaded state diverges at slot %d", i)
		}
	}
	// Walking two checkpoints must show monotone improvement.
	cps := res.VALMAP.Checkpoints()
	if len(cps) >= 2 {
		early, _, _, err := vm.StateAt(cps[0])
		if err != nil {
			t.Fatal(err)
		}
		late, _, _, err := vm.StateAt(cps[len(cps)-1])
		if err != nil {
			t.Fatal(err)
		}
		improved := 0
		for i := range early {
			if late[i] < early[i] {
				improved++
			}
			if late[i] > early[i]+1e-12 {
				t.Fatalf("slot %d regressed between checkpoints", i)
			}
		}
		if improved == 0 {
			t.Error("no slot improved between first and last checkpoint")
		}
	}
}

// TestJoinProfilePublicAPI checks the AB-join through the facade.
func TestJoinProfilePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := make([]float64, 400)
	b := make([]float64, 500)
	v := 0.0
	for i := range a {
		v += rng.NormFloat64()
		a[i] = v
	}
	v = 0
	for i := range b {
		v += rng.NormFloat64()
		b[i] = v
	}
	m := 32
	for i := 0; i < m; i++ {
		w := math.Sin(float64(i) * 0.3)
		a[100+i] = w * 7
		b[350+i] = w*7 + rng.NormFloat64()*0.001
	}
	fp, err := valmod.JoinProfile(a, b, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Dist) != len(a)-m+1 {
		t.Fatalf("join profile length %d", len(fp.Dist))
	}
	best, bestI := math.Inf(1), -1
	for i, d := range fp.Dist {
		if d < best {
			best, bestI = d, i
		}
	}
	if bestI < 98 || bestI > 102 || fp.Index[bestI] < 348 || fp.Index[bestI] > 352 {
		t.Errorf("join best at (%d,%d), want ~(100,350)", bestI, fp.Index[bestI])
	}
	if _, err := valmod.JoinProfile(a, b[:10], m); err == nil {
		t.Error("short b should fail")
	}
}

// TestJoinProfileTopPairs: when b is the longer series, an AB-join
// profile's neighbors are offsets into b past the profile's own slots.
// TopPairs must handle them and equal a full sort of the same profile
// under the same de-duplication.
func TestJoinProfileTopPairs(t *testing.T) {
	const m = 64
	a, b := gen.ECG(600, 1).Values, gen.ECG(3000, 1).Values
	fp, err := valmod.JoinProfile(a, b, m)
	if err != nil {
		t.Fatal(err)
	}
	s := len(fp.Dist)
	if slices.Max(fp.Index) < s {
		t.Fatalf("no neighbor at or past the %d slots: the case is not exercised", s)
	}
	order := make([]int, s)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(fp.Dist[x], fp.Dist[y]) })
	zone := (m + 3) / 4 // FixedProfile's trivial-match zone, ⌈m/4⌉
	for _, k := range []int{1, 5, s} {
		var want []valmod.MotifPair
		var used []int
		for _, i := range order {
			if len(want) == k {
				break
			}
			j := fp.Index[i]
			if j < 0 || math.IsInf(fp.Dist[i], 1) || slices.ContainsFunc(used, func(u int) bool {
				return abs(i-u) < zone || abs(j-u) < zone
			}) {
				continue
			}
			want = append(want, valmod.MotifPair{A: min(i, j), B: max(i, j), Length: m,
				Distance: fp.Dist[i], NormDistance: fp.Dist[i] * math.Sqrt(1/float64(m))})
			used = append(used, i, j)
		}
		if got := fp.TopPairs(k); !slices.Equal(got, want) {
			t.Fatalf("k=%d: TopPairs\n got %v\nwant %v", k, got, want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestMotifSetConsistentWithTopMotifs: expanding each top motif must
// include both of its own members.
func TestMotifSetConsistentWithTopMotifs(t *testing.T) {
	s := gen.EPG(4000, 2)
	res, err := valmod.Discover(s.Values, 40, 80, valmod.Options{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.TopMotifs(3) {
		set, err := res.MotifSet(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		foundA, foundB := false, false
		for _, mm := range set {
			if mm.Offset == m.A {
				foundA = true
			}
			if mm.Offset == m.B {
				foundB = true
			}
		}
		if !foundA || !foundB {
			t.Errorf("motif %v: members missing from its own set", m)
		}
	}
}
