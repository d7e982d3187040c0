package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// gridWalk is a random walk on a 1/8 grid. On the grid every cumulative
// sum is exact, so each window inside a planted constant segment has
// σ = 0 exactly — a degenerate anchor and a degenerate (key 0) candidate.
func gridWalk(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	v := 0.0
	for i := range x {
		v += math.Round(rng.NormFloat64()*8) / 8
		x[i] = v
	}
	return x
}

// plant sets x[lo:hi] to the constant v.
func plant(x []float64, lo, hi int, v float64) []float64 {
	for i := lo; i < hi; i++ {
		x[i] = v
	}
	return x
}

// TestSeedPartialProfilesExact checks the seed sweep's partial profiles
// against brute force: for every anchor, the retained entries are the
// top-keep of its row of direct dot products under (q̃² descending, offset
// ascending), keep = min(P, seedKeep), NextQ2 is the next key and bounds
// every unkept one, and Degenerate marks exactly the σ = 0 anchors. Keys
// are compared within 1e-9 of the row's largest key (the recurrence and
// the direct dot products differ in the last bits), so near-ties at the
// keep-th place may swap. The anchors' snapshot must be byte-identical
// at workers 1, 2, 4.
func TestSeedPartialProfilesExact(t *testing.T) {
	type input struct {
		name string
		x    []float64
		l    int
	}
	var inputs []input
	for _, name := range []string{"ecg", "astro", "randomwalk"} {
		ds, err := gen.Dataset(name, 1500, 3)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, ds.Values, 32})
	}
	segments := plant(plant(gridWalk(1500, 4), 500, 650, 2.5), 1375, 1500, -1.25)
	inputs = append(inputs,
		input{"constant segments", segments, 32},
		input{"s <= excl", gridWalk(40, 5), 36},
	)
	for _, in := range inputs {
		cfg := Config{LMin: in.l, LMax: in.l}
		var snap0 []byte
		var mp0 *profile.MatrixProfile
		for _, w := range []int{1, 2, 4} {
			r := newTestRun(t, NewEngine(), in.x, cfg)
			r.workers = w
			mp, err := r.seedAll(in.l)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := encodeFrame(nil, ckptMagic, ckptVersion, (&ckptPayload{store: r.store}).writeAnchors)
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				snap0, mp0 = snap, mp
				degenerate := checkPartialProfiles(t, in.name, r, in.l, min(r.cfg.P, seedKeep), func(int) bool { return true })
				if in.name == "constant segments" && degenerate == 0 {
					t.Fatalf("%s: no σ = 0 anchor at l=%d", in.name, in.l)
				}
				continue
			}
			if !bytes.Equal(snap, snap0) {
				t.Fatalf("%s: anchor snapshot at workers=%d differs from workers=1", in.name, w)
			}
			for i := range mp.Dist {
				if math.Float64bits(mp.Dist[i]) != math.Float64bits(mp0.Dist[i]) || mp.Index[i] != mp0.Index[i] {
					t.Fatalf("%s: profile slot %d at workers=%d differs from workers=1", in.name, i, w)
				}
			}
		}
	}
}

// TestRefillPartialProfilesExact: an anchor a pruned length recomputes
// keeps its P best candidates at its new base length, against brute
// force, with NextQ2 the (P+1)-th key — more than the seed keeps — and
// P = 2, below seedKeep, caps both lists.
func TestRefillPartialProfilesExact(t *testing.T) {
	ds, err := gen.Dataset("ecg", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2} {
		cfg := Config{LMin: 32, LMax: 48, TopK: 5, P: p}
		r := newTestRun(t, NewEngine(), ds.Values, cfg)
		refilled := 0
		for l := cfg.LMin + 1; l <= cfg.LMax && refilled == 0; l++ {
			lr, _, err := r.processLength(l)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Stats.FullRecompute || lr.Stats.Recomputed == 0 {
				continue
			}
			isRefilled := func(i int) bool { return int(r.store.Base[i]) == l }
			s := len(ds.Values) - l + 1
			for i := 0; i < s; i++ {
				if isRefilled(i) {
					refilled++
				}
			}
			checkPartialProfiles(t, "ecg", r, l, r.cfg.P, isRefilled)
		}
		if refilled == 0 {
			t.Fatalf("P=%d: no pruned length recomputed an anchor", p)
		}
	}
}

type bruteCand struct {
	j      int
	qt, q2 float64
	q      float64
}

// checkPartialProfiles compares the partial profile of every anchor with
// base length l that sel selects — keep entries at most — with a
// brute-force row of direct dot products, and returns the number of σ = 0
// anchors it saw. The moment cache must be at l and the entries must hold
// their dot products at l.
func checkPartialProfiles(t *testing.T, name string, r *run, l, keep int, sel func(i int) bool) int {
	t.Helper()
	x := r.t
	s := len(x) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	st := r.store
	degenerate := 0
	for i := 0; i < s; i++ {
		if !sel(i) {
			continue
		}
		if int(st.Base[i]) != l {
			t.Fatalf("%s anchor %d: base %d, want %d", name, i, st.Base[i], l)
		}
		if r.stds[i] == 0 {
			degenerate++
			if !st.Degenerate[i] || st.Len[i] != 0 || st.NextQ2[i] != -1 {
				t.Fatalf("%s anchor %d: σ = 0 but degenerate=%v entries=%d next=%v", name, i, st.Degenerate[i], st.Len[i], st.NextQ2[i])
			}
			continue
		}
		if st.Degenerate[i] {
			t.Fatalf("%s anchor %d: σ = %v but marked degenerate", name, i, r.stds[i])
		}
		sumA := r.st.Sum(i, l)
		var row []bruteCand
		scale := 0.0
		for j := 0; j < s; j++ {
			if j > i-excl && j < i+excl {
				continue
			}
			qt := series.Dot(x[i:i+l], x[j:j+l])
			q := lb.QTilde(qt, sumA, r.means[j], r.stds[j])
			row = append(row, bruteCand{j: j, qt: qt, q2: q * q, q: q})
			scale = math.Max(scale, math.Abs(q))
		}
		sort.Slice(row, func(x, y int) bool {
			if row[x].q2 != row[y].q2 {
				return row[x].q2 > row[y].q2
			}
			return row[x].j < row[y].j
		})
		tol := 1e-9 * scale
		tol2 := 2 * scale * tol
		kept := min(keep, len(row))
		if int(st.Len[i]) != kept {
			t.Fatalf("%s anchor %d: %d entries, want %d", name, i, st.Len[i], kept)
		}
		byJ := make(map[int]bruteCand, len(row))
		rank := make(map[int]int, len(row))
		for k, c := range row {
			byJ[c.j], rank[c.j] = c, k
		}
		isKept := make(map[int]bool, kept)
		for e := i * st.Cap; e < i*st.Cap+kept; e++ {
			c, ok := byJ[int(st.J[e])]
			if !ok {
				t.Fatalf("%s anchor %d: entry %d is not a candidate", name, i, st.J[e])
			}
			isKept[c.j] = true
			if math.Abs(st.QT[e]-c.qt) > 1e-9*math.Max(1, math.Abs(c.qt)) {
				t.Fatalf("%s anchor %d entry %d: qt %v, brute %v", name, i, st.J[e], st.QT[e], c.qt)
			}
			// A retained candidate outside the brute top-keep must tie
			// the keep-th key within tolerance.
			if rank[c.j] >= kept && c.q2 < row[kept-1].q2-tol2 {
				t.Fatalf("%s anchor %d: kept %d at brute rank %d (q̃² %v < keep-th %v)", name, i, c.j, rank[c.j], c.q2, row[kept-1].q2)
			}
		}
		for k := 0; k < kept; k++ {
			if c := row[k]; !isKept[c.j] && kept < len(row) && c.q2 > row[kept].q2+tol2 {
				t.Fatalf("%s anchor %d: dropped %d at brute rank %d (q̃² %v > next %v)", name, i, c.j, k, c.q2, row[kept].q2)
			}
		}
		if len(row) <= keep {
			if st.NextQ2[i] != -1 {
				t.Fatalf("%s anchor %d: every candidate kept, NextQ2 = %v, want -1", name, i, st.NextQ2[i])
			}
			continue
		}
		if math.Abs(st.NextQ2[i]-row[keep].q2) > tol2 {
			t.Fatalf("%s anchor %d: NextQ2 %v, brute next key %v", name, i, st.NextQ2[i], row[keep].q2)
		}
		for _, c := range row {
			if !isKept[c.j] && c.q2 > st.NextQ2[i]+tol2 {
				t.Fatalf("%s anchor %d: unkept %d has q̃² %v above NextQ2 %v", name, i, c.j, c.q2, st.NextQ2[i])
			}
		}
	}
	return degenerate
}

// TestPrunedRecomputesConstantAnchors: a σ = 0 anchor carries no bound,
// so every pruned length recomputes it through the per-anchor row scan,
// whose constant-window branch only such recomputes reach. The pruned
// plan (pinned over the range) stays exact against brute force.
func TestPrunedRecomputesConstantAnchors(t *testing.T) {
	// Few enough constant windows (about 2% of the anchors) that pruned
	// lengths recompute them one run at a time rather than falling back.
	x := plant(gridWalk(1200, 6), 600, 640, 0.75)
	cfg := Config{LMin: 12, LMax: 30, TopK: 3, pinPruned: true}
	res, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rowScans := 0
	for _, lr := range res.PerLength {
		if !lr.Stats.FullRecompute && lr.Stats.Recomputed > 0 {
			rowScans++
		}
		mp, err := stomp.Brute(x, lr.M, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, mp.TopKPairs(cfg.TopK))
	}
	if rowScans == 0 {
		t.Fatal("no pruned length recomputed an anchor")
	}
}

// TestSeedAndRefillMixExact runs the pruned pass pinned over astroWide's
// range, whose lengths mix anchors that keep their seed lists, anchors
// refilled by recomputes (69 lengths recompute) and fallback seed sweeps
// (5), and checks every length's pairs against stomp.Compute, at workers
// 1, 2 and 3 with bit-identical results across them.
func TestSeedAndRefillMixExact(t *testing.T) {
	x, cfg := astroWide(t)
	cfg.pinPruned = true
	var base *Result
	for _, w := range []int{1, 2, 3} {
		c := cfg
		c.Workers = w
		res, err := Run(x, c)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		assertResultsBitIdentical(t, "workers", base, res)
	}
	refills, fallbacks := 0, 0
	for _, lr := range base.PerLength[1:] {
		if lr.Stats.FullRecompute {
			fallbacks++
		} else if lr.Stats.Recomputed > 0 {
			refills++
		}
		mp, err := stomp.Compute(x, lr.M, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, mp.TopKPairs(cfg.TopK))
	}
	if refills == 0 || fallbacks == 0 {
		t.Fatalf("%d lengths with refills and %d fallbacks; the case needs both", refills, fallbacks)
	}
}
