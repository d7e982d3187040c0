package core

import (
	"bytes"
	"encoding/gob"
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
// top-p of its row of direct dot products under (q̃² descending, offset
// ascending), NextQ2 is the (p+1)-th key and bounds every unkept one, and
// Degenerate marks exactly the σ = 0 anchors. Keys are compared within
// 1e-9 of the row's largest key (the recurrence and the direct dot
// products differ in the last bits), so near-ties at the p-th place may
// swap. The anchors' snapshot must be byte-identical at workers 1, 2, 4.
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
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(r.store.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				snap0, mp0 = buf.Bytes(), mp
				checkSeedAgainstBrute(t, in.name, r, in.l)
				continue
			}
			if !bytes.Equal(buf.Bytes(), snap0) {
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

type bruteCand struct {
	j      int
	qt, q2 float64
	q      float64
}

// checkSeedAgainstBrute compares every anchor's seeded state at length l
// with a brute-force row of direct dot products.
func checkSeedAgainstBrute(t *testing.T, name string, r *run, l int) {
	t.Helper()
	x := r.t
	s := len(x) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	p := r.cfg.P
	degenerate := 0
	for i := 0; i < s; i++ {
		a := r.store.At(i)
		if int(a.Base) != l {
			t.Fatalf("%s anchor %d: base %d, want %d", name, i, a.Base, l)
		}
		if r.stds[i] == 0 {
			degenerate++
			if !a.Degenerate || len(a.Entries) != 0 || a.NextQ2 != -1 {
				t.Fatalf("%s anchor %d: σ = 0 but degenerate=%v entries=%d next=%v", name, i, a.Degenerate, len(a.Entries), a.NextQ2)
			}
			continue
		}
		if a.Degenerate {
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
		keep := p
		if keep > len(row) {
			keep = len(row)
		}
		if len(a.Entries) != keep {
			t.Fatalf("%s anchor %d: %d entries, want %d", name, i, len(a.Entries), keep)
		}
		byJ := make(map[int]bruteCand, len(row))
		rank := make(map[int]int, len(row))
		for k, c := range row {
			byJ[c.j], rank[c.j] = c, k
		}
		kept := make(map[int]bool, keep)
		for _, e := range a.Entries {
			c, ok := byJ[int(e.J)]
			if !ok {
				t.Fatalf("%s anchor %d: entry %d is not a candidate", name, i, e.J)
			}
			kept[c.j] = true
			if math.Abs(e.QTilde-c.q) > tol || math.Abs(e.QT-c.qt) > 1e-9*math.Max(1, math.Abs(c.qt)) {
				t.Fatalf("%s anchor %d entry %d: (qt %v, q̃ %v), brute (%v, %v)", name, i, e.J, e.QT, e.QTilde, c.qt, c.q)
			}
			// A retained candidate outside the brute top-p must tie the
			// p-th key within tolerance.
			if rank[c.j] >= keep && c.q2 < row[keep-1].q2-tol2 {
				t.Fatalf("%s anchor %d: kept %d at brute rank %d (q̃² %v < p-th %v)", name, i, c.j, rank[c.j], c.q2, row[keep-1].q2)
			}
		}
		for k := 0; k < keep; k++ {
			if c := row[k]; !kept[c.j] && keep < len(row) && c.q2 > row[keep].q2+tol2 {
				t.Fatalf("%s anchor %d: dropped %d at brute rank %d (q̃² %v > (p+1)-th %v)", name, i, c.j, k, c.q2, row[keep].q2)
			}
		}
		if len(row) <= p {
			if a.NextQ2 != -1 {
				t.Fatalf("%s anchor %d: every candidate kept, NextQ2 = %v, want -1", name, i, a.NextQ2)
			}
			continue
		}
		if math.Abs(a.NextQ2-row[p].q2) > tol2 {
			t.Fatalf("%s anchor %d: NextQ2 %v, brute (p+1)-th key %v", name, i, a.NextQ2, row[p].q2)
		}
		for _, c := range row {
			if !kept[c.j] && c.q2 > a.NextQ2+tol2 {
				t.Fatalf("%s anchor %d: unkept %d has q̃² %v above NextQ2 %v", name, i, c.j, c.q2, a.NextQ2)
			}
		}
	}
	if name == "constant segments" && degenerate == 0 {
		t.Fatalf("%s: no σ = 0 anchor at l=%d", name, l)
	}
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
