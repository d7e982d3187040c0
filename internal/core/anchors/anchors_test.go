package anchors

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/series"
)

func newStore(t *testing.T, n, c int) *Store {
	t.Helper()
	s, err := NewStore(n, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSetResetsState: Set replaces every per-anchor field, whatever the
// anchor held before, and a degenerate anchor keeps no entries.
func TestSetResetsState(t *testing.T) {
	s := newStore(t, 4, 3)
	s.Len[2], s.Degenerate[2], s.NextQ2[2], s.Base[2] = 3, true, 7, 5
	top := kernels.NewTopLists(1, 4)
	top.Offer(0, 1, 10, 2)
	s.Set(2, 17, 3, top, 0, 1)
	if s.Len[2] != 1 || s.J[6] != 1 || s.QT[6] != 10 || s.Base[2] != 17 || s.Degenerate[2] || s.NextQ2[2] >= 0 {
		t.Fatalf("state not reset: len %d j %d qt %v base %d degenerate %v next %v",
			s.Len[2], s.J[6], s.QT[6], s.Base[2], s.Degenerate[2], s.NextQ2[2])
	}
	s.Set(2, 18, 3, top, 0, 0)
	if s.Len[2] != 0 || !s.Degenerate[2] || s.NextQ2[2] >= 0 || s.Base[2] != 18 {
		t.Fatalf("degenerate anchor: len %d degenerate %v next %v base %d", s.Len[2], s.Degenerate[2], s.NextQ2[2], s.Base[2])
	}
	if got := newStore(t, 5, 9).Cap; got != 5 {
		t.Fatalf("Cap = %d for 5 anchors of up to 9 entries, want 5", got)
	}
}

// TestSetKeepsSortedPrefix: whatever the order of the offers, an anchor's
// slots hold the best keep candidates under (q̃² descending, offset
// ascending), best first, and NextQ2 is the key after them — for every
// keep up to the list's length, with many exactly tied keys.
func TestSetKeepsSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type cand struct {
		j  int32
		qt float64
		q  float64
	}
	for trial := 0; trial < 200; trial++ {
		c := 1 + rng.Intn(12)
		cands := make([]cand, rng.Intn(40))
		for x := range cands {
			// Keys on a coarse grid of both signs, so ties are common.
			cands[x] = cand{j: int32(x), qt: rng.NormFloat64(), q: float64(rng.Intn(9)-4) / 2}
		}
		top := kernels.NewTopLists(1, c+1)
		for _, x := range rng.Perm(len(cands)) {
			top.Offer(0, cands[x].j, cands[x].qt, cands[x].q)
		}
		sort.Slice(cands, func(a, b int) bool {
			qa, qb := cands[a].q*cands[a].q, cands[b].q*cands[b].q
			return qa > qb || qa == qb && cands[a].j < cands[b].j
		})
		s := newStore(t, 16, c)
		for keep := 0; keep <= c; keep++ {
			s.Set(1, 9, keep, top, 0, 1)
			want := min(keep, len(cands))
			if int(s.Len[1]) != want {
				t.Fatalf("trial %d keep %d: %d entries, want %d", trial, keep, s.Len[1], want)
			}
			for x := 0; x < want; x++ {
				if s.J[c+x] != cands[x].j || s.QT[c+x] != cands[x].qt {
					t.Fatalf("trial %d keep %d: slot %d holds (%d, %v), want (%d, %v)",
						trial, keep, x, s.J[c+x], s.QT[c+x], cands[x].j, cands[x].qt)
				}
			}
			next := -1.0
			if len(cands) > keep {
				next = cands[keep].q * cands[keep].q
			}
			if s.NextQ2[1] != next {
				t.Fatalf("trial %d keep %d: NextQ2 %v, want %v", trial, keep, s.NextQ2[1], next)
			}
		}
	}
}

// TestMaxLBCoversUnkept ties the certification threshold to its semantic
// claim: with an anchor's best p candidates kept, offered as the engine
// offers them (keyed by the correlation c, installed with ℓ·σᵢ), the
// bound at the extended length from NextQ2 is at most the true distance
// of every unkept candidate, and at least the bound from the worst kept
// q̃ (lb.QTilde; the threshold the kept entries alone would give).
func TestMaxLBCoversUnkept(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 250)
	v := 0.0
	for k := range x {
		v += rng.NormFloat64()
		x[k] = v
	}
	st := series.NewStats(x)
	i, l, k, p := 17, 12, 9, 5
	m := l + k
	sCur := len(x) - m + 1
	top := kernels.NewTopLists(1, p+1)
	qs := map[int32]float64{}
	muA, sdA := st.MeanStd(i, l)
	for j := 0; j < sCur; j++ {
		if j > i-3 && j < i+3 {
			continue
		}
		qt := series.Dot(x[i:i+l], x[j:j+l])
		muB, sdB := st.MeanStd(j, l)
		qs[int32(j)] = lb.QTilde(qt, st.Sum(i, l), muB, sdB)
		c := (qt*(1/float64(l)) - muA*muB) * (1 / sdA) * (1 / sdB)
		top.Offer(0, int32(j), qt, c)
	}
	s := newStore(t, sCur, p)
	s.Set(i, l, p, top, 0, float64(l)*sdA)
	terms := lb.NewAnchorTerms(st, i, l, k)
	maxLB := terms.Bound(math.Sqrt(s.NextQ2[i]))
	kept := map[int32]bool{}
	worst := math.Inf(1)
	for _, j := range s.J[i*p : i*p+int(s.Len[i])] {
		kept[j] = true
		worst = math.Min(worst, qs[j]*qs[j])
	}
	if len(kept) != p {
		t.Fatalf("%d entries kept, want %d", len(kept), p)
	}
	if worstLB := terms.Bound(math.Sqrt(worst)); maxLB < worstLB {
		t.Fatalf("bound from NextQ2 %v below the bound from the worst kept key %v", maxLB, worstLB)
	}
	for j := range qs {
		if kept[j] {
			continue
		}
		truth := series.ZNormDist(x[i:i+m], x[int(j):int(j)+m])
		if truth < maxLB-1e-7*(1+maxLB) {
			t.Fatalf("unkept candidate j=%d has d=%g < maxLB=%g", j, truth, maxLB)
		}
	}
}

// TestSnapshotRestoreRoundTrip: a store's entries packed back to back,
// as a checkpoint frame carries them, form a snapshot that passes
// Validate, and Restore rebuilds the slots the store's lists occupy;
// malformed snapshots are refused.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, c = 50, 6
	s := newStore(t, n, c)
	for i := 0; i < n; i++ {
		top := kernels.NewTopLists(1, c+1)
		for x := rng.Intn(2 * c); x > 0; x-- {
			top.Offer(0, int32(rng.Intn(n)), rng.NormFloat64(), rng.NormFloat64())
		}
		scale := 1.0
		if i%7 == 3 {
			scale = 0 // degenerate
		}
		s.Set(i, 10+rng.Intn(5), min(c, 1+rng.Intn(c)), top, 0, scale)
	}
	sn := &Snapshot{Cap: s.Cap, Len: s.Len, Base: s.Base, NextQ2: s.NextQ2, Degenerate: s.Degenerate}
	for i, c := range s.Len {
		lo := i * s.Cap
		sn.J = append(sn.J, s.J[lo:lo+int(c)]...)
		sn.QT = append(sn.QT, s.QT[lo:lo+int(c)]...)
	}
	if len(sn.J) != s.Kept(n) {
		t.Fatalf("snapshot holds %d entries, store %d", len(sn.J), s.Kept(n))
	}
	if err := sn.Validate(n, c, 10, 14); err != nil {
		t.Fatal(err)
	}
	r := Restore(sn)
	for i := 0; i < n; i++ {
		lo, hi := i*c, i*c+int(s.Len[i])
		if !reflect.DeepEqual(r.J[lo:hi], s.J[lo:hi]) || !reflect.DeepEqual(r.QT[lo:hi], s.QT[lo:hi]) {
			t.Fatalf("anchor %d restored as %v %v, want %v %v", i, r.J[lo:hi], r.QT[lo:hi], s.J[lo:hi], s.QT[lo:hi])
		}
	}
	if err := sn.Validate(n, c, 11, 14); err == nil {
		t.Fatal("a base below lmin passed")
	}
	if err := sn.Validate(n+1, c, 10, 14); err == nil {
		t.Fatal("a snapshot for another anchor count passed")
	}
	if _, err := NewStore(math.MaxInt/4, 256); err == nil {
		t.Fatal("an overflowing slot count was allocated")
	}
}

func TestShardsPartition(t *testing.T) {
	s := newStore(t, 1000, 4)
	for _, tc := range []struct{ n, count int }{
		{1000, 4}, {1000, 7}, {1000, 1}, {3, 8}, {1000, 1000}, {0, 4}, {2000, 3},
	} {
		shards := s.Shards(tc.n, tc.count)
		n := tc.n
		if n > s.Anchors() {
			n = s.Anchors()
		}
		pos := 0
		for _, sh := range shards {
			if sh.Lo != pos {
				t.Fatalf("n=%d count=%d: gap at %d (shard starts %d)", tc.n, tc.count, pos, sh.Lo)
			}
			if sh.Hi <= sh.Lo {
				t.Fatalf("n=%d count=%d: empty shard %+v", tc.n, tc.count, sh)
			}
			pos = sh.Hi
		}
		if n > 0 && pos != n {
			t.Fatalf("n=%d count=%d: shards cover [0,%d), want [0,%d)", tc.n, tc.count, pos, n)
		}
		if len(shards) > tc.count && tc.count >= 1 {
			t.Fatalf("n=%d count=%d: %d shards", tc.n, tc.count, len(shards))
		}
	}
}
