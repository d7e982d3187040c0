package profile

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

func TestExclusionZone(t *testing.T) {
	cases := []struct{ m, factor, want int }{
		{100, 4, 25}, {101, 4, 26}, {100, 2, 50}, {100, 0, 25}, {2, 4, 1}, {1, 4, 1},
	}
	for _, c := range cases {
		if got := ExclusionZone(c.m, c.factor); got != c.want {
			t.Errorf("ExclusionZone(%d,%d) = %d, want %d", c.m, c.factor, got, c.want)
		}
	}
}

func TestNewInitializesToInf(t *testing.T) {
	mp := New(10, 3, 5)
	for i := 0; i < 5; i++ {
		if !math.IsInf(mp.Dist[i], 1) || mp.Index[i] != -1 {
			t.Fatalf("slot %d not initialized: %g %d", i, mp.Dist[i], mp.Index[i])
		}
	}
	if mp.Len() != 5 {
		t.Errorf("Len() = %d", mp.Len())
	}
}

func TestUpdateKeepsMinimum(t *testing.T) {
	mp := New(10, 3, 2)
	mp.Update(0, 5, 9)
	mp.Update(0, 7, 3) // worse: ignored
	mp.Update(0, 2, 4) // better: kept
	if mp.Dist[0] != 2 || mp.Index[0] != 4 {
		t.Errorf("got (%g,%d), want (2,4)", mp.Dist[0], mp.Index[0])
	}
}

func TestMin(t *testing.T) {
	mp := New(10, 3, 3)
	if d, i := mp.Min(); !math.IsInf(d, 1) || i != -1 {
		t.Errorf("empty Min() = (%g,%d)", d, i)
	}
	mp.Update(0, 5, 2)
	mp.Update(1, 1, 2)
	mp.Update(2, 3, 0)
	if d, i := mp.Min(); d != 1 || i != 1 {
		t.Errorf("Min() = (%g,%d), want (1,1)", d, i)
	}
}

func TestTopKPairsOrderingAndDedup(t *testing.T) {
	// Profile over 20 subsequences; two valleys, the deeper one at 3↔15.
	mp := New(8, 2, 20)
	mp.Update(3, 0.5, 15)
	mp.Update(15, 0.5, 3)
	mp.Update(4, 0.6, 16) // within zone of 3 and 15: must be deduped
	mp.Update(10, 1.0, 0)
	mp.Update(0, 1.0, 10)
	pairs := mp.TopKPairs(3)
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs: %v", len(pairs), pairs)
	}
	if pairs[0].A != 3 || pairs[0].B != 15 || pairs[0].Dist != 0.5 {
		t.Errorf("pair 0 = %v", pairs[0])
	}
	if pairs[1].A != 0 || pairs[1].B != 10 {
		t.Errorf("pair 1 = %v", pairs[1])
	}
	if pairs[0].M != 8 {
		t.Errorf("pair length = %d, want 8", pairs[0].M)
	}
}

func TestTopKPairsAOrder(t *testing.T) {
	mp := New(4, 1, 10)
	mp.Update(7, 0.3, 1) // stored with i > index: must emit A=1, B=7
	pairs := mp.TopKPairs(1)
	if len(pairs) != 1 || pairs[0].A != 1 || pairs[0].B != 7 {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestTopKPairsEmptyProfile(t *testing.T) {
	for _, n := range []int{0, 10} {
		mp := New(4, 1, n)
		if pairs := mp.TopKPairs(5); pairs != nil {
			t.Errorf("n=%d: expected nil pairs, got %#v", n, pairs)
		}
		if ds := mp.TopKDiscords(5); ds != nil {
			t.Errorf("n=%d: expected nil discords, got %#v", n, ds)
		}
	}
}

func TestNormDistFavorsLonger(t *testing.T) {
	short := MotifPair{A: 0, B: 10, M: 50, Dist: 10}
	long := MotifPair{A: 0, B: 10, M: 400, Dist: 10}
	if long.NormDist() >= short.NormDist() {
		t.Errorf("norm dist should favor longer: %g vs %g", long.NormDist(), short.NormDist())
	}
}

func TestTopKDiscords(t *testing.T) {
	mp := New(8, 3, 12)
	for i := 0; i < 12; i++ {
		mp.Update(i, 1.0, (i+6)%12)
	}
	mp.Dist[5], mp.Index[5] = 9.0, 11 // biggest NN distance → top discord
	mp.Dist[6] = 8.5                  // within zone of 5: deduped
	mp.Dist[0] = 7.0                  // second discord
	ds := mp.TopKDiscords(2)
	if len(ds) != 2 || ds[0].I != 5 || ds[1].I != 0 {
		t.Fatalf("discords = %v", ds)
	}
	if ds[0].Dist != 9.0 {
		t.Errorf("discord dist = %g", ds[0].Dist)
	}
}

// referenceTopKDiscords is the full-sort extraction TopKDiscords must
// equal: sort every candidate by distance descending, then offset
// ascending, then dedup-extract.
func referenceTopKDiscords(mp *MatrixProfile, k int) []Discord {
	type cand struct {
		i int
		d float64
	}
	var cands []cand
	for i, d := range mp.Dist {
		if mp.Index[i] >= 0 && !math.IsInf(d, 1) {
			cands = append(cands, cand{i, d})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d > cands[b].d
		}
		return cands[a].i < cands[b].i
	})
	var out []Discord
	var used []int
	for _, c := range cands {
		if len(out) >= k {
			break
		}
		skip := false
		for _, u := range used {
			if abs(c.i-u) < mp.Exclusion {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		out = append(out, Discord{I: c.i, Dist: c.d})
		used = append(used, c.i)
	}
	return out
}

// TestTopKDiscordsMatchesReference: the tournament extraction must
// reproduce the full sort exactly on profiles with exact distance ties,
// +Inf slots and slots without a neighbor (index −1), with and without an
// exclusion zone, for k from 0 to beyond the number of candidates; k ≤ 0
// returns nil.
func TestTopKDiscordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 20 + rng.Intn(400)
		m := 8 + rng.Intn(32)
		zone := ExclusionZone(m, 4)
		if trial%5 == 0 {
			zone = 0
		}
		mp := New(m, zone, n)
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.05:
				continue // index −1, distance +Inf
			case r < 0.1:
				mp.Index[i] = rng.Intn(n) // a neighbor at +Inf
				continue
			case r < 0.15:
				mp.Dist[i] = rng.Float64() // a distance with index −1
				continue
			}
			d := rng.Float64() * 10
			if rng.Float64() < 0.5 {
				d = math.Floor(d) // force exact ties
			}
			mp.Dist[i], mp.Index[i] = d, rng.Intn(n)
		}
		for _, k := range []int{0, 1, 3, n + 1} {
			got, want := mp.TopKDiscords(k), referenceTopKDiscords(mp, k)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d: %v, want %v", trial, k, got, want)
			}
		}
		if got := mp.TopKDiscords(-1); got != nil {
			t.Fatalf("trial %d: TopKDiscords(-1) = %v, want nil", trial, got)
		}
	}
}

func TestStringFormat(t *testing.T) {
	p := MotifPair{A: 1, B: 2, M: 3, Dist: 0.12345}
	if got := p.String(); got != "motif{A=1 B=2 m=3 d=0.1235}" {
		t.Errorf("String() = %q", got)
	}
}

// referenceTopKPairs is the full-sort extraction TopKPairs must equal: sort
// every candidate ascending (distance, then offset), then dedup-extract.
func referenceTopKPairs(mp *MatrixProfile, k int) []MotifPair {
	type cand struct {
		i int
		d float64
	}
	var cands []cand
	for i, d := range mp.Dist {
		if mp.Index[i] >= 0 && !math.IsInf(d, 1) {
			cands = append(cands, cand{i, d})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].i < cands[b].i
	})
	var out []MotifPair
	var used []int
	tooClose := func(x int) bool {
		for _, u := range used {
			if abs(x-u) < mp.Exclusion {
				return true
			}
		}
		return false
	}
	for _, c := range cands {
		if len(out) >= k {
			break
		}
		a, b := c.i, mp.Index[c.i]
		if a > b {
			a, b = b, a
		}
		if tooClose(a) || tooClose(b) {
			continue
		}
		out = append(out, MotifPair{A: a, B: b, M: mp.M, Dist: c.d})
		used = append(used, a, b)
	}
	return out
}

// TestTopKPairsMatchesReference: the tournament extraction must reproduce
// the full sort exactly, with exact distance ties, with the exclusion zone
// of 0 that stomp.ComputeAB's profiles carry, and with neighbors at or
// past the slot count, as in an AB-join profile, where the partner check
// cannot consult the tournament.
func TestTopKPairsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 50 + rng.Intn(400)
		m := 8 + rng.Intn(32)
		zone := ExclusionZone(m, 4)
		if trial%5 == 0 {
			zone = 0
		}
		partners := n
		if trial%2 == 1 {
			partners = 2 * n
		}
		mp := New(m, zone, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				continue // leave some slots empty
			}
			j := rng.Intn(partners)
			if j == i {
				j = (i + 1) % n
			}
			d := rng.Float64() * 10
			if rng.Float64() < 0.3 {
				d = math.Floor(d) // force exact ties
			}
			mp.Dist[i] = d
			mp.Index[i] = j
		}
		for _, k := range []int{1, 3, 10, 64} {
			got := mp.TopKPairs(k)
			want := referenceTopKPairs(mp, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d pairs, want %d", trial, k, len(got), len(want))
			}
			for pi := range got {
				if got[pi] != want[pi] {
					t.Fatalf("trial %d k=%d pair %d: %v, want %v", trial, k, pi, got[pi], want[pi])
				}
			}
		}
	}
}

// TestTopKPairsAdversarialDedup: every anchor's nearest neighbor is inside
// one small region, so extraction rejects almost all of the best
// candidates before it reaches the two distinct pairs.
func TestTopKPairsAdversarialDedup(t *testing.T) {
	n, m := 600, 16
	mp := New(m, ExclusionZone(m, 4), n)
	for i := 0; i < n; i++ {
		if i >= 295 && i <= 305 {
			continue
		}
		mp.Dist[i] = 1 + float64(i)*1e-4
		mp.Index[i] = 300 // all pairs collapse onto one used endpoint
	}
	// Two genuinely distinct pairs, far from the valley, with worse ranks.
	mp.Dist[50], mp.Index[50] = 90, 120
	mp.Dist[400], mp.Index[400] = 95, 450
	got := mp.TopKPairs(3)
	want := referenceTopKPairs(mp, 3)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for pi := range got {
		if got[pi] != want[pi] {
			t.Fatalf("pair %d: %v, want %v", pi, got[pi], want[pi])
		}
	}
	if len(got) != 3 {
		t.Fatalf("adversarial profile yielded %d pairs, want 3", len(got))
	}
}

// TestTopKHugeKBounded: a k far beyond the slot count returns exactly what
// k = len(mp.Dist) returns, and the working memory stays bounded by the
// profile size instead of by k (a pool sized by k = math.MaxInt could
// never be allocated).
func TestTopKHugeKBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 500, 16
	mp := New(m, ExclusionZone(m, 4), n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			continue
		}
		mp.Dist[i] = rng.Float64() * 10
		mp.Index[i] = (i + n/2) % n
	}
	const huge = math.MaxInt
	if got, want := mp.TopKPairs(huge), mp.TopKPairs(n); !slices.Equal(got, want) {
		t.Fatalf("TopKPairs(MaxInt) = %d pairs, want the %d of k=n", len(got), len(want))
	}
	if got, want := mp.TopKDiscords(huge), mp.TopKDiscords(n); !slices.Equal(got, want) {
		t.Fatalf("TopKDiscords(MaxInt) = %d discords, want the %d of k=n", len(got), len(want))
	}
	const limit = 1 << 20 // bytes; the n-slot working set is a few KiB
	for name, f := range map[string]func(){
		"TopKPairs":    func() { mp.TopKPairs(huge) },
		"TopKDiscords": func() { mp.TopKDiscords(huge) },
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		if b := m1.TotalAlloc - m0.TotalAlloc; b > limit {
			t.Errorf("%s(MaxInt) allocated %d bytes, want at most %d", name, b, limit)
		}
	}
}

// FuzzTopKExtraction checks both extractions against the full-sort
// references on arbitrary profiles: empty slots, +Inf distances with a
// neighbor, partners in [−1, 2s), coarse distances so that exact ties
// straddle bucket edges, zones from 0 to past s, and k from 1 to
// math.MaxInt. One scratch serves the profile and then a prefix of it, so
// the second call reuses larger buffers. NaN is left out: neither
// implementation defines an order on it.
func FuzzTopKExtraction(f *testing.F) {
	for _, c := range []struct{ s, zone int }{{0, 0}, {1, 1}, {15, 0}, {16, 5}, {17, 30}, {31, 8}, {33, 0}, {200, 51}} {
		data := make([]byte, 3*c.s+7)
		for i := range data {
			data[i] = byte(i*i*29 + i*c.s*7 + 11)
		}
		f.Add(uint8(c.s), uint16(c.zone), uint8(c.s/2), uint8(c.s), data)
	}
	f.Fuzz(func(t *testing.T, slots uint8, zone uint16, prefix, kSel uint8, data []byte) {
		s := int(slots) % 201
		mp := New(16, int(zone)%(2*s+3), s)
		for i := range s {
			var c [3]byte // three bytes a slot, cycling through data
			for x := range c {
				if len(data) > 0 {
					c[x] = data[(3*i+x)%len(data)]
				}
			}
			switch {
			case c[0] < 32:
				continue // empty: no neighbor, +Inf
			case c[0] < 48:
				mp.Dist[i] = math.Inf(1)
			default:
				mp.Dist[i] = float64(c[0]%8) / 4
			}
			mp.Index[i] = (int(c[1])<<8|int(c[2]))%(2*s+1) - 1
		}
		ks := []int{1, 3, 10, s, math.MaxInt}
		k := ks[int(kSel)%len(ks)]
		var sc TopKScratch
		p := int(prefix) % (s + 1)
		for _, q := range []*MatrixProfile{mp, {M: mp.M, Exclusion: mp.Exclusion, Dist: mp.Dist[:p], Index: mp.Index[:p]}} {
			if got, want := q.TopKPairsInto(k, &sc), referenceTopKPairs(q, k); !slices.Equal(got, want) {
				t.Fatalf("s=%d zone=%d k=%d pairs:\n got %v\nwant %v", q.Len(), q.Exclusion, k, got, want)
			}
		}
		if got, want := mp.TopKDiscords(k), referenceTopKDiscords(mp, k); !slices.Equal(got, want) {
			t.Fatalf("s=%d zone=%d k=%d discords:\n got %v\nwant %v", s, mp.Exclusion, k, got, want)
		}
	})
}
