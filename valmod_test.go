package valmod_test

import (
	"bytes"
	"math"
	"testing"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/stomp"
)

func TestDiscoverEndToEndECG(t *testing.T) {
	s := gen.ECG(3000, 1)
	res, err := valmod.Discover(s.Values, 50, 120, valmod.Options{TopK: 3, P: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLength) != 120-50+1 {
		t.Fatalf("per-length count %d", len(res.PerLength))
	}
	// Every length exact vs STOMP.
	for _, lr := range res.PerLength {
		mp, err := stomp.Compute(s.Values, lr.Length, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := mp.TopKPairs(3)
		if len(lr.Pairs) != len(want) {
			t.Fatalf("m=%d: %d pairs, want %d", lr.Length, len(lr.Pairs), len(want))
		}
		for i := range want {
			if math.Abs(lr.Pairs[i].Distance-want[i].Dist) > 1e-6*(1+want[i].Dist) {
				t.Fatalf("m=%d pair %d: %g want %g", lr.Length, i, lr.Pairs[i].Distance, want[i].Dist)
			}
		}
	}
	// The fixed-length profile is exposed.
	if len(res.Profile) != s.Len()-50+1 || len(res.ProfileIndex) != len(res.Profile) {
		t.Fatalf("profile sizes: %d %d", len(res.Profile), len(res.ProfileIndex))
	}
	// VALMAP basics.
	if res.VALMAP == nil || len(res.VALMAP.MPn) != len(res.Profile) {
		t.Fatal("VALMAP missing or mis-sized")
	}
}

func TestDiscoverBestOverallAndTopMotifs(t *testing.T) {
	s := gen.SineMix(1500)
	res, err := valmod.Discover(s.Values, 32, 96, valmod.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.BestOverall()
	if !ok {
		t.Fatal("no best motif")
	}
	top := res.TopMotifs(5)
	if len(top) == 0 {
		t.Fatal("no top motifs")
	}
	if math.Abs(top[0].NormDistance-best.NormDistance) > 1e-12 {
		t.Errorf("TopMotifs[0] %v != BestOverall %v", top[0], best)
	}
	for i := 1; i < len(top); i++ {
		if top[i].NormDistance < top[i-1].NormDistance {
			t.Error("TopMotifs not sorted")
		}
	}
	// NormDistance is consistent with Distance and Length.
	for _, p := range top {
		want := p.Distance * math.Sqrt(1/float64(p.Length))
		if math.Abs(p.NormDistance-want) > 1e-12 {
			t.Errorf("NormDistance inconsistent: %v", p)
		}
	}
}

func TestDiscoverMotifSet(t *testing.T) {
	s := gen.RandomWalk(2500, 2)
	offs := gen.PlantMotif(s, 48, 4, 0.01, 3)
	res, err := valmod.Discover(s.Values, 48, 52, valmod.Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	lr, _ := res.OfLength(48)
	if len(lr.Pairs) == 0 {
		t.Fatal("no pair at planted length")
	}
	members, err := res.MotifSet(lr.Pairs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) < len(offs) {
		t.Fatalf("motif set has %d members, planted %d", len(members), len(offs))
	}
}

func TestDiscoverInputValidation(t *testing.T) {
	if _, err := valmod.Discover(nil, 8, 16, valmod.Options{}); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := valmod.Discover([]float64{1, math.NaN(), 3}, 8, 16, valmod.Options{}); err == nil {
		t.Error("NaN should fail")
	}
	vals := make([]float64, 100)
	if _, err := valmod.Discover(vals, 16, 8, valmod.Options{}); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := valmod.Discover(vals, 8, 500, valmod.Options{}); err == nil {
		t.Error("range beyond series should fail")
	}
}

func TestVALMAPStateAtThroughPublicAPI(t *testing.T) {
	s := gen.ECG(2000, 4)
	res, err := valmod.Discover(s.Values, 50, 90, valmod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mpn, ip, lp, err := res.VALMAP.StateAt(50)
	if err != nil {
		t.Fatal(err)
	}
	// At ℓmin the length profile is flat.
	for i := range lp {
		if ip[i] >= 0 && lp[i] != 50 {
			t.Fatalf("LP[%d] = %d at lmin state", i, lp[i])
		}
	}
	_ = mpn
	// Final state >= improvements only.
	mpnEnd, _, lpEnd, err := res.VALMAP.StateAt(90)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mpnEnd {
		if mpnEnd[i] > mpn[i]+1e-12 {
			t.Fatalf("MPn[%d] got worse over lengths", i)
		}
		if lpEnd[i] < lp[i] && lpEnd[i] != 0 {
			// A later state may keep the initial length; it must never
			// record a length below ℓmin.
			if lpEnd[i] < 50 {
				t.Fatalf("LP[%d] = %d below lmin", i, lpEnd[i])
			}
		}
	}
	// Checkpoints are within range and sorted.
	cps := res.VALMAP.Checkpoints()
	for i, l := range cps {
		if l <= 50 || l > 90 {
			t.Fatalf("checkpoint %d out of range", l)
		}
		if i > 0 && cps[i] <= cps[i-1] {
			t.Fatal("checkpoints not sorted")
		}
	}
	// JSON export works through the facade.
	var buf bytes.Buffer
	if err := res.VALMAP.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty JSON export")
	}
}

func TestMatrixProfilePublicAPI(t *testing.T) {
	s := gen.ECG(2000, 5)
	fp, err := valmod.MatrixProfile(s.Values, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	fpPar, err := valmod.MatrixProfile(s.Values, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fp.Dist {
		if math.Abs(fp.Dist[i]-fpPar.Dist[i]) > 1e-9*(1+fp.Dist[i]) {
			t.Fatalf("serial/parallel mismatch at %d", i)
		}
	}
	pairs := fp.TopPairs(3)
	if len(pairs) == 0 {
		t.Fatal("no pairs from fixed profile")
	}
	for _, p := range pairs {
		if p.Length != 100 {
			t.Errorf("pair length %d", p.Length)
		}
	}
	discords := fp.Discords(2)
	if len(discords) == 0 {
		t.Fatal("no discords")
	}
	if got := fp.Discords(-1); len(got) != 0 {
		t.Errorf("Discords(-1) = %v, want none", got)
	}
	if got := fp.TopPairs(-1); len(got) != 0 {
		t.Errorf("TopPairs(-1) = %v, want none", got)
	}
	for _, d := range discords {
		if d.Length != 100 {
			t.Errorf("discord length %d, want 100", d.Length)
		}
		if want := d.Distance * math.Sqrt(1.0/100); math.Abs(d.NormDistance-want) > 1e-12 {
			t.Errorf("discord norm distance %g, want %g", d.NormDistance, want)
		}
	}
	if _, err := valmod.MatrixProfile(s.Values, 1, false); err == nil {
		t.Error("m=1 should fail")
	}
}

func TestDistanceProfilePublicAPI(t *testing.T) {
	s := gen.SineMix(500)
	q := s.Values[100:150]
	dp, err := valmod.DistanceProfile(q, s.Values)
	if err != nil {
		t.Fatal(err)
	}
	if len(dp) != 500-50+1 {
		t.Fatalf("profile length %d", len(dp))
	}
	if dp[100] > 1e-6 {
		t.Errorf("self-match distance %g", dp[100])
	}
	if _, err := valmod.DistanceProfile(nil, s.Values); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := valmod.DistanceProfile(s.Values, q); err == nil {
		t.Error("query longer than series should fail")
	}
}

// TestDisablePruningPublicOption: through the public API, a run that
// skips the pruned pass (Discords puts every length on the whole-profile
// pass) reports the same pairs as the default run.
func TestDisablePruningPublicOption(t *testing.T) {
	s := gen.RandomWalk(400, 6)
	a, err := valmod.Discover(s.Values, 10, 20, valmod.Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := valmod.Discover(s.Values, 10, 20, valmod.Options{TopK: 2, Discords: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerLength {
		pa, pb := a.PerLength[i].Pairs, b.PerLength[i].Pairs
		if len(pa) != len(pb) {
			t.Fatalf("m=%d: pair count mismatch", a.PerLength[i].Length)
		}
		for j := range pa {
			if math.Abs(pa[j].Distance-pb[j].Distance) > 1e-9*(1+pa[j].Distance) {
				t.Fatalf("m=%d pair %d mismatch", a.PerLength[i].Length, j)
			}
		}
	}
}
