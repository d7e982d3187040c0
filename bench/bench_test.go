package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeEnv is a run environment at smoke-test scale; the serve binary is
// built once per test binary.
func smokeEnv(t *testing.T, trace bool) *env {
	t.Helper()
	serve, err := lookup("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 3, window: time.Second, serveBin: serveBin(t), dir: t.TempDir(), setupReps: 1, serve: serve.small()}
	if trace {
		e.tr = newTracer()
	}
	return e
}

// small shrinks a workload to smoke-test size: n≈1200, a 30-point stream
// after the window fills, four serve requests.
func (w workload) small() workload {
	switch w.kind {
	case "stream":
		w.n, w.chunk, w.maxOps = 128, 10, 3
	case "serve":
		w.n, w.maxOps = 1200, 1
	default:
		w.n, w.maxOps = 1200, 2
	}
	return w
}

var builtServe string

func serveBin(t *testing.T) string {
	t.Helper()
	if builtServe != "" {
		return builtServe
	}
	dir, err := os.MkdirTemp("", "valmod-bench-test-")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "valmod-serve")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/seriesmining/valmod/cmd/valmod-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build valmod-serve: %v\n%s", err, out)
	}
	builtServe = bin
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtServe != "" {
		os.RemoveAll(filepath.Dir(builtServe))
	}
	os.Exit(code)
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// requires every check to pass and every declared metric to be reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := runWorkload(smokeEnv(t, trace), w.small())
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d/%d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
				}
				line, err := rep.resultLine()
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Metrics map[string]struct{ Value float64 } `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Fatalf("%d metrics in the result line, want %d", len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					v := got.Metrics[d.name].Value
					if math.IsNaN(v) || math.IsInf(v, 0) || (!trace && v <= 0) {
						t.Errorf("%s = %v", d.name, v)
					}
				}
				if trace {
					if c, _ := rep.metric("trace.coverage_frac"); math.Abs(c.Value-1) > 0.05 {
						t.Errorf("phase spans cover %.3f of the root spans, want 1 within 5%%", c.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedAnchorFails pins a wrong anchor and expects the run to
// count it as a failed check.
func TestCorruptedAnchorFails(t *testing.T) {
	w, err := lookup("pairs-n20k")
	if err != nil {
		t.Fatal(err)
	}
	w = w.small()
	rep, err := runWorkload(smokeEnv(t, false), w)
	if err != nil || !rep.Correct {
		t.Fatalf("clean run: err=%v problems=%v", err, rep.Problems)
	}
	bad := *rep.Anchors
	bad.Best[0]++
	e := smokeEnv(t, false)
	e.pinned = &bad
	rep, err = runWorkload(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failed check", rep.Correct, rep.Failed)
	}
	if f, _ := rep.metric("failed_frac"); f.Value <= 0 {
		t.Fatalf("failed_frac = %v", f.Value)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2], n=4).
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileAndP90Rule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	s := summarize(xs)
	if s.P50 != 50.5 || !s.HasP90 || math.Abs(s.P90-90.1) > 1e-9 {
		t.Fatalf("summary of 1..100 = %+v", s)
	}
	if s := summarize(xs[:90]); s.HasP90 {
		t.Fatalf("90 samples leave only 9 beyond the p90, yet it was kept: %+v", s)
	}
}

func TestJudge(t *testing.T) {
	lower := bound{Name: "op_ms.p50", Better: "lower", Bound: 0.1}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name               string
		old, cur           []float64
		oldSpread, spread2 float64
		b                  bound
		want               string
	}{
		{"within bound", []float64{100}, []float64{105}, 0.02, 0.02, lower, "ok"},
		{"slower beyond bound", []float64{100}, []float64{120}, 0.02, 0.02, lower, "REGRESSION"},
		{"faster beyond bound", []float64{100}, []float64{80}, 0.02, 0.02, lower, "better"},
		{"noisy", []float64{100}, []float64{120}, 0.3, 0.02, lower, "unresolved"},
		{"noisy but every run slower", []float64{100, 101, 102}, []float64{130, 131, 132}, 0.3, 0.3, lower, "REGRESSION"},
		{"quiet but noisy sets", []float64{100}, []float64{101}, 0.3, 0.3, lower, "unresolved"},
		{"throughput drop", []float64{10}, []float64{8}, 0.02, 0.02, higher, "REGRESSION"},
		{"throughput gain", []float64{10}, []float64{12}, 0.02, 0.02, higher, "better"},
	} {
		if got, _ := judge(c.old, c.cur, c.oldSpread, c.spread2, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFailures(t *testing.T) {
	bounds := []bound{{Name: "op_ms.p50", Unit: "ms", Better: "lower", Bound: 0.1}}
	mk := func(v float64, failed int, best int) *resultSet {
		r := &report{Workload: "pairs-n20k", Seed: 1, Attempted: 10, Failed: failed, Anchors: &anchors{Best: [3]int{best, 9, 64}}}
		r.add("op_ms.p50", "ms", v)
		return newSet(10, r)
	}
	for _, c := range []struct {
		name     string
		cur      *resultSet
		wantFail bool
	}{
		{"same", mk(100, 0, 1), false},
		{"slower", mk(150, 0, 1), true},
		{"drift", mk(100, 0, 2), true},
		{"more failures", mk(100, 1, 1), true},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, mk(100, 0, 1), c.cur, bounds); got != c.wantFail {
			t.Errorf("%s: failed=%v, want %v\n%s", c.name, got, c.wantFail, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metric names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	same := func(kind string, got []bound, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
