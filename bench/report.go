package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one metric the benchmark promises to report on every
// workload; BENCHMARK.json declares the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the workload sees, measured with
// tracing off. An "op" is the workload's unit of work: one warm Discover
// (batch), one appended chunk (stream), one cache-miss job from submit to
// its terminal event (serve).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one set per module boundary.
// Layers a workload does not itself exercise are measured by a small
// fixed probe (see README.md), so every workload reports every name.
var perLayer = []metricDef{
	{"core.seed_s", "s"},
	{"core.lengths_s", "s"},
	{"core.finish_s", "s"},
	{"core.cpu_s", "s"},
	{"core.certified_frac", "ratio"},
	{"core.recomputed_anchors", "count"},
	{"core.allocs_per_length", "count"},
	{"core.bytes_per_length", "bytes"},
	{"plan.pruned_lengths", "count"},
	{"plan.incremental_lengths", "count"},
	{"plan.recompute_lengths", "count"},
	{"plan.head_extensions", "count"},
	{"core.checkpoint_ms_per_length", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"kernels.RowNext.ns_per_cell", "ns"},
	{"kernels.ArgmaxCorr.ns_per_cell", "ns"},
	{"kernels.ExtendRow.ns_per_cell", "ns"},
	{"kernels.DiagScan.ns_per_cell", "ns"},
	{"kernels.ColScan.ns_per_cell", "ns"},
	{"kernels.AdvanceDot.ns_per_step", "ns"},
	{"fft.dots_us", "us"},
	{"stomp.head_ms", "ms"},
	{"stomp.extend_head_ms", "ms"},
	{"stomp.append_column_us", "us"},
	{"stream.append_ms.p50", "ms"},
	{"stream.snapshot_ms", "ms"},
	{"serve.upload_ms.p50", "ms"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.first_progress_ms.p50", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.hit_ms.p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.engine_runs", "count"},
	{"serve.result_bytes", "bytes"},
	{"wal.save_series_ms", "ms"},
	{"wal.save_submit_ms", "ms"},
	{"wal.save_outcome_ms", "ms"},
	{"wal.save_checkpoint_ms", "ms"},
	{"wal.checkpoint_bytes", "bytes"},
	{"wal.replay_s", "s"},
}

// metric is one reported value with the sample count and quartiles it
// was condensed from (n=1 and q1=q3=value for a single measurement).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// report is everything one workload run measured and checked.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
	Anchors   *anchors `json:"anchors,omitempty"`
	// Traced runs only: self seconds per layer and the kernel variant
	// table.
	LayerSelf map[string]float64 `json:"layer_self_s,omitempty"`
	Kernels   []kernelRow        `json:"kernels,omitempty"`
	spans     []span
}

// add records a single measured value.
func (r *report) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: 1, Q1: v, Q3: v})
}

// addSamples records the median of samples with its count and quartiles,
// plus a ".p90" sibling when enough samples lie beyond it. A name ending
// in ".p50" names the median itself.
func (r *report) addSamples(name, unit string, samples []float64) {
	s := summarize(samples)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: s.P50, N: s.N, Q1: s.Q1, Q3: s.Q3})
	if base, ok := strings.CutSuffix(name, ".p50"); ok && s.HasP90 {
		r.Metrics = append(r.Metrics, metric{Name: base + ".p90", Unit: unit, Value: s.P90, N: s.N, Q1: s.Q1, Q3: s.Q3})
	}
}

// check counts one verified operation and records why it failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// finish adds failed_frac and settles Correct.
func (r *report) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
		r.Problems = append(r.Problems, "no operation was attempted")
	}
	r.add("failed_frac", "ratio", float64(r.Failed)/float64(r.Attempted))
	r.Correct = r.Failed == 0
}

// printLines writes one "workload metric value unit n=… q1=… q3=…" line
// per metric, in name order.
func (r *report) printLines(w io.Writer) {
	ms := append([]metric(nil), r.Metrics...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d q1=%.6g q3=%.6g\n", r.Workload, m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, p)
	}
}

// resultLine is the one-line JSON summary that ends standard output: the
// declared end-to-end metrics of an untraced run, or the declared
// per-layer metrics of a traced one.
func (r *report) resultLine() ([]byte, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := r.metric(d.name)
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
		ms[d.name] = value{m.Value, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}
