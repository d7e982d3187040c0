package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(path, &b); err != nil {
		return nil, err
	}
	return b.EndToEnd, nil
}

// judge applies the regression rule to one (workload, metric): the change
// is the relative move of the median, signed so that positive is worse.
// A move beyond the bound is a regression (or a gain) only when the spread
// — the wider of the two sides' quartile distance over median — is within
// the bound, or when every new value lies beyond every old one (three or
// more runs a side); otherwise the row is unresolved.
func judge(old, cur []float64, oldSpread, newSpread float64, b bound) (verdict string, worse float64) {
	mo, mn := median(old), median(cur)
	worse = (mn - mo) / mo
	if b.Better == "higher" {
		worse = -worse
	}
	// Dominance needs a few runs a side: one run trivially "beats" another.
	allWorse, allBetter := len(old) >= 3 && len(cur) >= 3, len(old) >= 3 && len(cur) >= 3
	for _, n := range cur {
		for _, o := range old {
			d := n - o
			if b.Better == "higher" {
				d = -d
			}
			allWorse = allWorse && d > 0
			allBetter = allBetter && d < 0
		}
	}
	resolved := max(oldSpread, newSpread) <= b.Bound
	switch {
	case worse > b.Bound && (resolved || allWorse):
		return "REGRESSION", worse
	case worse < -b.Bound && (resolved || allBetter):
		return "better", worse
	case !resolved:
		return "unresolved", worse
	}
	return "ok", worse
}

// spread is the quartile distance over the median of a metric across
// runs, or within the one run when there is only one.
func spread(ms []metric) float64 {
	if len(ms) == 1 {
		if ms[0].Value == 0 {
			return 0
		}
		return (ms[0].Q3 - ms[0].Q1) / ms[0].Value
	}
	vals := values(ms)
	sort.Float64s(vals)
	q1, q3 := quartiles(vals)
	return (q3 - q1) / percentile(vals, 0.5)
}

func values(ms []metric) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Value
	}
	return out
}

// compareSets prints one row per (workload, metric) and reports whether
// any row fails: a regression beyond its bound, anchor drift on a shared
// seed, or a higher failed_frac.
func compareSets(w io.Writer, old, cur *resultSet, bounds []bound) (failed bool) {
	for _, wl := range workloads {
		oldRuns, newRuns := untracedRuns(old, wl.name), untracedRuns(cur, wl.name)
		if len(oldRuns) == 0 || len(newRuns) == 0 {
			fmt.Fprintf(w, "%-15s %-12s missing (old %d runs, new %d runs)\n", wl.name, "-", len(oldRuns), len(newRuns))
			continue
		}
		for _, b := range bounds {
			om, nm := metricRuns(oldRuns, b.Name), metricRuns(newRuns, b.Name)
			if len(om) == 0 || len(nm) == 0 {
				fmt.Fprintf(w, "%-15s %-12s missing\n", wl.name, b.Name)
				continue
			}
			v, worse := judge(values(om), values(nm), spread(om), spread(nm), b)
			failed = failed || v == "REGRESSION"
			fmt.Fprintf(w, "%-15s %-12s %-10s old %.6g new %.6g %s (%+.1f%% worse, bound %.0f%%, spread %.1f%%/%.1f%%)\n",
				wl.name, b.Name, v, median(values(om)), median(values(nm)), b.Unit,
				100*worse, 100*b.Bound, 100*spread(om), 100*spread(nm))
		}
		of, nf := maxFailedFrac(oldRuns), maxFailedFrac(newRuns)
		v := "ok"
		if nf > of {
			v, failed = "REGRESSION", true
		}
		fmt.Fprintf(w, "%-15s %-12s %-10s old %.4g new %.4g\n", wl.name, "failed_frac", v, of, nf)
		for _, o := range oldRuns {
			for _, n := range newRuns {
				if o.Seed == n.Seed && o.Anchors != nil && n.Anchors != nil && !o.Anchors.equal(n.Anchors) {
					fmt.Fprintf(w, "%-15s %-12s DRIFT      seed %d: %+v vs %+v\n", wl.name, "anchors", o.Seed, *o.Anchors, *n.Anchors)
					failed = true
				}
			}
		}
	}
	return failed
}

func untracedRuns(s *resultSet, workload string) []*report {
	var out []*report
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func metricRuns(runs []*report, name string) []metric {
	var out []metric
	for _, r := range runs {
		if m, ok := r.metric(name); ok {
			out = append(out, m)
		}
	}
	return out
}

func maxFailedFrac(runs []*report) float64 {
	f := 0.0
	for _, r := range runs {
		f = max(f, float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	return f
}

// compareMain is "valmod-bench compare [-benchmark BENCHMARK.json] old.json
// new.json"; it exits 1 when compareSets finds a failure.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	path := fs.String("benchmark", "", "BENCHMARK.json holding the bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: valmod-bench compare [-benchmark BENCHMARK.json] old.json new.json")
		return 2
	}
	if *path == "" {
		*path = "BENCHMARK.json"
		if _, err := os.Stat(*path); err != nil {
			*path = "../BENCHMARK.json"
		}
	}
	bounds, err := loadBounds(*path)
	var old, cur resultSet
	if err == nil {
		err = readJSON(fs.Arg(0), &old)
	}
	if err == nil {
		err = readJSON(fs.Arg(1), &cur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "valmod-bench compare:", err)
		return 2
	}
	if compareSets(w, &old, &cur, bounds) {
		fmt.Fprintln(w, "FAIL")
		return 1
	}
	fmt.Fprintln(w, "PASS")
	return 0
}
