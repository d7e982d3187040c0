package service

// Tests for the per-plan instrumentation the serving layer exposes: plan
// stats in job results and their aggregation in Manager.Stats (the
// /v1/stats payload).

import (
	"testing"
)

func TestJobResultAndStatsCarryPlanStats(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1})
	values := testSeries(600)

	// A pairs-only query: one seed sweep, then pruned lengths until
	// the cost model switches the rest to the incremental pass (one FFT
	// head seed when it does).
	j, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 32, TopK: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	lengths := 32 - 16 + 1
	pairsPlan := st.Result.Plan
	if pairsPlan.RecomputeLengths != 1 || pairsPlan.PrunedLengths < 1 ||
		pairsPlan.PrunedLengths+pairsPlan.IncrementalLengths != lengths-1 ||
		pairsPlan.HeadSeeds != pairsPlan.IncrementalLengths || pairsPlan.HeadExtensions != 0 {
		t.Fatalf("pairs-only plan stats %+v", pairsPlan)
	}

	// A discords query: every length incremental, one head row each.
	j, err = m.Submit(JobRequest{Values: values, LMin: 16, LMax: 32, TopK: 2, Discords: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	plan := st.Result.Plan
	if plan.IncrementalLengths != lengths || plan.HeadSeeds != lengths || plan.HeadExtensions != 0 {
		t.Fatalf("discords plan stats %+v", plan)
	}

	// /v1/stats aggregates across the two runs.
	totals := m.Stats().Plan
	if totals.PrunedLengths != int64(pairsPlan.PrunedLengths) ||
		totals.IncrementalLengths != int64(pairsPlan.IncrementalLengths+lengths) ||
		totals.RecomputeLengths != 1 ||
		totals.HeadSeeds != int64(pairsPlan.IncrementalLengths+lengths) ||
		totals.HeadExtensions != 0 {
		t.Fatalf("aggregated plan totals %+v", totals)
	}
}
