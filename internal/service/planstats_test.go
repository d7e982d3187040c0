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

	// A pairs-only query: one seeding row scan, then pruned lengths until
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
	switched := 0
	if pairsPlan.IncrementalLengths > 0 {
		switched = 1
	}
	if pairsPlan.RecomputeLengths != 1 || pairsPlan.PrunedLengths < 1 ||
		pairsPlan.PrunedLengths+pairsPlan.IncrementalLengths != lengths-1 || pairsPlan.HeadSeeds != switched {
		t.Fatalf("pairs-only plan stats %+v", pairsPlan)
	}

	// A discords query: every length incremental, one FFT head seed.
	j, err = m.Submit(JobRequest{Values: values, LMin: 16, LMax: 32, TopK: 2, Discords: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	plan := st.Result.Plan
	if plan.IncrementalLengths != lengths || plan.HeadSeeds != 1 || plan.HeadExtensions != lengths-1 {
		t.Fatalf("discords plan stats %+v", plan)
	}

	// The ablation knob forces from-scratch passes and caches separately.
	j, err = m.Submit(JobRequest{Values: values, LMin: 16, LMax: 32, TopK: 2, Discords: 2, Workers: 1, DisableIncremental: true})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.CacheHit {
		t.Fatal("DisableIncremental submission answered from the incremental plan's cache entry")
	}
	plan = st.Result.Plan
	if plan.IncrementalLengths != 0 || plan.RecomputeLengths != lengths {
		t.Fatalf("ablated plan stats %+v", plan)
	}

	// /v1/stats aggregates across the three runs.
	totals := m.Stats().Plan
	if totals.PrunedLengths != int64(pairsPlan.PrunedLengths) ||
		totals.IncrementalLengths != int64(pairsPlan.IncrementalLengths+lengths) ||
		totals.RecomputeLengths != int64(1+lengths) ||
		totals.HeadSeeds != int64(1+switched) ||
		totals.HeadExtensions != int64(pairsPlan.HeadExtensions+lengths-1) {
		t.Fatalf("aggregated plan totals %+v", totals)
	}
}

// TestCoarseToFinePlanStatsAndProgress covers the request plumbing of the
// length-pruning flags: the job result reports the new plan counters, the
// progress stream still reaches Done == Total even though most lengths
// were never given a whole-profile pass, and /v1/stats aggregates the new
// totals.
func TestCoarseToFinePlanStatsAndProgress(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1})
	values := testSeries(900)
	lengths := 35 - 16 + 1

	// Strict LB length skipping.
	j, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 35, TopK: 2, Discords: 2, Workers: 1, LengthSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.Done != st.Total || st.Total != lengths {
		t.Fatalf("progress stalled at %d/%d, want %d/%d", st.Done, st.Total, lengths, lengths)
	}
	plan := st.Result.Plan
	if plan.RecomputeLengths != 1 || plan.LBSkippedLengths+plan.PrunedLengths != lengths-1 {
		t.Fatalf("length-skip plan stats %+v", plan)
	}
	skipTotal := plan.LBSkippedLengths

	// Stride/refine (distinct cache entry: the key covers the new fields).
	j, err = m.Submit(JobRequest{Values: values, LMin: 16, LMax: 35, TopK: 2, Discords: 2, Workers: 1, LengthStride: 5, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.CacheHit {
		t.Fatal("stride submission answered from the length-skip cache entry")
	}
	if st.Done != st.Total || st.Total != lengths {
		t.Fatalf("stride progress stalled at %d/%d", st.Done, st.Total)
	}
	plan = st.Result.Plan
	if plan.StrideScanned != 4 { // lengths 16, 21, 26, 31
		t.Fatalf("stride plan stats %+v", plan)
	}

	totals := m.Stats().Plan
	if totals.LBSkippedLengths != int64(skipTotal+plan.LBSkippedLengths) ||
		totals.StrideScanned != int64(plan.StrideScanned) ||
		totals.RefinedLengths != int64(plan.RefinedLengths) {
		t.Fatalf("aggregated coarse-to-fine totals %+v", totals)
	}
}
