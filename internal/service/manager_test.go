package service

import (
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	valmod "github.com/seriesmining/valmod"
)

// testSeries builds a deterministic series with planted repeats so every
// length range yields non-trivial motifs.
func testSeries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(float64(i)/7) + 0.4*math.Sin(float64(i)/3.1) + 0.05*math.Cos(float64(i)*1.7)
	}
	return out
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t testing.TB, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.Status(); st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state (state=%s)", j.ID, j.Status().State)
	return Status{}
}

func TestManagerConcurrentSubmissionsMatchDirectDiscover(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 3})
	values := testSeries(1200)
	const jobs = 8

	// Distinct ranges so no submission is answered from the cache.
	reqs := make([]JobRequest, jobs)
	for i := range reqs {
		reqs[i] = JobRequest{Values: values, LMin: 16 + i, LMax: 40 + i, TopK: 5, Workers: 1}
	}
	out := make([]*Job, jobs)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := m.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			out[i] = j
		}()
	}
	wg.Wait()
	for i, j := range out {
		if j == nil {
			continue
		}
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("job %d: state=%s err=%q", i, st.State, st.Error)
		}
		direct, err := valmod.Discover(values, reqs[i].LMin, reqs[i].LMax, reqs[i].options())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(ResultOf(direct))
		got, _ := json.Marshal(st.Result)
		if string(got) != string(want) {
			t.Fatalf("job %d: service result differs from direct Discover\n got %s\nwant %s", i, got, want)
		}
	}
	if runs := m.Stats().EngineRuns; runs != jobs {
		t.Errorf("EngineRuns=%d, want %d", runs, jobs)
	}
}

func TestManagerCacheHitSkipsEngine(t *testing.T) {
	m := NewManager(Config{})
	values := testSeries(800)
	req := JobRequest{Values: values, LMin: 16, LMax: 32, Workers: 1}

	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, j1)
	if st1.State != StateDone {
		t.Fatalf("first job: state=%s err=%q", st1.State, st1.Error)
	}

	// Same series, same options modulo defaults and Workers → cache hit.
	j2, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 32, TopK: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status()
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("second job should complete instantly from cache: state=%s cacheHit=%v", st2.State, st2.CacheHit)
	}
	if got, want := mustJSON(t, st2.Result), mustJSON(t, st1.Result); got != want {
		t.Fatal("cached result differs from the original")
	}
	s := m.Stats()
	if s.EngineRuns != 1 || s.CacheHits != 1 {
		t.Errorf("stats=%+v, want 1 engine run and 1 cache hit", s)
	}
}

func TestManagerCancellation(t *testing.T) {
	// One slot, and a long job occupying it, so the second job is
	// cancelable both while queued and while running.
	m := NewManager(Config{MaxConcurrent: 1})
	values := testSeries(6000)
	long := JobRequest{Values: values, LMin: 16, LMax: 600, Workers: 1}

	j1, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 599, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// j2 is queued behind j1; canceling it must resolve it without a run.
	if !m.Cancel(j2.ID) {
		t.Fatal("Cancel should know the job")
	}
	if st := waitTerminal(t, j2); st.State != StateCanceled {
		t.Fatalf("queued cancel: state=%s, want canceled", st.State)
	}
	// Cancel the running job too.
	j1.Cancel()
	if st := waitTerminal(t, j1); st.State != StateCanceled {
		t.Fatalf("running cancel: state=%s, want canceled", st.State)
	}
	if m.Cancel("j_nope") {
		t.Error("Cancel of an unknown ID should report false")
	}
}

func TestManagerSeriesUploadAndReference(t *testing.T) {
	m := NewManager(Config{})
	values := testSeries(600)
	if _, err := m.UploadSeries([]float64{1, math.NaN(), 3}); !errors.Is(err, valmod.ErrBadInput) {
		t.Fatalf("non-finite upload: want ErrBadInput, got %v", err)
	}
	info, err := m.UploadSeries(values)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != len(values) {
		t.Fatalf("N=%d, want %d", info.N, len(values))
	}
	if _, ok := m.Series(info.ID); !ok {
		t.Fatal("uploaded series should be retrievable")
	}
	j, err := m.Submit(JobRequest{SeriesID: info.ID, LMin: 16, LMax: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("state=%s err=%q", st.State, st.Error)
	}
	// Inline submission of the same values must hit the cache: the key is
	// the series hash, not the storage path.
	j2, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 32})
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); !st.CacheHit {
		t.Error("inline resubmission of an uploaded series should hit the cache")
	}
}

// TestManagerCoalescesInflight: a submission identical to one still in
// flight must not run the engine twice — it gets a follower job under its
// own ID, with per-submitter cancellation isolation.
func TestManagerCoalescesInflight(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1})
	values := testSeries(5000)
	req := JobRequest{Values: values, LMin: 16, LMax: 300, Workers: 1}

	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(req) // identical, while j1 is queued/running
	if err != nil {
		t.Fatal(err)
	}
	if j2 == j1 || j2.ID == j1.ID {
		t.Fatal("follower must have its own job identity")
	}
	if c := m.Stats().Coalesced; c != 1 {
		t.Errorf("Coalesced=%d, want 1", c)
	}
	// The follower mirrors the leader's lifecycle: once the leader runs,
	// the follower must report running too, not sit in "queued".
	for deadline := time.Now().Add(10 * time.Second); ; {
		st1, st2 := j1.Status(), j2.Status()
		if st1.State == StateRunning && st2.State == StateRunning {
			break
		}
		if st1.State.Terminal() || st2.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("leader=%s follower=%s, want running/running", st1.State, st2.State)
		}
		time.Sleep(time.Millisecond)
	}
	// A different query must not coalesce.
	j3, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 299, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j3 == j1 {
		t.Fatal("distinct query coalesced onto the wrong job")
	}
	// The leader's cancel — even retried, as HTTP DELETEs are — spends
	// one vote and must not kill the follower's query…
	j1.Cancel()
	j1.Cancel()
	time.Sleep(50 * time.Millisecond)
	if st := j1.Status(); st.State.Terminal() {
		t.Fatalf("leader died while a follower was attached (state=%s)", st.State)
	}
	// …the follower's own cancel withdraws the last vote: both stop.
	j2.Cancel()
	if st := waitTerminal(t, j1); st.State != StateCanceled {
		t.Fatalf("leader state=%s, want canceled", st.State)
	}
	if st := waitTerminal(t, j2); st.State != StateCanceled {
		t.Fatalf("follower state=%s, want canceled", st.State)
	}
	j3.Cancel()
	waitTerminal(t, j3)
	// The doomed leader must not adopt new submitters: an identical
	// submission after cancellation gets a fresh run, not a dead job.
	j4, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j4 == j1 || j4 == j2 {
		t.Fatal("new submission coalesced onto a canceled job")
	}
	j4.Cancel()
	waitTerminal(t, j4)
}

// TestManagerFollowerMirrorsResult: a follower completes with the
// leader's exact result while the engine runs once.
func TestManagerFollowerMirrorsResult(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1})
	values := testSeries(1000)
	// A blocker holds the single slot so the leader is still queued when
	// the follower attaches.
	blocker, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 200, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker holds the slot, so its engine run is counted
	// deterministically and the leader below is surely queued.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if st := blocker.Status(); st.State == StateRunning {
			break
		} else if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("blocker never started running (state=%s)", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	req := JobRequest{Values: values, LMin: 20, LMax: 40, Workers: 1}
	leader, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if follower == leader {
		t.Fatal("expected a follower job")
	}
	blocker.Cancel()
	stL := waitTerminal(t, leader)
	stF := waitTerminal(t, follower)
	if stL.State != StateDone || stF.State != StateDone {
		t.Fatalf("leader=%s follower=%s, want done/done", stL.State, stF.State)
	}
	if mustJSON(t, stF.Result) != mustJSON(t, stL.Result) {
		t.Fatal("follower result differs from leader result")
	}
	if stF.Done != stL.Done || stF.Total != stL.Total {
		t.Fatalf("follower progress %d/%d, leader %d/%d", stF.Done, stF.Total, stL.Done, stL.Total)
	}
	if runs := m.Stats().EngineRuns; runs != 2 { // blocker + leader; follower free
		t.Errorf("EngineRuns=%d, want 2", runs)
	}
}

// TestManagerQueueBound: above MaxQueue live jobs — queued, running, or
// coalesced followers — submissions are rejected with ErrQueueFull.
func TestManagerQueueBound(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1, MaxQueue: 2})
	values := testSeries(5000)
	long := JobRequest{Values: values, LMin: 16, LMax: 300, Workers: 1}

	leader, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 2 of 2: an identical submission coalesces as a follower…
	co, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if co == leader {
		t.Fatal("expected a follower job, not the leader itself")
	}
	// …and the queue is now full for everything, distinct or identical:
	// followers hold goroutines and event state, so they count too.
	if _, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 299, Workers: 1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("distinct past full queue: want ErrQueueFull, got %v", err)
	}
	if _, err := m.Submit(long); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("follower past full queue: want ErrQueueFull, got %v", err)
	}
	leader.Cancel()
	co.Cancel() // both submitters withdraw → the discovery stops
	waitTerminal(t, leader)
	waitTerminal(t, co)
	// The slot frees once the leader is terminal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 20, Workers: 1})
		if err == nil {
			waitTerminal(t, j)
			break
		}
		if !errors.Is(err, ErrQueueFull) || time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestManagerClampsWorkers: an absurd client-supplied Workers must not
// reach the engine (each engine worker clones O(n) scratch), and — per
// the determinism contract — must not change the result either.
func TestManagerClampsWorkers(t *testing.T) {
	m := NewManager(Config{CacheEntries: -1}) // no cache: force both runs
	values := testSeries(600)
	j, err := m.Submit(JobRequest{Values: values, LMin: 16, LMax: 24, Workers: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("state=%s err=%q", st.State, st.Error)
	}
	direct, err := valmod.Discover(values, 16, 24, valmod.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, st.Result) != mustJSON(t, ResultOf(direct)) {
		t.Fatal("clamped run differs from direct serial run")
	}
}

func TestManagerSubmitValidation(t *testing.T) {
	m := NewManager(Config{})
	cases := []JobRequest{
		{LMin: 8, LMax: 16}, // no series at all
		{Values: []float64{1, 2, 3}, SeriesID: "s_x", LMin: 8, LMax: 16}, // both
		{SeriesID: "s_unknown", LMin: 8, LMax: 16},                       // unknown reference
		{Values: testSeries(100), LMin: 2, LMax: 16},                     // bad range
		{Values: testSeries(100), LMin: 8, LMax: 16, TopK: -1},           // bad option
	}
	for i, req := range cases {
		if _, err := m.Submit(req); !errors.Is(err, valmod.ErrBadInput) {
			t.Errorf("case %d: want ErrBadInput, got %v", i, err)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
