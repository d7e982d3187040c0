package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	valmod "github.com/seriesmining/valmod"
)

// ckptSignal wraps a WAL and signals once a job has persisted minCkpts
// checkpoints, so interruption tests can kill the process deterministically
// mid-run instead of racing a sleep against the engine.
type ckptSignal struct {
	*WAL
	minCkpts int64
	n        atomic.Int64
	once     sync.Once
	ch       chan struct{}
}

func newCkptSignal(w *WAL, min int) *ckptSignal {
	return &ckptSignal{WAL: w, minCkpts: int64(min), ch: make(chan struct{})}
}

func (c *ckptSignal) SaveCheckpoint(id string, ckpt []byte) error {
	err := c.WAL.SaveCheckpoint(id, ckpt)
	if c.n.Add(1) >= c.minCkpts {
		c.once.Do(func() { close(c.ch) })
	}
	return err
}

// TestRecoverResumesInterruptedDiscover is the tentpole scenario: a
// discover job is interrupted by a drain mid-run, and the restarted
// manager re-queues it under its original ID, resumes from the last
// durable checkpoint rather than from scratch, and produces a result
// byte-identical to an uninterrupted run.
func TestRecoverResumesInterruptedDiscover(t *testing.T) {
	dir := t.TempDir()
	wal1, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Cadence 16: every checkpoint serializes and fsyncs the engine's
	// carried state, so the test keeps checkpoints sparse to stay fast
	// while still interrupting after two real frames.
	sig := newCkptSignal(wal1, 2)
	m1 := NewManager(Config{MaxConcurrent: 1, Store: sig, CheckpointEvery: 16})
	values := testSeries(3000)
	req := JobRequest{Values: values, LMin: 16, LMax: 160, Workers: 1}
	job, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig.ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("no checkpoint written after 60s (job state %s)", job.Status().State)
	}
	m1.Shutdown()
	if st := waitTerminal(t, job); st.State != StateCanceled {
		t.Fatalf("drained job state = %s, want canceled (finished before the drain?)", st.State)
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	m2 := NewManager(Config{MaxConcurrent: 1, Store: wal2, CheckpointEvery: 16})
	if err := m2.Recover(wal2.Recovered()); err != nil {
		t.Fatal(err)
	}
	job2, ok := m2.Job(job.ID)
	if !ok {
		t.Fatalf("interrupted job %s not re-queued after restart", job.ID)
	}
	// The first progress event of the resumed run proves it picked up from
	// the checkpoint: Done counts absolute completed lengths, so a resume
	// past the >=3 checkpointed lengths starts above 1.
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	first, okEv := <-job2.Watch(watchCtx)
	if !okEv {
		t.Fatal("resumed job produced no events")
	}
	if first.Done <= 1 {
		t.Fatalf("resumed run's first progress event Done=%d, want >1 (ran from scratch?)", first.Done)
	}
	st2 := waitTerminal(t, job2)
	if st2.State != StateDone {
		t.Fatalf("resumed job: state=%s err=%q", st2.State, st2.Error)
	}
	direct, err := valmod.Discover(values, req.LMin, req.LMax, req.options())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ResultOf(direct))
	got, _ := json.Marshal(st2.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run\n got %s\nwant %s", got, want)
	}
	m2.Shutdown()
}

// TestRecoverStaleCheckpointRerunsByteIdentical: an interrupted job whose
// durable checkpoint the engine refuses — here a frame of the same series
// under another range, whose config digest differs from the job's, as the
// digest of every frame written before an engine change that moves output
// bits does — re-runs from scratch on recovery, and the result is
// byte-identical to an uninterrupted run.
func TestRecoverStaleCheckpointRerunsByteIdentical(t *testing.T) {
	values := testSeries(1500)
	var stale []byte
	if _, err := valmod.Discover(values, 16, 40, valmod.Options{Workers: 1, CheckpointEvery: 8,
		Checkpoint: func(b []byte) error { stale = append(stale[:0], b...); return nil }}); err != nil {
		t.Fatal(err)
	}
	if stale == nil {
		t.Fatal("no checkpoint written")
	}
	req := JobRequest{SeriesID: "s_stale", LMin: 16, LMax: 48, Workers: 1}
	if _, err := valmod.NewEngine(req.options()).DiscoverResume(context.Background(), values, req.LMin, req.LMax, stale); !errors.Is(err, valmod.ErrBadCheckpoint) {
		t.Fatalf("stale frame: want ErrBadCheckpoint, got %v", err)
	}

	dir := t.TempDir()
	wal1, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal1.SaveSeries(req.SeriesID, values); err != nil {
		t.Fatal(err)
	}
	if err := wal1.SaveSubmit("j_stale", req); err != nil {
		t.Fatal(err)
	}
	if err := wal1.SaveCheckpoint("j_stale", stale); err != nil {
		t.Fatal(err)
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	m := NewManager(Config{MaxConcurrent: 1, Store: wal2})
	defer m.Shutdown()
	if err := m.Recover(wal2.Recovered()); err != nil {
		t.Fatal(err)
	}
	job, ok := m.Job("j_stale")
	if !ok {
		t.Fatal("interrupted job not re-queued after restart")
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("recovered job: state=%s err=%q", st.State, st.Error)
	}
	if ev := collectEvents(t, job); len(ev) == 0 || ev[0].Done != 1 {
		t.Fatalf("recovered job's events %v: want a from-scratch run starting at Done=1", ev)
	}
	direct, err := valmod.Discover(values, req.LMin, req.LMax, req.options())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ResultOf(direct))
	got, _ := json.Marshal(st.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("re-run result differs from an uninterrupted run\n got %s\nwant %s", got, want)
	}
}

// collectEvents drains a job's full event history after it is terminal.
func collectEvents(t *testing.T, j *Job) []Event {
	t.Helper()
	var out []Event
	for e := range j.Watch(context.Background()) {
		out = append(out, e)
	}
	return out
}

// TestRecoverRebuildsInterruptedStream: a stream job interrupted by a
// drain is rebuilt on restart by replaying its logged appends, keeps
// accepting chunks, and its final result and regenerated event history
// match a never-interrupted stream fed the same chunk sequence.
func TestRecoverRebuildsInterruptedStream(t *testing.T) {
	values := testSeries(600)
	var chunks [][]float64
	for i := 0; i < len(values); i += 37 {
		end := i + 37
		if end > len(values) {
			end = len(values)
		}
		chunks = append(chunks, values[i:end])
	}
	split := len(chunks) / 2
	req := JobRequest{Kind: KindStream, LMin: 8, LMax: 16, Workers: 1}

	dir := t.TempDir()
	wal1, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{Store: wal1})
	job, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks[:split] {
		if err := job.AppendStream(c); err != nil {
			t.Fatal(err)
		}
	}
	m1.Shutdown()
	waitTerminal(t, job)
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	m2 := NewManager(Config{Store: wal2})
	if err := m2.Recover(wal2.Recovered()); err != nil {
		t.Fatal(err)
	}
	job2, ok := m2.Job(job.ID)
	if !ok {
		t.Fatalf("interrupted stream %s not rebuilt after restart", job.ID)
	}
	if st := job2.Status(); st.State != StateRunning || st.N != 37*split {
		t.Fatalf("rebuilt stream: state=%s n=%d, want running with n=%d", st.State, st.N, 37*split)
	}
	for _, c := range chunks[split:] {
		if err := job2.AppendStream(c); err != nil {
			t.Fatal(err)
		}
	}
	job2.Cancel()
	st2 := waitTerminal(t, job2)
	if st2.State != StateDone {
		t.Fatalf("closed stream: state=%s err=%q", st2.State, st2.Error)
	}

	// Reference: the same chunk sequence into a never-interrupted stream.
	m3 := NewManager(Config{})
	ref, err := m3.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := ref.AppendStream(c); err != nil {
			t.Fatal(err)
		}
	}
	ref.Cancel()
	stRef := waitTerminal(t, ref)

	want, _ := json.Marshal(stRef.Result)
	got, _ := json.Marshal(st2.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered stream result differs from uninterrupted stream\n got %s\nwant %s", got, want)
	}
	if evGot, evWant := collectEvents(t, job2), collectEvents(t, ref); !reflect.DeepEqual(evGot, evWant) {
		t.Fatalf("recovered stream events differ from uninterrupted stream\n got %+v\nwant %+v", evGot, evWant)
	}
}

// TestRecoverTerminalStubs: done and user-canceled jobs, and uploaded
// series, survive a restart as queryable state — the done job with its
// exact result bytes, the canceled job with its state, the series usable
// by new submissions.
func TestRecoverTerminalStubs(t *testing.T) {
	dir := t.TempDir()
	wal1, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{MaxConcurrent: 1, Store: wal1})
	small := testSeries(600)
	info, err := m1.UploadSeries(small)
	if err != nil {
		t.Fatal(err)
	}
	jobD, err := m1.Submit(JobRequest{SeriesID: info.ID, LMin: 16, LMax: 24, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stD := waitTerminal(t, jobD)
	if stD.State != StateDone {
		t.Fatalf("seed job: state=%s err=%q", stD.State, stD.Error)
	}
	jobC, err := m1.Submit(JobRequest{Values: testSeries(6000), LMin: 16, LMax: 300, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobC.Cancel()
	if st := waitTerminal(t, jobC); st.State != StateCanceled {
		t.Fatalf("canceled job: state=%s", st.State)
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	m2 := NewManager(Config{MaxConcurrent: 1, Store: wal2})
	if err := m2.Recover(wal2.Recovered()); err != nil {
		t.Fatal(err)
	}
	d2, ok := m2.Job(jobD.ID)
	if !ok {
		t.Fatalf("done job %s lost across restart", jobD.ID)
	}
	st := d2.Status()
	if st.State != StateDone {
		t.Fatalf("recovered done job: state=%s", st.State)
	}
	want, _ := json.Marshal(stD.Result)
	got, _ := json.Marshal(st.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs\n got %s\nwant %s", got, want)
	}
	if c2, ok := m2.Job(jobC.ID); !ok || c2.Status().State != StateCanceled {
		t.Fatalf("canceled job not recovered as canceled")
	}
	if _, ok := m2.Series(info.ID); !ok {
		t.Fatalf("series %s lost across restart", info.ID)
	}
	// The recovered series is live, not just metadata: a new job resolves it.
	fresh, err := m2.Submit(JobRequest{SeriesID: info.ID, LMin: 20, LMax: 28, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, fresh); st.State != StateDone {
		t.Fatalf("job on recovered series: state=%s err=%q", st.State, st.Error)
	}
}

// TestRecoverUnresumableJobFailsDurably: an interrupted job whose series
// no longer exists is marked failed with a reason naming the series, and
// the failure is written through the store so the next restart recovers it
// as a terminal stub instead of re-deciding it.
func TestRecoverUnresumableJobFailsDurably(t *testing.T) {
	dir := t.TempDir()
	wal1, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal1.SaveSubmit("j_ghost", JobRequest{SeriesID: "s_ghost", LMin: 16, LMax: 32}); err != nil {
		t.Fatal(err)
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{Store: wal2})
	if err := m2.Recover(wal2.Recovered()); err != nil {
		t.Fatal(err)
	}
	g, ok := m2.Job("j_ghost")
	if !ok {
		t.Fatal("unresumable job vanished instead of failing with a reason")
	}
	st := g.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "s_ghost") {
		t.Fatalf("unresumable job: state=%s err=%q, want failed naming the series", st.State, st.Error)
	}
	if err := wal2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third boot: the failure must now be a durable terminal record.
	wal3, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal3.Close()
	var rj *RecoveredJob
	for i := range wal3.Recovered().Jobs {
		if wal3.Recovered().Jobs[i].ID == "j_ghost" {
			rj = &wal3.Recovered().Jobs[i]
		}
	}
	if rj == nil || !rj.Done || rj.State != StateFailed {
		t.Fatalf("failure not durable: %+v", rj)
	}
}

// TestWALTornTailTruncated: a crash mid-write leaves a torn final record;
// the WAL must truncate it on open and keep serving, losing only that
// record.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	wal1, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal1.SaveSeries("s_1", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := wal1.SaveSubmit("j_1", JobRequest{SeriesID: "s_1", LMin: 2, LMax: 3}); err != nil {
		t.Fatal(err)
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"series","id":"s_torn","values":[4,5`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	wal2, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("torn tail must truncate, not fail: %v", err)
	}
	rec := wal2.Recovered()
	if len(rec.Series) != 1 || rec.Series[0].ID != "s_1" || len(rec.Jobs) != 1 {
		t.Fatalf("recovered %+v, want exactly s_1 and j_1", rec)
	}
	// The truncated log keeps accepting records at the repaired offset.
	if err := wal2.SaveSeries("s_2", []float64{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := wal2.Close(); err != nil {
		t.Fatal(err)
	}
	wal3, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal3.Close()
	if got := len(wal3.Recovered().Series); got != 2 {
		t.Fatalf("after repair+append recovered %d series, want 2", got)
	}
}

// TestWALInteriorCorruptionRefused: a flipped byte in the middle of the
// log is not a torn tail — silently dropping interior records could
// resurrect canceled jobs or lose results, so the WAL must refuse to open.
func TestWALInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	wal1, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s_a", "s_b", "s_c"} {
		if err := wal1.SaveSeries(id, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("expected >=4 log lines, got %d", len(lines))
	}
	lines[2][0] = 'X' // second record (after the header) is now not JSON
	if err := os.WriteFile(logPath, bytes.Join(lines, nil), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir); err == nil {
		t.Fatal("interior corruption must refuse to open, got nil error")
	}
}
