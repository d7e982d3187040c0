package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"

	valmod "github.com/seriesmining/valmod"
)

// Recover replays a store's recovered state into the manager: uploaded
// series come back under their original IDs, terminal jobs come back as
// queryable stubs (result included for done jobs), and jobs that were
// live when the previous process died are re-queued under their original
// IDs — discover jobs resume from their last durable checkpoint (or from
// scratch when none is usable; determinism makes the re-run
// byte-identical), stream jobs are rebuilt by replaying their accepted
// appends. Jobs that cannot be re-queued — their series evicted, their
// request no longer valid — are marked failed with a reason, durably, so
// they don't retry on every restart. Call once, after NewManager and
// before serving traffic; re-queued jobs start executing immediately.
//
// Recovery deliberately ignores MaxQueue: everything being re-queued was
// admitted under it before the crash. Timeout budgets start over — they
// bound one execution attempt, not a job's lifetime across restarts.
func (m *Manager) Recover(rs *RecoveredState) error {
	if rs == nil {
		return nil
	}
	for _, s := range rs.Series {
		if valmod.ValidateSeries(s.Values) != nil {
			// A series that passed validation at upload only fails here
			// through log corruption; jobs referencing it fail below with
			// a reason naming it.
			continue
		}
		m.insertSeries(s.ID, &storedSeries{values: s.Values, hash: hashSeries(s.Values)})
	}
	for _, j := range rs.Jobs {
		switch {
		case j.Done:
			m.recoverStub(j)
		case j.Req.Kind == KindStream:
			m.recoverStream(j)
		default:
			m.recoverDiscover(j)
		}
	}
	return nil
}

// recoverStub rebuilds a terminal job as a queryable record: same ID,
// same state, same result or error, no goroutines.
func (m *Manager) recoverStub(rj RecoveredJob) {
	job := newJob(rj.ID, func() {})
	if rj.Req.Kind == KindStream {
		job.kind = KindStream
	}
	job.state = rj.State
	if rj.Error != "" {
		job.err = errors.New(rj.Error)
	}
	if rj.State == StateDone {
		job.result = rj.Result
	}
	m.mu.Lock()
	m.registerJobLocked(job)
	m.mu.Unlock()
}

// failStub registers an interrupted job as failed with reason and writes
// the outcome through the store, so the failure is decided once rather
// than rediscovered on every restart.
func (m *Manager) failStub(rj RecoveredJob, reason string) {
	job := newJob(rj.ID, func() {})
	if rj.Req.Kind == KindStream {
		job.kind = KindStream
	}
	job.state = StateFailed
	job.err = errors.New(reason)
	m.mu.Lock()
	m.registerJobLocked(job)
	m.mu.Unlock()
	m.saveOutcome(job.ID, job.state, nil, job.err)
}

// recoverDiscover re-queues an interrupted batch discovery under its
// original ID, resuming from its last durable checkpoint when one exists.
func (m *Manager) recoverDiscover(rj RecoveredJob) {
	req := rj.Req
	opts := req.options()
	var values []float64
	var hash [sha256.Size]byte
	switch {
	case req.SeriesID != "" && req.Values != nil:
		m.failStub(rj, "unresumable after restart: submission carries both values and series_id")
		return
	case req.SeriesID != "":
		m.mu.Lock()
		s, ok := m.series[req.SeriesID]
		m.mu.Unlock()
		if !ok {
			m.failStub(rj, fmt.Sprintf("unresumable after restart: series %s is no longer available", req.SeriesID))
			return
		}
		values, hash = s.values, s.hash
	default:
		values, hash = req.Values, hashSeries(req.Values)
	}
	if err := valmod.Validate(values, req.LMin, req.LMax, opts); err != nil {
		m.failStub(rj, fmt.Sprintf("unresumable after restart: %v", err))
		return
	}
	key := resultKey(hash, req.LMin, req.LMax, opts)
	ctx, cancel := context.WithCancel(context.Background())
	job := newJob(rj.ID, cancel)
	job.ctxDone = ctx.Done()
	m.mu.Lock()
	m.liveJobs++
	// Several identical interrupted jobs (a crashed leader plus its
	// persisted followers) each re-run standalone; only the first takes
	// the single-flight slot, so new submissions coalesce onto it.
	if _, taken := m.inflight[key]; !taken {
		m.inflight[key] = job
	}
	m.registerJobLocked(job)
	m.mu.Unlock()
	go m.run(ctx, job, key, values, req.LMin, req.LMax, opts, req.TimeoutSec, rj.Checkpoint)
}

// recoverStream rebuilds an interrupted stream job by replaying its
// accepted appends, chunk for chunk, into a fresh engine — bit-exact,
// since the stream's output is a deterministic function of its chunk
// sequence — then re-arms durability so new appends keep logging.
func (m *Manager) recoverStream(rj RecoveredJob) {
	req := rj.Req
	opts := req.options()
	opts.WindowCap = req.WindowCap
	if limit := runtime.GOMAXPROCS(0); opts.Workers <= 0 || opts.Workers > limit {
		opts.Workers = limit
	}
	st, err := valmod.NewStream(req.LMin, req.LMax, opts)
	if err != nil {
		m.failStub(rj, fmt.Sprintf("unresumable after restart: %v", err))
		return
	}
	var job *Job
	job = newJob(rj.ID, func() { m.closeStream(job) })
	job.kind = KindStream
	ss := &streamState{s: st}
	job.stream = ss
	m.mu.Lock()
	m.liveJobs++
	m.registerJobLocked(job)
	m.mu.Unlock()
	job.setState(StateRunning)
	// Replay with persist unset: the chunks being replayed are already in
	// the log. Change events regenerate deterministically, so a client
	// re-attaching to the SSE stream sees the same history.
	for _, chunk := range rj.Appends {
		_ = job.AppendStream(chunk) // only rejects what the live stream rejected
	}
	ss.mu.Lock()
	if m.store != nil {
		ss.persist = func(v []float64) error { return m.store.SaveAppend(job.ID, v) }
	}
	ss.fail = func(err error) { m.failStream(job, err) }
	ss.mu.Unlock()
}
