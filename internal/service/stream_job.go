package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	valmod "github.com/seriesmining/valmod"
)

// KindStream is the JobRequest.Kind selecting a streaming job: the job is
// born running with an empty series, points arrive through POST
// /v1/jobs/{id}/append, and the SSE channel carries motif/discord change
// events instead of per-length progress. DELETE closes the stream: the
// final snapshot becomes the job's result (state "done"), or "canceled"
// when the stream never accumulated lmin points.
const KindStream = "stream"

// Errors of the append path. The HTTP layer maps ErrNotStream to 400 and
// ErrStreamClosed to 409.
var (
	ErrNotStream    = errors.New("service: not a stream job")
	ErrStreamClosed = errors.New("service: stream job already closed")
)

// streamState is the mutable half of a stream job: the live engine plus
// the last published best pair and top discord (in global stream offsets)
// used to detect changes. mu serializes appends and the final close; it is
// never held together with Job.mu (publish/finish take Job.mu after the
// engine work is done), so the lock order is ss.mu → Job.mu.
type streamState struct {
	mu     sync.Mutex
	s      *valmod.Stream
	closed bool
	// total mirrors s.Total() for lock-free Status reads.
	total atomic.Int64

	// persist tees each accepted chunk through the store — nil without
	// one, and during recovery replay (those chunks are already logged).
	// fail seals the stream and fails the job; AppendStream calls it when
	// a chunk's durability is lost or the engine panics mid-append, since
	// continuing either way would let the live stream diverge from what a
	// restart could rebuild. Both are called with mu held.
	persist func(values []float64) error
	fail    func(err error)

	pair       valmod.MotifPair
	hasPair    bool
	discord    valmod.Discord
	hasDiscord bool
}

// submitStream admits a streaming job: no cache, no coalescing, no
// semaphore wait — the job holds no engine slot between appends — but it
// does occupy a live-queue slot until closed, so MaxQueue bounds open
// streams and batch jobs together.
func (m *Manager) submitStream(req JobRequest, opts valmod.Options) (*Job, error) {
	if req.Values != nil || req.SeriesID != "" {
		return nil, fmt.Errorf("%w: stream jobs take points via POST /v1/jobs/{id}/append, not values/series_id", valmod.ErrBadInput)
	}
	// Clamp client-supplied parallelism to the machine, as run does for
	// batch jobs. Sound for the same reason: worker count never changes
	// the output (the stream engine is bit-identical at every setting).
	if limit := runtime.GOMAXPROCS(0); opts.Workers <= 0 || opts.Workers > limit {
		opts.Workers = limit
	}
	st, err := valmod.NewStream(req.LMin, req.LMax, opts)
	if err != nil {
		return nil, err
	}
	id, err := newID("j_")
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.liveJobs >= m.cfg.MaxQueue {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	var job *Job
	job = newJob(id, func() { m.closeStream(job) })
	job.kind = KindStream
	ss := &streamState{s: st}
	job.stream = ss
	if m.store != nil {
		ss.persist = func(v []float64) error { return m.store.SaveAppend(job.ID, v) }
	}
	ss.fail = func(err error) { m.failStream(job, err) }
	m.liveJobs++
	m.registerJobLocked(job)
	m.mu.Unlock()
	if err := m.persistSubmit(id, req); err != nil {
		ss.mu.Lock()
		ss.closed = true
		ss.mu.Unlock()
		job.finish(nil, err)
		m.mu.Lock()
		m.liveJobs--
		m.mu.Unlock()
		return nil, err
	}
	// Born running: a stream job is "executing" from the moment it can
	// accept appends.
	job.setState(StateRunning)
	return job, nil
}

// failStream seals a stream job with err: the engine panicked mid-append
// or the log stopped accepting chunks, so continuing would let the live
// stream diverge from what a restart could rebuild. Called with the
// stream lock held (as ss.fail).
func (m *Manager) failStream(job *Job, err error) {
	job.stream.closed = true
	m.complete(job, nil, err)
	m.mu.Lock()
	m.liveJobs--
	m.mu.Unlock()
}

// closeStream is the stream job's cancel function (Job.Cancel and manager
// Shutdown both land here): it seals the engine against further appends,
// turns the final snapshot into the job's result, and releases the
// live-queue slot. Idempotent via ss.closed.
func (m *Manager) closeStream(job *Job) {
	ss := job.stream
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	var out *Result
	if ss.s.Ready() {
		if res, err := ss.s.Snapshot(); err == nil {
			out = ResultOf(res)
		}
	}
	ss.mu.Unlock()
	var err error
	if out == nil {
		err = context.Canceled
	}
	// A drain close is an interruption, not an outcome: without a
	// terminal record the next process rebuilds the stream live from its
	// logged appends.
	if m.draining.Load() {
		job.finish(out, err)
	} else {
		m.complete(job, out, err)
	}
	m.mu.Lock()
	m.liveJobs--
	m.mu.Unlock()
}

// AppendStream feeds the next chunk of points to a stream job and
// publishes change events: one Kind "best_pair" event whenever the
// globally best motif pair moves to a new location, one Kind "top_discord"
// event whenever the top discord does. Event offsets are global stream
// offsets (window offset + Stream.Start), so they stay stable while a
// sliding window evicts old points. Non-finite values reject the whole
// chunk (wrapping valmod.ErrBadInput) and leave the stream untouched.
// Safe for concurrent callers: appends serialize on the job's stream lock.
func (j *Job) AppendStream(values []float64) (err error) {
	ss := j.stream
	if ss == nil {
		return ErrNotStream
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ErrStreamClosed
	}
	// A panic inside the append path fails this job alone — the engine
	// state is suspect, so the stream seals rather than serving further
	// appends from it.
	defer func() {
		if r := recover(); r != nil {
			perr := fmt.Errorf("service: append panicked: %v\n%s", r, debug.Stack())
			if ss.fail != nil {
				ss.fail(perr)
			} else {
				ss.closed = true
				j.finish(nil, perr)
			}
			err = perr
		}
	}()
	if err := ss.s.Append(values); err != nil {
		return err
	}
	// Chunk accepted → log it. A chunk the log didn't take must seal the
	// stream: acknowledging it would let the live state diverge from what
	// a restart can rebuild. (A crash between accept and log loses only
	// the unacknowledged chunk — the client retries it.)
	if ss.persist != nil {
		if perr := ss.persist(values); perr != nil {
			perr = fmt.Errorf("service: stream append not durable: %w", perr)
			if ss.fail != nil {
				ss.fail(perr)
			}
			return perr
		}
	}
	ss.total.Store(int64(ss.s.Total()))
	if !ss.s.Ready() {
		return nil
	}
	snap, err := ss.s.Snapshot()
	if err != nil {
		return nil // unreachable once Ready; never fail a successful append
	}
	n, start := ss.s.Total(), ss.s.Start()
	if best, ok := snap.BestOverall(); ok {
		best.A += start
		best.B += start
		if !ss.hasPair || !samePlace(ss.pair, best) {
			ss.pair, ss.hasPair = best, true
			p := best
			j.publish(Event{Kind: "best_pair", N: n, Pair: &p})
		}
	}
	if len(snap.Discords) > 0 {
		top := snap.Discords[0]
		top.Offset += start
		if !ss.hasDiscord || ss.discord.Offset != top.Offset || ss.discord.Length != top.Length {
			ss.discord, ss.hasDiscord = top, true
			d := top
			j.publish(Event{Kind: "top_discord", N: n, Discord: &d})
		}
	}
	return nil
}

// samePlace reports whether two pairs name the same subsequences. Change
// detection is by location, not distance: under a sliding window the same
// physical pair can be re-derived through the eviction repair path with a
// last-bit distance difference, which is not a change worth an event.
func samePlace(a, b valmod.MotifPair) bool {
	return a.A == b.A && a.B == b.B && a.Length == b.Length
}
