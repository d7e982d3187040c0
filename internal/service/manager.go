package service

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	valmod "github.com/seriesmining/valmod"
)

// Config sizes a Manager. Zero fields select the defaults.
type Config struct {
	// MaxConcurrent bounds the discoveries running at once; further
	// submissions queue (default 2).
	MaxConcurrent int
	// CacheEntries is the LRU result-cache capacity (default 64; negative
	// disables the cache).
	CacheEntries int
	// MaxJobs bounds retained jobs; the oldest terminal jobs are evicted
	// first (default 256).
	MaxJobs int
	// MaxSeries bounds uploaded series retained for reference by later
	// jobs; the oldest are evicted first (default 64).
	MaxSeries int
	// MaxBodyBytes caps HTTP request bodies (default 64 MiB; negative
	// disables the cap). Applied by the transport before decoding, so an
	// oversized upload is rejected without materializing it.
	MaxBodyBytes int64
	// MaxQueue bounds live jobs — queued, running, and coalesced
	// followers alike (each holds goroutines and event state);
	// submissions beyond it are rejected with ErrQueueFull rather than
	// accumulated without bound (default 64). Cache hits don't count —
	// they are born terminal and never occupy a slot.
	MaxQueue int
	// Store, when non-nil, makes the manager durable: series uploads,
	// submissions, stream appends, engine checkpoints, and terminal
	// outcomes are persisted through it, and Manager.Recover replays them
	// after a restart. nil keeps everything in memory (the pre-WAL
	// behavior).
	Store Store
	// MaxJobSeconds caps every discover job's executing wall-clock time
	// (measured from when the job acquires an engine slot, so queue wait
	// is not billed). It bounds client-supplied timeout_sec from above; a
	// job that runs past its budget fails with a "deadline exceeded"
	// reason. 0 means no server-side cap. Stream jobs are exempt: they
	// hold no engine slot between appends.
	MaxJobSeconds int
	// CheckpointEvery sets the checkpoint cadence for durable discover
	// jobs in completed lengths (default 8). A checkpoint serializes the
	// engine's full carried state — on the pruned pass dominated by the
	// partial profiles, min(p, 4) to p entries per subsequence (about
	// 1.9 MB for a pairs query over 20 000 points) — and fsyncs it, so
	// per-length checkpointing can be I/O-bound; raise the cadence to
	// trade recovery granularity for throughput, lower it (1 = every
	// length) when restarts must lose almost nothing. Ignored without a
	// Store.
	CheckpointEvery int
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
}

// ErrQueueFull is returned by Submit when MaxQueue live jobs already
// exist; the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("service: job queue full, retry later")

// JobRequest is one discovery submission: a series (inline values or a
// reference to an uploaded one), the length range, and the engine options.
// Zero option fields select the library defaults. A positive Discords
// changes the query kind from pairs-only to pairs+discords: the result
// additionally carries the exact variable-length discords, and the
// submission is cached and coalesced separately from pairs-only queries.
// Fields of retired plan knobs (disable_incremental, length_skip,
// length_stride, refine_radius, strict, carry32) still decode — the
// decoder ignores unknown fields — and the default plan runs.
type JobRequest struct {
	// Kind selects the job shape: "" or "discover" is a batch discovery;
	// KindStream ("stream") opens a live stream job fed through POST
	// /v1/jobs/{id}/append (no values/series_id at submit time).
	Kind     string    `json:"kind,omitempty"`
	Values   []float64 `json:"values,omitempty"`
	SeriesID string    `json:"series_id,omitempty"`
	LMin     int       `json:"lmin"`
	LMax     int       `json:"lmax"`
	// WindowCap bounds a stream job to the trailing WindowCap points
	// (sliding-window mode); 0 keeps everything. Ignored by batch jobs.
	WindowCap         int     `json:"window_cap,omitempty"`
	TopK              int     `json:"topk,omitempty"`
	P                 int     `json:"p,omitempty"`
	ExclusionFactor   int     `json:"exclusion_factor,omitempty"`
	RecomputeFraction float64 `json:"recompute_fraction,omitempty"`
	Discords          int     `json:"discords,omitempty"`
	Workers           int     `json:"workers,omitempty"`
	// TimeoutSec caps this job's executing wall-clock time in seconds;
	// the server's MaxJobSeconds bounds it from above (the effective
	// budget is the smaller of the two). A job that exceeds it fails with
	// a "deadline exceeded" reason — failed, not canceled, because nobody
	// asked for it to stop. 0 leaves only the server cap. Excluded from
	// the cache key: a submission answered from the cache or coalesced
	// onto an identical running job does no work of its own to bound (a
	// coalesced follower shares the leader's budget). Ignored by stream
	// jobs. After a crash and restart the budget starts over — it bounds
	// one execution attempt, not the job's lifetime.
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// options maps the request's engine knobs onto valmod.Options.
func (r JobRequest) options() valmod.Options {
	return valmod.Options{
		TopK:              r.TopK,
		P:                 r.P,
		ExclusionFactor:   r.ExclusionFactor,
		RecomputeFraction: r.RecomputeFraction,
		Discords:          r.Discords,
		Workers:           r.Workers,
	}
}

// SeriesInfo describes one uploaded series.
type SeriesInfo struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

type storedSeries struct {
	values []float64
	hash   [sha256.Size]byte
}

// Stats counts the manager's work, primarily so tests (and operators) can
// tell cache hits from engine runs.
type Stats struct {
	// EngineRuns counts discoveries actually executed by the engine.
	EngineRuns int64 `json:"engine_runs"`
	// CacheHits counts submissions answered from the result cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts submissions that had to run (or queue).
	CacheMisses int64 `json:"cache_misses"`
	// Coalesced counts submissions attached to an identical in-flight job.
	Coalesced int64 `json:"coalesced"`
	// Plan aggregates the engine's per-length plan stats over every
	// executed run (cache hits and coalesced followers add nothing: no
	// engine work happened for them).
	Plan PlanTotals `json:"plan"`
}

// PlanTotals aggregates valmod.PlanStats across runs.
type PlanTotals struct {
	PrunedLengths      int64 `json:"pruned_lengths"`
	IncrementalLengths int64 `json:"incremental_lengths"`
	RecomputeLengths   int64 `json:"recompute_lengths"`
	SkippedLengths     int64 `json:"skipped_lengths"`
	HeadSeeds          int64 `json:"head_seeds"`
	HeadExtensions     int64 `json:"head_extensions"`
}

// Manager owns the serving state: the shared base engine, the concurrency
// semaphore, the result cache, and the job and series tables.
type Manager struct {
	cfg   Config
	base  *valmod.Engine // jobs run via base.WithOptions → shared pools
	sem   chan struct{}
	cache *resultCache
	store Store // nil = in-memory only
	// draining marks a shutdown in progress: jobs canceled while it is
	// set get no terminal record in the store, so recovery re-queues them
	// (a drain interruption is not an outcome the client asked for).
	draining atomic.Bool

	engineRuns  atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64

	planPruned      atomic.Int64
	planIncremental atomic.Int64
	planRecompute   atomic.Int64
	planSkipped     atomic.Int64
	planHeadSeeds   atomic.Int64
	planHeadExtends atomic.Int64

	mu          sync.Mutex
	jobs        map[string]*Job
	jobOrder    []string // insertion order, drives terminal-first eviction
	inflight    map[cacheKey]*Job
	liveJobs    int // queued + running, bounded by cfg.MaxQueue
	series      map[string]*storedSeries
	seriesOrder []string
}

// NewManager returns a ready Manager.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	return &Manager{
		cfg:      cfg,
		base:     valmod.NewEngine(valmod.Options{}),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		cache:    newResultCache(cfg.CacheEntries),
		store:    cfg.Store,
		jobs:     make(map[string]*Job),
		inflight: make(map[cacheKey]*Job),
		series:   make(map[string]*storedSeries),
	}
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		EngineRuns:  m.engineRuns.Load(),
		CacheHits:   m.cacheHits.Load(),
		CacheMisses: m.cacheMisses.Load(),
		Coalesced:   m.coalesced.Load(),
		Plan: PlanTotals{
			PrunedLengths:      m.planPruned.Load(),
			IncrementalLengths: m.planIncremental.Load(),
			RecomputeLengths:   m.planRecompute.Load(),
			SkippedLengths:     m.planSkipped.Load(),
			HeadSeeds:          m.planHeadSeeds.Load(),
			HeadExtensions:     m.planHeadExtends.Load(),
		},
	}
}

// newID returns a fresh random handle with the given prefix. A failing
// entropy source is reported as an error — it fails the one submission
// that hit it instead of taking the whole process down.
func newID(prefix string) (string, error) {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: generate id: %w", err)
	}
	return prefix + hex.EncodeToString(b[:]), nil
}

// UploadSeries stores values for reference by later jobs and returns its
// handle. The data is validated here (non-empty, all finite) so bad
// series are rejected at the point they enter rather than failing every
// job that references them, and hashed once so jobs referencing it skip
// the per-submission hash.
func (m *Manager) UploadSeries(values []float64) (SeriesInfo, error) {
	if err := valmod.ValidateSeries(values); err != nil {
		return SeriesInfo{}, err
	}
	s := &storedSeries{values: values, hash: hashSeries(values)}
	id, err := newID("s_")
	if err != nil {
		return SeriesInfo{}, err
	}
	// Durable before visible: once a job can reference the ID, a restart
	// must be able to resolve it.
	if m.store != nil {
		if err := m.store.SaveSeries(id, values); err != nil {
			return SeriesInfo{}, fmt.Errorf("service: persist series: %w", err)
		}
	}
	m.insertSeries(id, s)
	return SeriesInfo{ID: id, N: len(values)}, nil
}

// insertSeries adds a validated series under id, applying the retention
// cap. Shared by UploadSeries and recovery replay.
func (m *Manager) insertSeries(id string, s *storedSeries) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.series[id] = s
	m.seriesOrder = append(m.seriesOrder, id)
	for len(m.seriesOrder) > m.cfg.MaxSeries {
		evict := m.seriesOrder[0]
		m.seriesOrder = m.seriesOrder[1:]
		delete(m.series, evict)
	}
}

// Series returns the metadata of an uploaded series.
func (m *Manager) Series(id string) (SeriesInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.series[id]
	if !ok {
		return SeriesInfo{}, false
	}
	return SeriesInfo{ID: id, N: len(s.values)}, true
}

// Submit validates the request synchronously (errors wrap
// valmod.ErrBadInput) and returns the job. On a cache hit the job is
// already done. A submission identical to one still in flight coalesces
// onto the running job — the returned job (and its ID, progress, and
// cancellation) is shared. Otherwise a fresh job is queued and runs as
// soon as the semaphore admits it.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	var values []float64
	var hash [sha256.Size]byte
	if req.TimeoutSec < 0 {
		return nil, fmt.Errorf("%w: timeout_sec=%d: must be >= 0 (0 leaves only the server cap)", valmod.ErrBadInput, req.TimeoutSec)
	}
	opts := req.options()
	switch req.Kind {
	case "", "discover":
	case KindStream:
		// Stream jobs bypass the cache and coalescing (each stream is its
		// own mutable state, never shareable) but count toward MaxQueue.
		// WindowCap only reaches the engine here: batch discoveries ignore
		// it, and keeping it out of their options keeps the cache key
		// insensitive to a field that cannot change a batch result.
		opts.WindowCap = req.WindowCap
		return m.submitStream(req, opts)
	default:
		return nil, fmt.Errorf("%w: kind=%q: want \"discover\" or \"stream\"", valmod.ErrBadInput, req.Kind)
	}
	switch {
	case req.SeriesID != "" && req.Values != nil:
		return nil, fmt.Errorf("%w: values/series_id: give one, not both", valmod.ErrBadInput)
	case req.SeriesID != "":
		m.mu.Lock()
		s, ok := m.series[req.SeriesID]
		m.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: series_id=%q: unknown series", valmod.ErrBadInput, req.SeriesID)
		}
		values, hash = s.values, s.hash
		// The series was scanned at upload time; only the query needs
		// checking — keeps the submit path O(1) in the series length.
		if err := valmod.ValidateQuery(len(values), req.LMin, req.LMax, opts); err != nil {
			return nil, err
		}
	default:
		if err := valmod.Validate(req.Values, req.LMin, req.LMax, opts); err != nil {
			return nil, err
		}
		values, hash = req.Values, hashSeries(req.Values)
	}

	key := resultKey(hash, req.LMin, req.LMax, opts)
	if res, ok := m.cache.Get(key); ok {
		return m.cachedJob(res)
	}
	// The ID is minted before the lock (either branch below uses it) and
	// the submission record is written after it: disk I/O never runs
	// under m.mu.
	id, err := newID("j_")
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if leader, ok := m.inflight[key]; ok && leader.alive() {
		// Single-flight: instead of running the discovery twice, hand the
		// caller a follower job that mirrors the leader's progress and
		// result under its own ID. Its Cancel withdraws only this
		// submitter's vote, so clients of a shared discovery stay
		// isolated from each other's cancellations. Followers hold a
		// goroutine and a mirrored event log, so they occupy queue slots
		// like any other live job; the attach is a CAS that refuses
		// leaders whose last vote is already spent.
		if m.liveJobs >= m.cfg.MaxQueue {
			m.mu.Unlock()
			return nil, ErrQueueFull
		}
		if leader.tryAttach() {
			m.liveJobs++
			fctx, fcancel := context.WithCancel(context.Background())
			follower := newJob(id, fcancel)
			follower.ctxDone = fctx.Done()
			follower.onCancel = func() {
				fcancel()
				leader.withdrawVote()
			}
			m.registerJobLocked(follower)
			m.mu.Unlock()
			if err := m.persistSubmit(id, req); err != nil {
				leader.withdrawVote()
				fcancel()
				follower.finish(nil, err)
				m.mu.Lock()
				m.liveJobs--
				m.mu.Unlock()
				return nil, err
			}
			m.coalesced.Add(1)
			go m.follow(fctx, follower, leader)
			return follower, nil
		}
	}
	// Re-check the cache under the lock: an identical leader may have
	// finished (Put + inflight cleared) since the lock-free Get above.
	if res, ok := m.cache.Get(key); ok {
		m.mu.Unlock()
		return m.cachedJob(res)
	}
	if m.liveJobs >= m.cfg.MaxQueue {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := newJob(id, cancel)
	job.ctxDone = ctx.Done()
	m.liveJobs++
	m.inflight[key] = job
	m.registerJobLocked(job)
	m.mu.Unlock()
	if err := m.persistSubmit(id, req); err != nil {
		cancel()
		job.finish(nil, err)
		m.clearInflight(key, job)
		return nil, err
	}
	m.cacheMisses.Add(1)

	go m.run(ctx, job, key, values, req.LMin, req.LMax, opts, req.TimeoutSec, nil)
	return job, nil
}

// persistSubmit records an accepted submission before its goroutine
// starts. A store failure rejects the submission — running a job a
// restart would silently forget is worse than making the client retry.
func (m *Manager) persistSubmit(id string, req JobRequest) error {
	if m.store == nil {
		return nil
	}
	if err := m.store.SaveSubmit(id, req); err != nil {
		return fmt.Errorf("service: persist submission: %w", err)
	}
	return nil
}

// follow mirrors a leader onto a follower job: the running transition and
// progress events are re-published under the follower's ID, and the
// leader's terminal outcome becomes the follower's. A canceled follower
// stops mirroring without touching the leader (its vote withdrawal
// happens in onCancel).
func (m *Manager) follow(fctx context.Context, follower, leader *Job) {
	defer func() {
		m.mu.Lock()
		m.liveJobs--
		m.mu.Unlock()
	}()
	defer follower.cancelCtx()
	defer m.guardJob(follower)
	next := 0
	running := false
	for {
		leader.mu.Lock()
		batch := make([]Event, len(leader.events)-next)
		copy(batch, leader.events[next:])
		next = len(leader.events)
		state := leader.state
		changed := leader.changed
		leader.mu.Unlock()

		if !running && state == StateRunning {
			follower.setState(StateRunning)
			running = true
		}
		for _, e := range batch {
			follower.publish(e)
		}
		if state.Terminal() {
			break
		}
		select {
		case <-changed:
		case <-fctx.Done():
			m.complete(follower, nil, context.Canceled)
			return
		}
	}
	switch state, res, err := leader.terminalOutcome(); state {
	case StateDone:
		m.complete(follower, res, nil)
	case StateCanceled:
		m.complete(follower, nil, context.Canceled)
	default:
		if err == nil {
			err = errors.New("service: upstream job failed")
		}
		m.complete(follower, nil, err)
	}
}

// cachedJob registers and returns a job born done with a cached result.
// Cache-hit jobs are not persisted: they did no work, and after a restart
// an identical submission hits the cache or runs again.
func (m *Manager) cachedJob(res *Result) (*Job, error) {
	id, err := newID("j_")
	if err != nil {
		return nil, err
	}
	m.cacheHits.Add(1)
	job := newJob(id, func() {})
	job.cacheHit = true
	job.state = StateDone
	job.result = res
	m.mu.Lock()
	m.registerJobLocked(job)
	m.mu.Unlock()
	return job, nil
}

// run executes one job: wait for a slot, run the engine with a per-job
// progress callback (checkpointing through the store when one is
// configured), store the result in the cache, finish the job. resume,
// when non-nil, is a checkpoint blob from a previous process — the run
// continues from it, falling back to a from-scratch run if the blob
// doesn't validate (determinism makes the fallback equally exact).
func (m *Manager) run(ctx context.Context, job *Job, key cacheKey, values []float64, lmin, lmax int, opts valmod.Options, timeoutSec int, resume []byte) {
	// Registered first so it runs last: by the time the in-flight slot
	// clears, the job is terminal and (on success) the result is cached,
	// so a concurrent identical Submit finds either this job or the cache.
	defer m.clearInflight(key, job)
	defer job.cancelCtx() // release the context's resources
	defer m.guardJob(job)
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-ctx.Done():
		m.complete(job, nil, ctx.Err())
		return
	}
	job.setState(StateRunning)

	// The wall-clock budget starts when the job starts executing, not
	// while it waits in the queue (a queue wait bounded by other jobs'
	// budgets is not this job's fault).
	budget := effectiveTimeout(timeoutSec, m.cfg.MaxJobSeconds)
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	// Clamp client-supplied parallelism to the machine: each engine worker
	// may clone O(n) FFT scratch, so an unbounded request could multiply
	// memory and oversubscribe every core MaxConcurrent is meant to
	// protect. Sound because Workers never changes the output (it is
	// excluded from the cache key for the same reason).
	if limit := runtime.GOMAXPROCS(0); opts.Workers <= 0 || opts.Workers > limit {
		opts.Workers = limit
	}

	opts.Progress = func(p valmod.Progress) {
		job.publish(Event{Done: p.Done, Total: p.Total, Length: p.Result.Length})
	}
	if m.store != nil {
		opts.CheckpointEvery = m.cfg.CheckpointEvery
		opts.Checkpoint = func(b []byte) error {
			return m.store.SaveCheckpoint(job.ID, b)
		}
	}
	m.engineRuns.Add(1)
	eng := m.base.WithOptions(opts)
	var res *valmod.Result
	var err error
	if resume != nil {
		res, err = eng.DiscoverResume(ctx, values, lmin, lmax, resume)
		if errors.Is(err, valmod.ErrBadCheckpoint) {
			// Stale or corrupt checkpoint: the from-scratch re-run is a
			// byte-identical substitute under the determinism contract.
			res, err = eng.DiscoverContext(ctx, values, lmin, lmax)
		}
	} else {
		res, err = eng.DiscoverContext(ctx, values, lmin, lmax)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("deadline exceeded: job ran past its %v wall-clock budget: %w", budget, err)
		}
		m.complete(job, nil, err)
		return
	}
	m.planPruned.Add(int64(res.Plan.PrunedLengths))
	m.planIncremental.Add(int64(res.Plan.IncrementalLengths))
	m.planRecompute.Add(int64(res.Plan.RecomputeLengths))
	m.planSkipped.Add(int64(res.Plan.SkippedLengths))
	m.planHeadSeeds.Add(int64(res.Plan.HeadSeeds))
	m.planHeadExtends.Add(int64(res.Plan.HeadExtensions))
	out := ResultOf(res)
	m.cache.Put(key, out)
	m.complete(job, out, nil)
}

// clearInflight releases the single-flight slot job holds for key and
// returns its live-queue slot.
func (m *Manager) clearInflight(key cacheKey, job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight[key] == job {
		delete(m.inflight, key)
	}
	m.liveJobs--
}

// registerJobLocked adds the job to the table, evicting the oldest
// terminal jobs above the retention cap. Live jobs are never evicted.
// Callers hold m.mu.
func (m *Manager) registerJobLocked(job *Job) {
	m.jobs[job.ID] = job
	m.jobOrder = append(m.jobOrder, job.ID)
	if len(m.jobOrder) <= m.cfg.MaxJobs {
		return
	}
	kept := m.jobOrder[:0]
	excess := len(m.jobOrder) - m.cfg.MaxJobs
	for _, id := range m.jobOrder {
		if excess > 0 {
			if j, ok := m.jobs[id]; ok && j.terminal() {
				delete(m.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	m.jobOrder = kept
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel withdraws one submitter from a job by ID (the job stops once
// every attached submitter has canceled); it reports whether the ID was
// known.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Job(id)
	if ok {
		j.Cancel()
	}
	return ok
}

// Shutdown force-cancels every live job (ignoring cancellation votes) so
// the process can exit promptly. The manager remains usable, but a
// serving process calls this only on its way down. With a Store
// configured the shutdown is checkpoint-aware: jobs interrupted by the
// drain get no terminal record (their last durable checkpoint stays on
// disk), so the next process re-queues and resumes them instead of
// reporting them canceled.
func (m *Manager) Shutdown() {
	m.draining.Store(true)
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.forceCancel()
	}
}

// complete makes job terminal with (res, err), writing the outcome
// through the store first: a client that acts on the terminal state, or
// restarts the server right after seeing it, always finds the record.
// A job is completed from one place only (its run or follow goroutine,
// or the seal of its stream), so the state cannot turn terminal between
// the check and finish.
func (m *Manager) complete(job *Job, res *Result, err error) {
	if job.terminal() {
		return
	}
	m.saveOutcome(job.ID, outcomeState(err), res, err)
	job.finish(res, err)
}

// saveOutcome writes a terminal outcome through the store. Failures are
// swallowed: the in-memory job is correct either way, and the worst
// consequence of a lost outcome record is a redundant re-run after the
// next restart. Drain cancellations are deliberately not persisted — see
// Shutdown.
func (m *Manager) saveOutcome(id string, state State, res *Result, err error) {
	if m.store == nil {
		return
	}
	if state == StateCanceled && m.draining.Load() {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if state != StateDone {
		res = nil
	}
	_ = m.store.SaveOutcome(id, state, msg, res)
}

// guardJob converts a panic on a job goroutine into that job's failure,
// stack attached and written through the store like any outcome, so one
// poisoned input cannot take down the process or any other job. Deferred
// last in m.run/m.follow so it runs first.
func (m *Manager) guardJob(job *Job) {
	if r := recover(); r != nil {
		m.complete(job, nil, fmt.Errorf("service: job panicked: %v\n%s", r, debug.Stack()))
	}
}

// effectiveTimeout combines the client's timeout_sec with the server's
// MaxJobSeconds cap: the smaller positive one wins; zero means no bound
// from that side.
func effectiveTimeout(reqSec, capSec int) time.Duration {
	sec := reqSec
	if capSec > 0 && (sec == 0 || capSec < sec) {
		sec = capSec
	}
	return time.Duration(sec) * time.Second
}
