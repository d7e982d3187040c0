package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	valmod "github.com/seriesmining/valmod"
)

// State is a job's lifecycle position. A job moves queued → running →
// exactly one of done/failed/canceled; cache hits are born done.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one SSE payload. For batch jobs it is a per-length progress
// notification: Done/Total mirror valmod.Progress and Length is the
// completed subsequence length. For stream jobs it is a change event:
// Kind names what changed ("best_pair" or "top_discord"), N is the total
// points appended when the change was observed, and exactly one of
// Pair/Discord carries the new value with offsets in global stream
// coordinates. The two shapes share one struct so the wire format of the
// existing progress events is unchanged (the stream fields are omitted
// when empty).
type Event struct {
	Done   int `json:"done,omitempty"`
	Total  int `json:"total,omitempty"`
	Length int `json:"length,omitempty"`

	Kind    string            `json:"kind,omitempty"`
	N       int               `json:"n,omitempty"`
	Pair    *valmod.MotifPair `json:"pair,omitempty"`
	Discord *valmod.Discord   `json:"discord,omitempty"`
}

// Result is the JSON payload of a completed job. ResultOf builds the same
// payload from a direct Discover call, so service results can be compared
// byte-for-byte against library runs.
type Result struct {
	N         int                   `json:"n"`
	LMin      int                   `json:"lmin"`
	LMax      int                   `json:"lmax"`
	Best      *valmod.MotifPair     `json:"best,omitempty"`
	PerLength []valmod.LengthResult `json:"per_length"`
	// Discords carries the exact variable-length discords of a
	// pairs+discords query (JobRequest.Discords > 0); omitted otherwise.
	Discords []valmod.Discord `json:"discords,omitempty"`
	// Plan reports how the engine's per-length planner resolved the run
	// (pruned vs incremental vs from-scratch lengths, carried-state
	// seeds/extensions).
	Plan valmod.PlanStats `json:"plan"`
}

// ResultOf converts a library result into the service's wire result.
func ResultOf(r *valmod.Result) *Result {
	out := &Result{N: r.N, LMin: r.LMin, LMax: r.LMax, PerLength: r.PerLength, Discords: r.Discords, Plan: r.Plan}
	if best, ok := r.BestOverall(); ok {
		out.Best = &best
	}
	return out
}

// Status is a point-in-time snapshot of a job, the body of GET
// /v1/jobs/{id}. Result is present only in state "done". Kind is "stream"
// for streaming jobs, with N the total points appended so far; both are
// omitted for batch discoveries.
type Status struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Kind     string  `json:"kind,omitempty"`
	N        int     `json:"n,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Error    string  `json:"error,omitempty"`
	Result   *Result `json:"result,omitempty"`
}

// Job is one submitted discovery. All mutable state sits behind mu;
// broadcast via the changed channel wakes every Watch stream after each
// append or state transition.
type Job struct {
	// ID is the job's handle in the HTTP API.
	ID string

	// cancelCtx fires the job's own context: the engine run for a
	// leader, the mirror stream for a follower.
	cancelCtx context.CancelFunc
	// ctxDone observes that context; Submit uses it to refuse coalescing
	// onto a leader whose cancellation has already fired.
	ctxDone <-chan struct{}
	// votes counts submitters attached to a leader (its own plus one per
	// follower). The discovery is only canceled once every one of them
	// has withdrawn, so no client can kill another client's query.
	votes      atomic.Int64
	cancelOnce sync.Once
	// onCancel spends this job's single cancellation vote; Cancel is
	// idempotent (HTTP DELETE retries must not burn a second vote).
	onCancel func()

	// kind is KindStream for streaming jobs, "" for batch discoveries;
	// stream then holds the live engine and change-detection state.
	kind   string
	stream *streamState

	mu       sync.Mutex
	state    State
	events   []Event
	changed  chan struct{}
	err      error
	result   *Result
	cacheHit bool
}

func newJob(id string, cancel context.CancelFunc) *Job {
	j := &Job{
		ID:        id,
		cancelCtx: cancel,
		state:     StateQueued,
		changed:   make(chan struct{}),
	}
	j.votes.Store(1)
	j.onCancel = j.withdrawVote
	return j
}

// withdrawVote removes one submitter; the last one out cancels the run.
func (j *Job) withdrawVote() {
	if j.votes.Add(-1) <= 0 {
		j.cancelCtx()
	}
}

// tryAttach adds a submitter vote only while the count is still positive.
// Once the last vote is spent the job is committed to cancellation (the
// context fires moments later), so attaching then would hand the new
// submitter a cancellation it never issued — the CAS closes that window.
func (j *Job) tryAttach() bool {
	for {
		v := j.votes.Load()
		if v <= 0 {
			return false
		}
		if j.votes.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// alive reports whether the job can still accept a coalescing submitter:
// not terminal and its cancellation has not already fired (attaching to a
// doomed job would hand the new client a cancellation it never asked for).
func (j *Job) alive() bool {
	if j.ctxDone != nil {
		select {
		case <-j.ctxDone:
			return false
		default:
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.state.Terminal()
}

// terminalOutcome reads the final state; call only after Watch closed.
func (j *Job) terminalOutcome() (State, *Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// broadcastLocked wakes watchers; callers hold mu.
func (j *Job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.broadcastLocked()
}

func (j *Job) publish(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, e)
	j.broadcastLocked()
}

// outcomeState is the terminal state a job ending with err takes.
func outcomeState(err error) State {
	switch {
	case err == nil:
		return StateDone
	case errors.Is(err, context.DeadlineExceeded):
		// A blown deadline is a failure, not a cancellation: nobody asked
		// the job to stop, it ran out of budget. Keeping the two apart
		// gives Status a distinct "deadline exceeded" failure reason.
		return StateFailed
	case errors.Is(err, context.Canceled):
		return StateCanceled
	default:
		return StateFailed
	}
}

func (j *Job) finish(res *Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = outcomeState(err)
	if err == nil {
		j.result = res
	} else {
		j.err = err
	}
	j.broadcastLocked()
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{ID: j.ID, State: j.state, Kind: j.kind, CacheHit: j.cacheHit}
	if j.stream != nil {
		st.N = int(j.stream.total.Load())
	}
	if n := len(j.events); n > 0 {
		st.Done, st.Total = j.events[n-1].Done, j.events[n-1].Total
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateDone {
		st.Result = j.result
		if st.Total == 0 && j.result != nil && j.kind == "" {
			// Cache hits carry no events; report the range as fully done.
			// Stream jobs measure progress in points (N), not lengths.
			st.Done = j.result.LMax - j.result.LMin + 1
			st.Total = st.Done
		}
	}
	return st
}

// Cancel withdraws this job's cancellation vote: a leader's own vote, or
// — for a job coalesced onto a leader — this follower's vote on the
// shared discovery. Idempotent: repeated calls (HTTP DELETE retries)
// spend the vote once.
func (j *Job) Cancel() {
	j.cancelOnce.Do(j.onCancel)
}

// forceCancel stops the job unconditionally (manager shutdown).
func (j *Job) forceCancel() { j.cancelCtx() }

// Watch returns a channel that replays the job's recorded progress events
// and then streams live ones. The channel closes once the job reaches a
// terminal state (after all events are delivered) or when ctx is done.
func (j *Job) Watch(ctx context.Context) <-chan Event {
	out := make(chan Event)
	go func() {
		defer close(out)
		next := 0
		for {
			j.mu.Lock()
			batch := make([]Event, len(j.events)-next)
			copy(batch, j.events[next:])
			next = len(j.events)
			terminal := j.state.Terminal()
			changed := j.changed
			j.mu.Unlock()
			for _, e := range batch {
				select {
				case out <- e:
				case <-ctx.Done():
					return
				}
			}
			if terminal {
				return
			}
			select {
			case <-changed:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
