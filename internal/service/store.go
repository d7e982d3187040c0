package service

// The store interfaces split the manager's record-keeping into its two
// durable halves. The manager's in-memory maps remain the hot lookup
// index; a Store, when configured, is the system of record behind them:
// every mutation that must survive a crash — an uploaded series, an
// accepted submission, a stream append, an engine checkpoint, a terminal
// outcome — is teed through the store before (submissions) or as
// (outcomes, checkpoints) it takes effect. A nil Config.Store disables
// durability and restores the pre-WAL in-memory-only behavior exactly.
//
// The disk-backed implementation is WAL (see wal.go); docs/operations.md
// specifies the on-disk layout and the recovery guarantees.

// SeriesStore persists uploaded series so jobs referencing them by ID
// survive a restart.
type SeriesStore interface {
	// SaveSeries records an uploaded series under its handle. It is called
	// after validation, so implementations may assume the values are
	// non-empty and finite (in particular, JSON-encodable).
	SaveSeries(id string, values []float64) error
}

// JobStore persists the job lifecycle: the submission, the engine's
// progress checkpoints, stream appends, and the terminal outcome. A job
// whose submission was saved but whose outcome was not is, by definition,
// interrupted — recovery re-queues it.
type JobStore interface {
	// SaveSubmit records an accepted submission under its job ID. Until
	// SaveOutcome is called for the same ID the job counts as live and is
	// re-queued on recovery.
	SaveSubmit(id string, req JobRequest) error
	// SaveAppend records one accepted chunk of a stream job, in order.
	// Recovery rebuilds the stream by replaying the chunks with their
	// original boundaries, which makes the replay bit-exact.
	SaveAppend(id string, values []float64) error
	// SaveCheckpoint durably replaces the job's resume point with ckpt.
	// The blob is only valid during the call (the engine reuses its
	// backing storage), so implementations must copy or write it out
	// before returning. An error disables further checkpoints for the run
	// without failing it; the job then recovers from the previous blob or
	// from scratch.
	SaveCheckpoint(id string, ckpt []byte) error
	// SaveOutcome records the job's terminal state. res is non-nil only
	// for state done. After this record the job is never re-queued.
	SaveOutcome(id string, state State, errMsg string, res *Result) error
}

// Store is the full persistence surface a Manager tees through
// (Config.Store). Implementations must be safe for concurrent use: jobs
// checkpoint and finish on their own goroutines.
type Store interface {
	SeriesStore
	JobStore
}
