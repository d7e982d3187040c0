package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/seriesmining/valmod/internal/faultinject"
)

// WAL is the disk-backed Store: a JSON-lines write-ahead log plus one
// checkpoint blob file per live discover job.
//
// Layout under the data directory:
//
//	wal.log        append-only JSON lines, one record each, fsynced per
//	               record: a version header, then series / submit /
//	               append / done records in arrival order
//	ckpt/<job-id>  the job's latest engine checkpoint frame, replaced
//	               atomically (tmp + rename) at every checkpoint and
//	               removed when the job reaches a terminal state
//
// JSON carries float64 exactly (Go marshals the shortest round-tripping
// decimal), so replayed series and appends are bit-identical to what was
// submitted — the property the engine's byte-identical resume contract
// stands on. The log is never compacted in place; docs/operations.md
// covers growth and the offline compaction story.
type WAL struct {
	dir string
	rec *RecoveredState

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// RecoveredState is what a store replayed from disk: every series and job
// it knows about, in original arrival order. Manager.Recover consumes it.
type RecoveredState struct {
	Series []RecoveredSeries
	Jobs   []RecoveredJob
}

// RecoveredSeries is one replayed series upload.
type RecoveredSeries struct {
	ID     string
	Values []float64
}

// RecoveredJob is one replayed job. Done marks a terminal record was
// written: the job comes back as a queryable stub. Without it the job was
// live when the process died and is re-queued — discover jobs from
// Checkpoint (nil means from scratch), stream jobs by replaying Appends.
type RecoveredJob struct {
	ID      string
	Req     JobRequest
	Appends [][]float64
	Done    bool
	State   State
	Error   string
	Result  *Result
	// Checkpoint is the job's last durable engine checkpoint, loaded from
	// ckpt/<id>; nil when none was written or the file is unreadable.
	Checkpoint []byte
}

// walRecord is one wal.log line. T selects the shape: "hdr" (V), "series"
// (ID, Values), "submit" (ID, Req), "append" (ID, Values), "done" (ID,
// State, Error, Result). Unknown types are skipped on replay so older
// binaries tolerate logs written by newer ones within a version.
type walRecord struct {
	T      string      `json:"t"`
	V      int         `json:"v,omitempty"`
	ID     string      `json:"id,omitempty"`
	Values []float64   `json:"values,omitempty"`
	Req    *JobRequest `json:"req,omitempty"`
	State  State       `json:"state,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *Result     `json:"result,omitempty"`
}

// walVersion is the current log format version; a log declaring a higher
// version refuses to open rather than being misread.
const walVersion = 1

var errWALClosed = errors.New("service: wal closed")

// OpenWAL opens (creating as needed) the write-ahead log rooted at dir,
// replays any existing log into a RecoveredState, truncates a torn tail
// record left by a crash mid-write, and re-opens the log for appending.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o777); err != nil {
		return nil, fmt.Errorf("service: open wal: %w", err)
	}
	w := &WAL{dir: dir}
	if err := w.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(w.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("service: open wal: %w", err)
	}
	w.f = f
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		if err := w.append(walRecord{T: "hdr", V: walVersion}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

func (w *WAL) logPath() string { return filepath.Join(w.dir, "wal.log") }

// Recovered returns the state replayed when the WAL was opened. The
// caller hands it to Manager.Recover; it is not updated by later writes.
func (w *WAL) Recovered() *RecoveredState { return w.rec }

// replay scans wal.log into w.rec. A torn final line (crash mid-write) is
// truncated away so the next append starts on a record boundary; any
// other malformed record is a corrupt log and refuses to open, because
// silently dropping an interior record could resurrect a finished job or
// lose a submitted one.
func (w *WAL) replay() error {
	rec := &RecoveredState{}
	w.rec = rec
	b, err := os.ReadFile(w.logPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: replay wal: %w", err)
	}
	jobs := map[string]*RecoveredJob{}
	var order []string
	good := 0 // offset just past the last well-formed record
	first := true
	for off := 0; off < len(b); {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline made it to disk
		}
		line := b[off : off+nl]
		var r walRecord
		if err := json.Unmarshal(line, &r); err != nil {
			if off+nl+1 >= len(b) {
				break // torn tail: half a record plus a stray newline
			}
			return fmt.Errorf("service: replay wal: corrupt record at offset %d: %v", off, err)
		}
		if first {
			if r.T != "hdr" {
				return fmt.Errorf("service: replay wal: %s does not start with a header record", w.logPath())
			}
			if r.V > walVersion {
				return fmt.Errorf("service: replay wal: log version %d is newer than this binary's %d", r.V, walVersion)
			}
			first = false
		}
		switch r.T {
		case "hdr":
			// Version checked above; repeated headers (log concatenation) pass.
		case "series":
			rec.Series = append(rec.Series, RecoveredSeries{ID: r.ID, Values: r.Values})
		case "submit":
			if r.Req == nil {
				return fmt.Errorf("service: replay wal: submit record for %s has no request", r.ID)
			}
			if _, dup := jobs[r.ID]; !dup {
				order = append(order, r.ID)
			}
			jobs[r.ID] = &RecoveredJob{ID: r.ID, Req: *r.Req}
		case "append":
			if j := jobs[r.ID]; j != nil && !j.Done {
				j.Appends = append(j.Appends, r.Values)
			}
		case "done":
			if j := jobs[r.ID]; j != nil {
				j.Done, j.State, j.Error, j.Result = true, r.State, r.Error, r.Result
			}
		default:
			// Unknown record type within a known version: skip.
		}
		off += nl + 1
		good = off
	}
	if good < len(b) {
		if err := os.Truncate(w.logPath(), int64(good)); err != nil {
			return fmt.Errorf("service: replay wal: truncate torn tail: %w", err)
		}
	}
	for _, id := range order {
		rec.Jobs = append(rec.Jobs, *jobs[id])
	}
	// Attach each live discover job's last durable checkpoint. A job ID
	// SaveCheckpoint would refuse names no file of ckpt/, so nothing
	// outside it is read.
	for i := range rec.Jobs {
		j := &rec.Jobs[i]
		if j.Done || j.Req.Kind == KindStream || !ckptID(j.ID) {
			continue
		}
		if blob, err := os.ReadFile(w.ckptPath(j.ID)); err == nil {
			j.Checkpoint = blob
		}
	}
	return nil
}

// append marshals rec, writes it as one line, and fsyncs — the record is
// durable when append returns. "wal.write" is the fault-injection point
// chaos tests arm to fail individual records.
func (w *WAL) append(rec walRecord) error {
	if err := faultinject.Hit("wal.write"); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: wal append: %w", err)
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("service: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("service: wal append: %w", err)
	}
	return nil
}

// SaveSeries implements SeriesStore.
func (w *WAL) SaveSeries(id string, values []float64) error {
	return w.append(walRecord{T: "series", ID: id, Values: values})
}

// SaveSubmit implements JobStore.
func (w *WAL) SaveSubmit(id string, req JobRequest) error {
	return w.append(walRecord{T: "submit", ID: id, Req: &req})
}

// SaveAppend implements JobStore.
func (w *WAL) SaveAppend(id string, values []float64) error {
	return w.append(walRecord{T: "append", ID: id, Values: values})
}

// SaveOutcome implements JobStore. The job's checkpoint blob is removed
// best-effort: once the outcome record is durable the blob is dead weight
// (recovery never resumes a job with a terminal record).
func (w *WAL) SaveOutcome(id string, state State, errMsg string, res *Result) error {
	if err := w.append(walRecord{T: "done", ID: id, State: state, Error: errMsg, Result: res}); err != nil {
		return err
	}
	_ = os.Remove(w.ckptPath(id))
	return nil
}

func (w *WAL) ckptPath(id string) string {
	return filepath.Join(w.dir, "ckpt", id)
}

// ckptID reports whether id names a file directly inside ckpt/.
func ckptID(id string) bool {
	return id != "" && id != "." && id != ".." && filepath.Base(id) == id
}

// SaveCheckpoint implements JobStore: the blob replaces ckpt/<id> through
// a tmp file, fsync, and rename, so the file always holds a complete
// frame — a crash mid-write leaves the previous checkpoint intact.
// "wal.checkpoint" is the fault-injection point for chaos tests.
func (w *WAL) SaveCheckpoint(id string, ckpt []byte) error {
	if err := faultinject.Hit("wal.checkpoint"); err != nil {
		return err
	}
	if !ckptID(id) {
		return fmt.Errorf("service: wal checkpoint: unusable job id %q", id)
	}
	path := w.ckptPath(id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("service: wal checkpoint: %w", err)
	}
	if _, err := f.Write(ckpt); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("service: wal checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("service: wal checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: wal checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: wal checkpoint: %w", err)
	}
	return nil
}

// Close fsyncs and closes the log. Further writes fail with an error;
// in-flight jobs finishing after Close simply stop persisting outcomes,
// which recovery treats as an interruption — the safe direction.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
