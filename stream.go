package valmod

import (
	"errors"
	"fmt"

	"github.com/seriesmining/valmod/internal/core"
)

// Stream is a live variable-length discovery over a growing series. Points
// arrive through Append in chunks of any size; Snapshot materializes the
// exact discovery over the points seen so far — tolerance-equivalent to
// running Discover on the same points in one shot, at a fraction of the
// cost: each appended point extends carried dot-product state with the
// STOMP right-append recurrence (O(n·lengths) per point, never a prefix
// recompute).
//
// Guarantees, pinned by the equivalence harness in stream_test.go:
//
//   - Any chunking of the same points yields results equal to batch
//     Discover within floating tolerance; without Options.WindowCap the
//     results are bit-identical across chunkings.
//   - A fixed chunking yields bit-identical results at every
//     Options.Workers setting.
//   - With Options.WindowCap = W, the stream holds exactly the trailing
//     min(n, W) points after every Append: old offsets are evicted
//     deterministically and every surviving profile entry whose nearest
//     neighbor was evicted is repaired exactly, so Snapshot always equals
//     a batch Discover over the retained window within floating
//     tolerance. Capped results are bit-identical across Workers settings
//     and checkpoint/resume, not across chunkings.
//
// Snapshot offsets are relative to the retained window; add Start for
// offsets into the full appended stream. A Stream is not safe for
// concurrent use; callers serialize Append and Snapshot.
type Stream struct {
	inner      *core.Streamer
	lmin, lmax int
}

// NewStream opens a stream discovering lengths [lmin, lmax] under opts
// (Progress is ignored; results arrive via Snapshot). The range is
// validated against itself — lmax points are enough for one window of
// every length — and the series grows from empty.
func NewStream(lmin, lmax int, opts Options) (*Stream, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := validateRange(lmax, lmin, lmax); err != nil {
		return nil, err
	}
	if opts.WindowCap > 0 && opts.WindowCap < lmax {
		return nil, fmt.Errorf("%w: Options.WindowCap=%d: must be >= lmax (%d)", ErrBadInput, opts.WindowCap, lmax)
	}
	inner, err := core.NewStreamer(core.Config{
		LMin:            lmin,
		LMax:            lmax,
		TopK:            opts.TopK,
		ExclusionFactor: opts.ExclusionFactor,
		Discords:        opts.Discords,
		WindowCap:       opts.WindowCap,
		Workers:         opts.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return &Stream{inner: inner, lmin: lmin, lmax: lmax}, nil
}

// NewStream opens a stream bound to the engine's Options.
func (e *Engine) NewStream(lmin, lmax int) (*Stream, error) {
	return NewStream(lmin, lmax, e.opts)
}

// Append feeds the next chunk of points. Non-finite values reject the
// whole chunk with an error wrapping ErrBadInput; the stream state is
// untouched and the caller may continue with good data.
func (s *Stream) Append(values []float64) error {
	if err := s.inner.Append(values); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return nil
}

// N returns the number of retained points; Total the number ever
// appended (evicted ones included); Start the global offset of the first
// retained point (Total − N).
func (s *Stream) N() int     { return s.inner.N() }
func (s *Stream) Total() int { return s.inner.Total() }
func (s *Stream) Start() int { return s.inner.Start() }

// Ready reports whether Snapshot has at least one length to materialize
// (the stream holds lmin or more points).
func (s *Stream) Ready() bool { return s.inner.N() >= s.lmin }

// Snapshot materializes the discovery over the retained points, covering
// lengths [lmin, min(lmax, N)] — the full range once the stream holds
// lmax points. Before lmin points it returns an error wrapping
// ErrBadInput. The stream may keep growing afterwards; the returned
// Result is independent of later Appends.
func (s *Stream) Snapshot() (*Result, error) {
	res, err := s.inner.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	values := append([]float64(nil), s.inner.Series()...)
	return resultFromCore(res, values), nil
}

// Checkpoint serializes the stream's full state between Appends into a
// versioned, checksummed blob. ResumeStream over the same length range and
// options restores a stream whose every future Append and Snapshot is
// bit-identical to this one's (Options.Workers may differ). Callers decide
// the cadence — e.g. a serving layer checkpoints every N appends.
func (s *Stream) Checkpoint() ([]byte, error) {
	b, err := s.inner.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return b, nil
}

// ResumeStream reconstructs a Stream from a Checkpoint blob taken under
// the same lmin/lmax and options. Corrupted blobs, or blobs from a
// different configuration, fail with an error wrapping ErrBadCheckpoint;
// the fallback is replaying the original appends, chunk for chunk, into a
// fresh stream, which reproduces it bit for bit.
func ResumeStream(lmin, lmax int, opts Options, ckpt []byte) (*Stream, error) {
	s, err := NewStream(lmin, lmax, opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.ResumeStreamer(s.inner.Cfg(), ckpt)
	if err != nil {
		if errors.Is(err, core.ErrBadCheckpoint) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	s.inner = inner
	return s, nil
}

// BestPair returns the current globally best motif pair under the
// length-normalized distance, or false before any pair exists — the
// one-line poll a live monitor wants between full Snapshots. It costs a
// Snapshot; callers needing both the pair and the discords should call
// Snapshot once instead.
func (s *Stream) BestPair() (MotifPair, bool) {
	res, err := s.Snapshot()
	if err != nil {
		return MotifPair{}, false
	}
	return res.BestOverall()
}

// TopDiscord returns the current top variable-length discord, or false
// when Options.Discords is zero or no discord exists yet.
func (s *Stream) TopDiscord() (Discord, bool) {
	res, err := s.Snapshot()
	if err != nil || len(res.Discords) == 0 {
		return Discord{}, false
	}
	return res.Discords[0], true
}
