package core

// The streaming append engine: live variable-length discovery over a
// growing series. Where the batch engine (engine.go, incremental.go)
// carries dot-product state across *lengths* of a fixed series, the
// Streamer carries it across *time*: per length it retains the last
// column of the self-join (QT(·, j), advanced per appended point with the
// STOMP right-append recurrence via stomp.AppendColumn — no prefix
// recompute, ever) plus the persistent per-offset winner accumulators
// (corr, idx) the batch diagonal pass keeps per worker. One appended
// point costs, per length ℓ over s windows, one O(ℓ) head dot, one O(s)
// column advance and one O(s) kernels.ColScan — O(s·lengths) total, never
// O(n²).
//
// Determinism contract (the equivalence harness in stream_test.go and the
// public TestAppendEqualsBatch pin all three):
//
//   - Parallelism is across lengths only. Each length's arithmetic is one
//     self-contained serial chain (column recurrence in append order,
//     ColScan candidates in ascending offset order), so output is
//     bit-identical at every worker count, and — without WindowCap —
//     bit-identical under any chunking of the same points.
//   - Against the batch engine the stream is tolerance-equivalent, not
//     bit-identical: the column recurrence and the batch diagonal
//     recurrence reach the same dot products along different floating
//     paths. Winner selection uses the same strict total order (corr
//     descending, neighbor offset ascending on exact ties) on both sides.
//   - Sliding-window mode (Config.WindowCap = W) evicts to exactly the
//     trailing W points after every Append. Survivor entries whose best
//     neighbor was evicted are repaired *exactly*, per length in one of
//     two ways: by runs of consecutive offsets — one from-scratch
//     dot-product row per run (rows.go: direct below the cutover, FFT
//     above), kernels.RowNext for the run's other rows, and
//     kernels.ArgmaxCorr over the remaining window for each — or by
//     replaying the column recurrence over the whole window, whichever a
//     counted-work rule prices lower (replayEviction in cost.go). Moments
//     are rebuilt from the retained points, bit-identical to a batch run
//     over that window. Results therefore always give the same pairs as a
//     batch run over the last min(n, W) points, within floating tolerance
//     (TestStreamEvictionEqualsTrailingBatch). They are not a bit-level
//     function of those points alone: a run repair keeps the survivors'
//     column values, whose recurrence chains began on points since
//     evicted, so chunkings that evict at different moments can differ in
//     the last bits. A capped stream is bit-identical across worker counts
//     and across Checkpoint/ResumeStreamer; only an uncapped one is
//     bit-identical under any chunking.
//
// Snapshot materializes the accumulators into per-length matrix profiles
// and routes them through the same sinks as the batch engine (pairsSink,
// valmapSink, discordSink), so extraction — top-k selection, VALMAP
// folding, cross-length discord ranking, the degenerate constant-window
// fixup — is shared code, not a reimplementation.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/seriesmining/valmod/internal/faultinject"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// ErrBadValue is returned by Streamer.Append for non-finite points. The
// offending chunk is rejected whole; the stream state is untouched.
var ErrBadValue = errors.New("core: non-finite value")

// ErrTooShort is returned by Streamer.Snapshot before the stream has
// accumulated LMin points (no length has a single window yet).
var ErrTooShort = errors.New("core: series too short")

// streamLen is the carried state of one subsequence length ℓ. All slices
// have one cell per window of the retained series (s = n − ℓ + 1); they
// grow by one per appended point and shift down on eviction.
type streamLen struct {
	l     int
	excl  int
	invFl float64   // 1/ℓ, computed once (the ONE correlation expression)
	col   []float64 // QT(i, s−1): last column of the self-join
	corr  []float64 // best correlation seen per offset (−Inf none)
	idx   []int32   // that neighbor's offset (−1 none)
	means []float64 // μ_i at ℓ (bit-identical to the batch momentsAt)
	invs  []float64 // 1/σ_i, 0 for degenerate windows
}

// Streamer is the streaming append engine. Not safe for concurrent use;
// callers serialize Append/Snapshot (the service layer holds one mutex
// per stream job).
type Streamer struct {
	cfg     Config
	workers int
	t       []float64 // retained series (trailing WindowCap points when capped)
	st      *series.Stats
	total   int // points ever appended, evicted ones included
	lens    []streamLen

	topk    profile.TopKScratch // Snapshot's pair-extraction scratch
	degs    []int               // Snapshot's degenerate-offset scratch
	rowBufs [][]float64         // evict's repair rows, one per worker
}

// NewStreamer validates cfg and returns an empty stream. The length range
// is validated against itself (LMax points suffice for one window of every
// length); series-size checks happen as the stream grows. WindowCap, when
// set, must cover at least one window of the longest length.
func NewStreamer(cfg Config) (*Streamer, error) {
	cfg.Fill()
	if err := ValidateRange(cfg.LMax, cfg.LMin, cfg.LMax); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.WindowCap > 0 && cfg.WindowCap < cfg.LMax {
		return nil, fmt.Errorf("%w: window_cap=%d: must be >= lmax (%d)", ErrBadConfig, cfg.WindowCap, cfg.LMax)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Streamer{cfg: cfg, workers: workers, st: series.NewStats(nil)}
	for l := cfg.LMin; l <= cfg.LMax; l++ {
		s.lens = append(s.lens, streamLen{
			l:     l,
			excl:  profile.ExclusionZone(l, cfg.ExclusionFactor),
			invFl: 1 / float64(l),
		})
	}
	return s, nil
}

// Cfg returns the stream's effective configuration (defaults filled) —
// what ResumeStreamer must be handed to restore a checkpoint of this
// stream.
func (s *Streamer) Cfg() Config { return s.cfg }

// N returns the number of retained points (= total appended, in uncapped
// mode).
func (s *Streamer) N() int { return len(s.t) }

// Total returns the number of points ever appended, evicted ones included.
func (s *Streamer) Total() int { return s.total }

// Start returns the global offset of the first retained point: Snapshot
// offsets plus Start are offsets into the full appended stream.
func (s *Streamer) Start() int { return s.total - len(s.t) }

// Series returns the retained points. The slice aliases the stream's
// storage: it is valid until the next Append, and callers that retain it
// must copy.
func (s *Streamer) Series() []float64 { return s.t }

// Append extends the stream by values and advances every length's carried
// state — O(len(values)·s·lengths) work, independent of how the same
// points are split into chunks. Non-finite values reject the whole chunk
// with ErrBadValue before any state changes. In sliding-window mode the
// retained series is then trimmed to the trailing WindowCap points.
func (s *Streamer) Append(values []float64) error {
	if err := faultinject.Hit("core.append"); err != nil {
		return err
	}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: values[%d]=%v", ErrBadValue, k, v)
		}
	}
	if len(values) == 0 {
		return nil
	}
	n0 := len(s.t)
	s.t = append(s.t, values...)
	s.st.Append(values)
	s.total += len(values)

	err := s.forEachLength(func(_ int, ls *streamLen) error {
		for p := 0; p < len(values); p++ {
			np := n0 + p + 1
			if np < ls.l {
				continue // this length has no window yet
			}
			if err := s.advance(ls, s.t[:np]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if s.cfg.WindowCap > 0 && len(s.t) > s.cfg.WindowCap {
		return s.evict(len(s.t) - s.cfg.WindowCap)
	}
	return nil
}

// advance moves length ls forward to the newest window of t (a prefix of
// the retained series): one column advance, one moment append, one
// ColScan. The new slot's own winner is the running best ColScan returns
// (candidates ascend, so exact-corr ties keep the smallest offset — the
// total order).
func (s *Streamer) advance(ls *streamLen, t []float64) error {
	var err error
	ls.col, err = stomp.AppendColumn(ls.col, t, ls.l)
	if err != nil {
		return err
	}
	j := len(t) - ls.l
	mu, sd := s.st.MeanStd(j, ls.l)
	inv := 0.0
	if sd > 0 {
		inv = 1 / sd
	}
	ls.means = append(ls.means, mu)
	ls.invs = append(ls.invs, inv)
	ls.corr = append(ls.corr, math.Inf(-1))
	ls.idx = append(ls.idx, -1)
	if iEnd := j - ls.excl + 1; iEnd > 0 {
		bc, bi := kernels.ColScan(ls.col, ls.means, ls.invs, iEnd,
			ls.invFl, mu, inv, ls.corr, ls.idx, int32(j), math.Inf(-1), -1)
		if bi >= 0 {
			ls.corr[j], ls.idx[j] = bc, bi
		}
	}
	return nil
}

// evict drops the oldest e points, keeping results exact over the
// retained window. Dot products are shift-invariant, so the carried
// column and the winner accumulators shift down; moments are rebuilt from
// the retained points (bit-identical to a batch run over them). Entries
// whose neighbor survived keep their winner — the maximum over a set
// cannot change when only non-maximal elements leave. The survivors whose
// recorded neighbor was evicted need their exact best over the window
// again; per length, evict either repairs them by runs (repair) or
// replays the column recurrence over the whole window (rebuild), whichever
// replayEviction (cost.go) prices lower from the length's counts alone.
func (s *Streamer) evict(e int) error {
	copy(s.t, s.t[e:])
	s.t = s.t[:len(s.t)-e]
	s.st.Reset(s.t)

	// One row source serves every repair (its series spectrum, if a length
	// needs one, is built once); each worker holds its own handle and row
	// buffer, so repairs run concurrently across lengths.
	src := newRowSource(s.t, s.cfg.LMax)
	defer src.release()
	workers := s.workers
	if workers > len(s.lens) {
		workers = len(s.lens)
	}
	if workers < 1 {
		workers = 1
	}
	handles := make([]rowWorker, workers)
	for w := range handles {
		handles[w] = rowWorker{src: src, clone: w > 0}
		defer handles[w].release()
	}
	// Every eviction leaves exactly WindowCap points, so a buffer made at
	// the first one serves all later ones.
	for len(s.rowBufs) < workers {
		s.rowBufs = append(s.rowBufs, make([]float64, len(s.t)))
	}

	return s.forEachLength(func(w int, ls *streamLen) error {
		sNew := len(s.t) - ls.l + 1
		repairs, runs := evictedRuns(ls.idx[e:e+sNew], e)
		// The choice reads counts of the accumulator state only, never
		// timing, the worker or the kernel tier, so output stays
		// bit-identical at every worker count and on every tier. A
		// replayed length is bit-identical to a fresh stream fed the
		// retained points.
		if replayEviction(sNew, ls.l, repairs, runs) {
			return s.rebuild(ls)
		}
		s.repair(ls, e, &handles[w], s.rowBufs[w])
		return nil
	})
}

// evictedRuns counts the survivors of an eviction of e points whose
// recorded neighbor was evicted (idx holds the survivors' pre-eviction
// neighbors) and the maximal runs of consecutive offsets they form.
func evictedRuns(idx []int32, e int) (repairs, runs int) {
	prev := false
	for _, old := range idx {
		lost := evicted(old, e)
		if lost {
			repairs++
			if !prev {
				runs++
			}
		}
		prev = lost
	}
	return repairs, runs
}

// evicted reports whether neighbor offset old (pre-eviction, −1 none) was
// among the e evicted points.
func evicted(old int32, e int) bool { return old >= 0 && int(old) < e }

// repair is one length's side of evict when it does not replay: shift the
// column and the winners down by e, rebuild the moments, and resolve each
// maximal run of survivors whose neighbor was evicted exactly — one
// from-scratch row for the run's first offset and the row recurrence for
// the rest (rowWorker.runRows), each row scanned by ArgmaxCorr under the
// same total order. buf holds the rows (at least len(s.t) cells).
func (s *Streamer) repair(ls *streamLen, e int, rw *rowWorker, buf []float64) {
	sNew := len(s.t) - ls.l + 1
	copy(ls.col, ls.col[e:])
	ls.col = ls.col[:sNew]
	for i := 0; i < sNew; i++ {
		mu, sd := s.st.MeanStd(i, ls.l)
		ls.means[i] = mu
		if sd > 0 {
			ls.invs[i] = 1 / sd
		} else {
			ls.invs[i] = 0
		}
	}
	ls.means = ls.means[:sNew]
	ls.invs = ls.invs[:sNew]
	scan := func(i int, row []float64) {
		e1, j2 := exclSplit(i, ls.excl, sNew)
		bc, bj := kernels.ArgmaxCorr(row, ls.means, ls.invs, e1, j2, sNew,
			ls.invFl, ls.means[i], ls.invs[i], math.Inf(-1), -1)
		if bj >= 0 {
			ls.corr[i], ls.idx[i] = bc, int32(bj)
		} else {
			ls.corr[i], ls.idx[i] = math.Inf(-1), -1
		}
	}
	// Slot i is written only after entry i+e is read, and every later
	// read is of an entry above i+e, so the shift runs in place.
	for i := 0; i < sNew; {
		old := ls.idx[i+e]
		if !evicted(old, e) {
			if old < 0 {
				ls.corr[i], ls.idx[i] = math.Inf(-1), -1
			} else {
				ls.corr[i], ls.idx[i] = ls.corr[i+e], old-int32(e)
			}
			i++
			continue
		}
		end := i + 1
		for end < sNew && evicted(ls.idx[end+e], e) {
			end++
		}
		rw.runRows(buf, i, end-i, ls.l, scan)
		i = end
	}
	ls.corr = ls.corr[:sNew]
	ls.idx = ls.idx[:sNew]
}

// rebuild discards one length's carried state and replays the column
// recurrence over the retained series from scratch — bit-identical to
// feeding the trailing window into a fresh stream. evict takes it when
// the evicted neighbors form so many runs that repairing them would cost
// more than the replay.
func (s *Streamer) rebuild(ls *streamLen) error {
	ls.col = ls.col[:0]
	ls.corr = ls.corr[:0]
	ls.idx = ls.idx[:0]
	ls.means = ls.means[:0]
	ls.invs = ls.invs[:0]
	for p := ls.l; p <= len(s.t); p++ {
		if err := s.advance(ls, s.t[:p]); err != nil {
			return err
		}
	}
	return nil
}

// forEachLength runs fn over every length, claiming lengths from an
// atomic counter across min(workers, lengths) goroutines. fn receives the
// worker slot for per-worker scratch. Each length is touched by exactly
// one worker and the per-length work is identical regardless of which,
// so worker count never changes output bits.
func (s *Streamer) forEachLength(fn func(w int, ls *streamLen) error) error {
	workers := s.workers
	if workers > len(s.lens) {
		workers = len(s.lens)
	}
	if workers <= 1 {
		for i := range s.lens {
			if err := fn(0, &s.lens[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(s.lens))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.lens) {
					return
				}
				errs[i] = fn(w, &s.lens[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot materializes the carried state into a full Result over the
// retained series, covering lengths [LMin, min(LMax, n)]. It is
// read-only with respect to the stream (Append may continue afterwards)
// and returns ErrTooShort before the first window exists. Materialized
// lengths flow through the same sink pipeline as the batch engine, in
// ascending length order on this goroutine, so pair extraction, VALMAP
// folding and discord ranking are shared code. Offsets are relative to
// the retained window; add Start() for stream-global offsets.
func (s *Streamer) Snapshot() (*Result, error) {
	n := len(s.t)
	if n < s.cfg.LMin {
		return nil, fmt.Errorf("%w: %d points, need %d", ErrTooShort, n, s.cfg.LMin)
	}
	cfg := s.cfg
	if cfg.LMax > n {
		cfg.LMax = n
	}
	pairs := &pairsSink{}
	vms, err := newValmapSink(cfg.LMin, cfg.LMax, n-cfg.LMin+1)
	if err != nil {
		return nil, err
	}
	sinks := []Sink{pairs, vms}
	var ds *discordSink
	if cfg.Discords > 0 {
		ds = newDiscordSink(cfg.Discords, cfg.ExclusionFactor)
		sinks = append(sinks, ds)
	}
	mp := profile.New(0, 0, 0) // recycled across lengths; sinks copy what they keep
	for li := range s.lens {
		ls := &s.lens[li]
		if ls.l > cfg.LMax {
			break
		}
		ld := s.materialize(ls, mp)
		if ld.L == cfg.LMin && ld.Profile == nil {
			// The VALMAP seeds from the ℓmin profile unconditionally; a
			// length admitting no non-trivial pair seeds it empty (every
			// entry +Inf/−1) rather than not at all.
			mp.Reset(ls.l, ls.excl, n-ls.l+1)
			ld.Profile = mp
		}
		// pairsSink retains the first delivered profile as MPMin; hand the
		// scratch over and start a fresh one for the remaining lengths.
		retained := ld.Profile == mp && pairs.mpMin == nil
		for _, snk := range sinks {
			if sinkWants(snk, ld.L) {
				snk.Consume(ld)
			}
		}
		if retained {
			mp = profile.New(0, 0, 0)
		}
	}
	res := &Result{
		N:         n,
		Cfg:       cfg,
		MPMin:     pairs.mpMin,
		PerLength: pairs.perLength,
		VMap:      vms.vm,
	}
	if ds != nil {
		res.Discords = ds.Discords()
	}
	return res, nil
}

// materialize turns one length's accumulators into the LengthData the
// sinks consume: clamp each winner's correlation to [−1, 1], convert with
// d = √(2ℓ(1−c)), apply the degenerate constant-window fixup — exactly
// the batch materialization in processLengthIncremental. Lengths admitting
// no non-trivial pair (s ≤ excl) deliver a nil profile, matching the
// batch contract.
func (s *Streamer) materialize(ls *streamLen, mp *profile.MatrixProfile) LengthData {
	sl := len(s.t) - ls.l + 1
	lr := LengthResult{M: ls.l}
	lr.Stats.FullRecompute = true
	lr.Stats.Incremental = true
	if sl <= ls.excl {
		return LengthData{L: ls.l, Result: lr}
	}
	mp.Reset(ls.l, ls.excl, sl)
	fl := float64(ls.l)
	for i := 0; i < sl; i++ {
		if ls.idx[i] < 0 {
			continue
		}
		c := ls.corr[i]
		if c > 1 {
			c = 1
		} else if c < -1 {
			c = -1
		}
		mp.Dist[i] = math.Sqrt(2 * fl * (1 - c))
		mp.Index[i] = int(ls.idx[i])
	}
	s.degs = applyDegenerateFixup(mp, ls.invs, ls.excl, s.degs[:0])
	lr.Pairs = mp.TopKPairsInto(s.cfg.TopK, &s.topk)
	return LengthData{L: ls.l, Result: lr, Profile: mp}
}

// streamCkptPayload is a Streamer between Appends, as a frame carries
// it: the retained series, the total appended count, and every length's
// carried column/winner state. Stats and the derived per-length constants
// are rebuilt on resume (series.Stats.Append is bit-identical to a
// rebuild, so recomputing them cannot perturb results). Slices alias live
// stream state at capture time — encoding happens synchronously inside
// Checkpoint.
type streamCkptPayload struct {
	CfgDigest string
	Total     int
	T         []float64
	Lens      []streamLenCkpt
}

// streamLenCkpt is one length's carried state.
type streamLenCkpt struct {
	L           int
	Col, Corr   []float64
	Idx         []int32
	Means, Invs []float64
}

// write lays down the stream payload: the digest, the total appended
// count (8 bytes: a long-lived stream's count can pass an int32), the
// retained series, then every length's sections.
func (p *streamCkptPayload) write(w *frameWriter) {
	w.str(p.CfgDigest)
	w.u64(uint64(p.Total))
	w.f64s(p.T)
	w.count(len(p.Lens))
	for i := range p.Lens {
		lp := &p.Lens[i]
		w.int(lp.L)
		w.f64s(lp.Col)
		w.f64s(lp.Corr)
		w.i32s(lp.Idx)
		w.f64s(lp.Means)
		w.f64s(lp.Invs)
	}
}

// decodeStreamCheckpoint reads a stream frame back into its payload.
func decodeStreamCheckpoint(b []byte) (*streamCkptPayload, error) {
	r, err := decodeFrame(streamMagic, streamVersion, b)
	if err != nil {
		return nil, err
	}
	p := &streamCkptPayload{CfgDigest: r.str()}
	if total := r.u64(); total <= math.MaxInt {
		p.Total = int(total)
	} else {
		r.fail("total %d overflows an int", total)
	}
	p.T = r.f64s()
	// A length section is at least its ℓ and five counts.
	if n := r.count(4 + 5*4); n > 0 {
		p.Lens = make([]streamLenCkpt, n)
		for i := range p.Lens {
			lp := &p.Lens[i]
			lp.L = r.int()
			lp.Col, lp.Corr = r.f64s(), r.f64s()
			lp.Idx = r.i32s()
			lp.Means, lp.Invs = r.f64s(), r.f64s()
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// streamCfgDigest extends the batch config digest with the streaming-only
// result-affecting knob (WindowCap). Workers stays excluded: stream output
// is worker-count invariant. v2 repairs evicted neighbors with direct rows
// below the FFT cutover (rows.go), whose bits differ from a v1 stream's
// FFT repairs. v3 repairs them by runs, each row after a run's first
// advanced by the row recurrence, and gives windows of one repeated value
// σ = 0 exactly, so a v2 frame's winners and moments differ in the last
// bits from this stream's.
func streamCfgDigest(c Config) string {
	return fmt.Sprintf("v3 %s wcap=%d", cfgFields(c), c.WindowCap)
}

// Checkpoint serializes the stream's full state between Appends into a
// versioned, checksummed blob. ResumeStreamer over the same configuration
// restores a stream whose every future Append and Snapshot is
// bit-identical to the original's — the carried state is restored exactly
// and everything else (moment sums, FFT plans) is a deterministic pure
// function of the retained series. Unlike the batch engine's cadence-driven
// Config.OnCheckpoint, stream checkpoints are caller-pulled: the serving
// layer takes one every N appends.
func (s *Streamer) Checkpoint() ([]byte, error) {
	p := &streamCkptPayload{
		CfgDigest: streamCfgDigest(s.cfg),
		Total:     s.total,
		T:         s.t,
	}
	p.Lens = make([]streamLenCkpt, 0, len(s.lens))
	for i := range s.lens {
		ls := &s.lens[i]
		p.Lens = append(p.Lens, streamLenCkpt{
			L: ls.l, Col: ls.col, Corr: ls.corr, Idx: ls.idx,
			Means: ls.means, Invs: ls.invs,
		})
	}
	// The blob is the caller's to keep, so it gets storage of its own.
	return encodeFrame(nil, streamMagic, streamVersion, p.write)
}

// ResumeStreamer reconstructs a Streamer from a Checkpoint blob taken
// under the same configuration (Workers may differ). Mismatched, corrupted
// or truncated blobs fail with ErrBadCheckpoint; the caller's fallback is
// replaying the appends, chunk for chunk, into a fresh stream, which
// reproduces it bit for bit (with a WindowCap, a different chunking
// would only reproduce it within floating tolerance).
func ResumeStreamer(cfg Config, ckpt []byte) (*Streamer, error) {
	s, err := NewStreamer(cfg)
	if err != nil {
		return nil, err
	}
	p, err := decodeStreamCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	if got := streamCfgDigest(s.cfg); p.CfgDigest != got {
		return nil, fmt.Errorf("%w: config mismatch (checkpoint %q, stream %q)", ErrBadCheckpoint, p.CfgDigest, got)
	}
	if len(p.Lens) != len(s.lens) {
		return nil, fmt.Errorf("%w: %d length sections, want %d", ErrBadCheckpoint, len(p.Lens), len(s.lens))
	}
	if p.Total < len(p.T) {
		return nil, fmt.Errorf("%w: total %d below retained %d", ErrBadCheckpoint, p.Total, len(p.T))
	}
	s.t = p.T
	s.st = series.NewStats(s.t)
	s.total = p.Total
	for i := range s.lens {
		ls, lp := &s.lens[i], &p.Lens[i]
		if lp.L != ls.l {
			return nil, fmt.Errorf("%w: length section %d is for ℓ=%d, want %d", ErrBadCheckpoint, i, lp.L, ls.l)
		}
		sl := len(s.t) - ls.l + 1
		if sl < 0 {
			sl = 0
		}
		if len(lp.Col) != sl || len(lp.Corr) != sl || len(lp.Idx) != sl ||
			len(lp.Means) != sl || len(lp.Invs) != sl {
			return nil, fmt.Errorf("%w: length ℓ=%d sections have inconsistent sizes", ErrBadCheckpoint, ls.l)
		}
		ls.col, ls.corr, ls.idx = lp.Col, lp.Corr, lp.Idx
		ls.means, ls.invs = lp.Means, lp.Invs
	}
	return s, nil
}
