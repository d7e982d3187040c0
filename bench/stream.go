package main

import (
	"time"

	valmod "github.com/seriesmining/valmod"
)

// runStream measures the stream workload over setupReps independent
// streams, each fed its own series of the seed's family. Set-up is
// NewStream plus filling the window, once per stream. An op is one chunk
// Append, to the streams in turn. A 512-point chunk evicts an eighth of
// the window, which invalidates so many recorded neighbors that eviction
// replays the column recurrence for nearly every length (over 97% of
// length evictions on seeds 1-10), so the op's cost does not hinge on the
// data. Smaller chunks straddle the engine's cutover between per-entry FFT
// repairs and that replay: at 128 points a seed's series sent 30-50% of
// length evictions to the replay, and a chunk's cost swung fourfold. The
// check compares each stream's final snapshot with a batch Discover over
// its retained window.
func runStream(e *env, w workload, rep *report) error {
	streams := e.setupReps
	// Input for 640 appends, far more than a 60-second window runs at this
	// engine's rate. The count is fixed because the generated values
	// depend on the series length.
	ops := 640
	if w.maxOps > 0 {
		ops = w.maxOps
	}
	perStream := (ops + streams - 1) / streams
	opts := valmod.Options{WindowCap: w.n, Workers: workers}
	type feed struct {
		st     *valmod.Stream
		values []float64
		pos    int
	}
	feeds := make([]*feed, streams)
	var setup []float64
	for k := range feeds {
		values, err := w.series(w.n+perStream*w.chunk, subSeed(e.seed, k))
		if err != nil {
			return err
		}
		start := time.Now()
		st, err := valmod.NewStream(w.lmin, w.lmax, opts)
		if err != nil {
			return err
		}
		for pos := 0; pos < w.n; pos += w.chunk {
			if err := st.Append(values[pos:min(pos+w.chunk, w.n)]); err != nil {
				return err
			}
		}
		setup = append(setup, time.Since(start).Seconds())
		feeds[k] = &feed{st: st, values: values, pos: w.n}
	}
	// Anchors are taken once the first window is full, before the timed
	// appends, whose count depends on the machine.
	filled, err := feeds[0].st.Snapshot()
	if err != nil {
		return err
	}
	checkPinned(rep, anchorsOf(filled), e.pinned)

	window := e.window
	if e.tr != nil {
		window /= 2
	}
	var untraced, traced, snaps []float64
	begin := time.Now()
	err = loop(window, ops, 2, func(i int) (time.Duration, error) {
		k := i % streams
		f := feeds[k]
		trace := e.tr.newTrace()
		start := time.Now()
		if err := f.st.Append(f.values[f.pos : f.pos+w.chunk]); err != nil {
			return 0, err
		}
		end := time.Now()
		f.pos += w.chunk
		rep.check(f.st.Total() == f.pos && f.st.N() == w.n, "stream %d: after %d points it holds %d of %d", k, f.pos, f.st.N(), f.st.Total())
		d := end.Sub(start)
		if e.tr == nil || i%2 == 0 {
			untraced = append(untraced, ms(d))
			return d, nil
		}
		traced = append(traced, ms(d))
		t := time.Now()
		if _, err := f.st.Snapshot(); err != nil {
			return 0, err
		}
		done := time.Now()
		snaps = append(snaps, ms(done.Sub(t)))
		root := e.tr.add(trace, -1, "op", start, done, map[string]any{"stream": k, "points": w.chunk})
		e.tr.add(trace, root, "append", start, end, nil)
		e.tr.add(trace, root, "snapshot", t, done, nil)
		return d, nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(begin)
	if e.tr == nil {
		rep.add("max_rss_mb", "MB", maxRSSMB())
		rep.addSamples("setup_s", "s", setup)
		rep.addSamples("op_ms.p50", "ms", untraced)
		rep.add("ops_per_s", "1/s", float64(len(untraced))/elapsed.Seconds())
	}

	for k, f := range feeds {
		snap, err := f.st.Snapshot()
		if err != nil {
			return err
		}
		retained := f.values[f.pos-w.n : f.pos]
		ref, err := valmod.Discover(retained, w.lmin, w.lmax, valmod.Options{Workers: workers})
		if err != nil {
			return err
		}
		err = equivalent(snap, ref, 0)
		rep.check(err == nil, "stream %d: final snapshot disagrees with batch Discover over the retained window: %v", k, err)
		if k == 0 && e.tr != nil {
			rep.add("trace.overhead_frac", "ratio", median(traced)/median(untraced)-1)
			rep.addSamples("stream.append_ms.p50", "ms", append(untraced, traced...))
			rep.addSamples("stream.snapshot_ms", "ms", snaps)
			// The core layer at the stream's size: batch Discovers over the
			// retained window.
			eng := valmod.NewEngine(valmod.Options{Workers: workers})
			if err := coreLayer(e, rep, eng, retained, w.lmin, w.lmax, e.window/8); err != nil {
				return err
			}
			if err := probeLayers(e, rep, w, retained, ref, ""); err != nil {
				return err
			}
		}
	}
	return nil
}
