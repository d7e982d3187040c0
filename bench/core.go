package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	valmod "github.com/seriesmining/valmod"
)

// phases is one traced Discover split at its Progress timestamps: the
// first length (ℓmin, the seed), the remaining lengths, and the finish
// (VALMAP and ranking after the last length).
type phases struct {
	res                        *valmod.Result
	wall                       time.Duration
	seed, lengths, finish, cpu float64 // seconds
	allocsPerLen, bytesPerLen  float64
	certifiedFrac, recomputed  float64
}

// tracedSolve runs one Discover with a Progress callback that timestamps
// every completed length, and records the solve → length.ℓ → finish spans.
func tracedSolve(tr *tracer, eng *valmod.Engine, values []float64, lmin, lmax int) (phases, error) {
	var marks []time.Time
	var lrs []valmod.LengthResult
	opts := eng.Options()
	opts.Progress = func(p valmod.Progress) {
		marks = append(marks, time.Now())
		lrs = append(lrs, p.Result)
	}
	traced := eng.WithOptions(opts)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	res, err := traced.Discover(values, lmin, lmax)
	end := time.Now()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return phases{}, err
	}
	if len(marks) == 0 {
		return phases{}, fmt.Errorf("no Progress callback over [%d,%d]", lmin, lmax)
	}
	p := phases{res: res, wall: end.Sub(start), cpu: cpu}
	trace := tr.newTrace()
	root := tr.add(trace, -1, "solve", start, end, nil)
	prev := start
	certified, anchors := 0, 0
	for k, m := range marks {
		lr := lrs[k]
		plan := "pruned"
		switch {
		case lr.FullRecompute && lr.Incremental:
			plan = "incremental"
		case lr.FullRecompute:
			plan = "full"
		default:
			certified += lr.Certified
			anchors += len(values) - lr.Length + 1
		}
		p.recomputed += float64(lr.Recomputed)
		tr.add(trace, root, fmt.Sprintf("length.%d", lr.Length), prev, m, map[string]any{
			"plan": plan, "certified": lr.Certified, "recomputed": lr.Recomputed,
		})
		if k == 0 {
			p.seed = m.Sub(prev).Seconds()
		} else {
			p.lengths += m.Sub(prev).Seconds()
		}
		prev = m
	}
	tr.add(trace, root, "finish", prev, end, nil)
	p.finish = end.Sub(prev).Seconds()
	if anchors > 0 {
		p.certifiedFrac = float64(certified) / float64(anchors)
	}
	p.allocsPerLen = float64(m1.Mallocs-m0.Mallocs) / float64(len(marks))
	p.bytesPerLen = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(marks))
	return p, nil
}

// coreLayer times traced Discovers of one query for about budget (at
// least two) and reports the core.* and plan.* metrics: the core layer at
// the size of a workload whose own op is not a batch Discover.
func coreLayer(e *env, rep *report, eng *valmod.Engine, values []float64, lmin, lmax int, budget time.Duration) error {
	var ph []phases
	err := loop(budget, 0, 2, func(int) (time.Duration, error) {
		p, err := tracedSolve(e.tr, eng, values, lmin, lmax)
		ph = append(ph, p)
		return p.wall, err
	})
	if err != nil {
		return err
	}
	corePhases(rep, ph)
	return nil
}

// corePhases reports the core.* and plan.* metrics of traced solves.
func corePhases(rep *report, ph []phases) {
	col := func(f func(phases) float64) []float64 {
		out := make([]float64, len(ph))
		for i, p := range ph {
			out[i] = f(p)
		}
		return out
	}
	rep.addSamples("core.seed_s", "s", col(func(p phases) float64 { return p.seed }))
	rep.addSamples("core.lengths_s", "s", col(func(p phases) float64 { return p.lengths }))
	rep.addSamples("core.finish_s", "s", col(func(p phases) float64 { return p.finish }))
	rep.addSamples("core.cpu_s", "s", col(func(p phases) float64 { return p.cpu }))
	rep.addSamples("core.allocs_per_length", "count", col(func(p phases) float64 { return p.allocsPerLen }))
	rep.addSamples("core.bytes_per_length", "bytes", col(func(p phases) float64 { return p.bytesPerLen }))
	rep.addSamples("core.certified_frac", "ratio", col(func(p phases) float64 { return p.certifiedFrac }))
	rep.addSamples("core.recomputed_anchors", "count", col(func(p phases) float64 { return p.recomputed }))
	plan := ph[len(ph)-1].res.Plan
	rep.add("plan.pruned_lengths", "count", float64(plan.PrunedLengths))
	rep.add("plan.incremental_lengths", "count", float64(plan.IncrementalLengths))
	rep.add("plan.recompute_lengths", "count", float64(plan.RecomputeLengths))
	rep.add("plan.head_extensions", "count", float64(plan.HeadExtensions))
}

// checkpointLayer measures what a durable checkpoint every 8 lengths adds
// to the serve miss query: interleaved pairs of runs without and with an
// fsync'd Checkpoint callback, alternating which runs first. It reports
// the median per-length difference with its quartiles and returns the
// last checkpoint blob.
func checkpointLayer(e *env, rep *report, values []float64, lmin, lmax int) ([]byte, error) {
	const pairs = 7
	eng := valmod.NewEngine(valmod.Options{Workers: workers})
	var blob []byte
	path := filepath.Join(e.dir, "checkpoint")
	opts := eng.Options()
	opts.CheckpointEvery = 8
	opts.Checkpoint = func(ckpt []byte) error {
		blob = append(blob[:0], ckpt...)
		return writeSynced(path, ckpt)
	}
	durable := eng.WithOptions(opts)
	timed := func(en *valmod.Engine) (float64, error) {
		start := time.Now()
		_, err := en.Discover(values, lmin, lmax)
		return ms(time.Since(start)), err
	}
	if _, err := timed(eng); err != nil { // warm the pools both sides share
		return nil, err
	}
	lengths := float64(lmax - lmin + 1)
	var diffs []float64
	for p := 0; p < pairs; p++ {
		first, second := eng, durable
		if p%2 == 1 {
			first, second = durable, eng
		}
		a, err := timed(first)
		if err != nil {
			return nil, err
		}
		b, err := timed(second)
		if err != nil {
			return nil, err
		}
		if p%2 == 1 {
			a, b = b, a
		}
		diffs = append(diffs, (b-a)/lengths)
	}
	rep.addSamples("core.checkpoint_ms_per_length", "ms", diffs)
	if len(blob) == 0 {
		return nil, fmt.Errorf("no checkpoint emitted over [%d,%d]", lmin, lmax)
	}
	return blob, nil
}

// writeSynced replaces path with b and fsyncs it, as a durable
// checkpoint consumer would.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
