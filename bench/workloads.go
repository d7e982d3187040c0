package main

import (
	"fmt"
	"time"

	"github.com/seriesmining/valmod/internal/gen"
)

// workers is the engine parallelism of every workload: the benchmark
// machine has two cores, and the load must not exceed them.
const workers = 2

// workload is one named input set. Sizes follow the reasons in why.
type workload struct {
	name, why string
	kind      string // "batch", "stream" or "serve"
	dataset   string
	n         int // series length (stream: points in the window)
	lmin      int
	lmax      int
	discords  int
	chunk     int // stream: points per Append
	maxOps    int // stop after this many ops, serve: cycles per client (0 = time only)
	setupReps int // set-ups per untraced run; setup_s is their median
}

var workloads = []workload{
	{
		name: "pairs-n20k", kind: "batch", setupReps: 3, dataset: "ecg", n: 20000, lmin: 64, lmax: 83,
		why: "the paper's headline pruned query at its own range width: the seed scan and the advance/certify loop share the time",
	},
	{
		name: "pairs-wide", kind: "batch", setupReps: 3, dataset: "astro", n: 5000, lmin: 64, lmax: 263,
		why: "a 200-length range where the advance loop and the MASS/FFT recompute path dominate, and the pruned plan loses to the incremental one",
	},
	{
		name: "discords-n20k", kind: "batch", setupReps: 3, dataset: "ecg", n: 20000, lmin: 64, lmax: 83, discords: 5,
		why: "the incremental full-profile plan (FFT head seed, then diagonal passes) that never touches the pruning machinery",
	},
	{
		name: "stream-cap4096", kind: "stream", setupReps: 5, dataset: "ecg", n: 4096, lmin: 64, lmax: 83, chunk: 512,
		why: "the streaming write path: 512-point appends to a 4096-point sliding window, each a column recurrence and column scan plus the replay that repairs eviction",
	},
	{
		name: "serve-mixed", kind: "serve", setupReps: 25, dataset: "ecg", n: 5000, lmin: 64, lmax: 83,
		why: "what an operator sees: HTTP, WAL fsync, admission, engine, cache hits and checkpoints under two closed-loop clients",
	},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// series generates the workload's input for a seed; the system under test
// receives only these values.
func (w workload) series(n int, seed int64) ([]float64, error) {
	s, err := gen.Dataset(w.dataset, n, seed)
	if err != nil {
		return nil, err
	}
	return s.Values, nil
}

// env is what one workload run needs besides its workload.
type env struct {
	seed      int64
	window    time.Duration // the measured window
	tr        *tracer       // nil on untraced runs
	serveBin  string        // valmod-serve binary
	dir       string        // run-private scratch directory
	setupReps int           // set-ups per untraced run (0 = workload.setupReps)
	self      string        // this executable, for fresh-process set-ups
	pinned    *anchors      // expected anchors, nil when none are pinned
	serve     workload      // serve-mixed at this run's scale: its miss query backs the fixed probes
}

// loop runs op until the window would be exceeded (judged by the median
// op time so far), or maxOps ops ran; it always runs at least min ops.
func loop(window time.Duration, maxOps, min int, op func(i int) (time.Duration, error)) error {
	deadline := time.Now().Add(window)
	var durs []float64
	for i := 0; maxOps == 0 || i < maxOps; i++ {
		if i >= min && len(durs) > 0 && time.Now().Add(time.Duration(median(durs))).After(deadline) {
			return nil
		}
		d, err := op(i)
		if err != nil {
			return err
		}
		durs = append(durs, float64(d))
	}
	return nil
}
