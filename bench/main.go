// Command valmod-bench is the repository's benchmark: five named
// workloads that drive the VALMOD suite only from outside — the public
// valmod API, the exported functions of internal/kernels, internal/fft,
// internal/stomp and internal/service, and the real valmod-serve binary.
//
// Every workload run is one fresh process and follows the same steps:
// untimed input generation from -seed, a timed set-up, timed repetitions
// for -seconds, then output checks. It prints every metric as
//
//	workload metric value unit n=… q1=… q3=…
//
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}, holding the end-to-end metrics of an untraced run or, with
// -trace 1, the per-layer metrics of a traced run. -out writes the full
// report as JSON, -trace-out the traced run's spans.
//
// Usage (bench/run.sh builds this program and valmod-serve first):
//
//	bash bench/run.sh -workload pairs-n20k -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -all -runs 3 -seed 1 -out set.json
//	bash bench/run.sh compare old.json new.json
//
// README.md in this directory documents the workloads, the metrics and
// the layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/seriesmining/valmod/internal/kernels"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	all        bool
	runs       int
	out        string
	traceOut   string
	serveBin   string
	workDir    string
	setupChild bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.BoolVar(&o.all, "all", false, "run every workload, each in a fresh process: -runs untraced runs plus one traced run")
	flag.IntVar(&o.runs, "runs", 1, "untraced runs per workload under -all")
	flag.StringVar(&o.out, "out", "", "write the report (a result set) as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans as JSON to this file")
	flag.StringVar(&o.serveBin, "serve-bin", "", "valmod-serve binary for the serve workload and probes")
	flag.StringVar(&o.workDir, "work-dir", "", "directory for scratch files (default: the system temp directory)")
	flag.BoolVar(&o.setupChild, "setup-child", false, "internal: time one cold Discover and print its seconds")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "valmod-bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.setupChild {
		w, err := lookup(o.workload)
		if err != nil {
			return err
		}
		return runSetupChild(w, o.seed)
	}
	if o.all {
		return runAll(o)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	if o.workDir != "" {
		if err := os.MkdirAll(o.workDir, 0o777); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	serve, _ := lookup("serve-mixed")
	e := &env{
		seed: o.seed, window: time.Duration(o.seconds * float64(time.Second)),
		serveBin: o.serveBin, dir: dir, self: self, serve: serve,
	}
	if o.trace == 1 {
		e.tr = newTracer()
	}
	if o.seed == 1 {
		pinned, err := loadPinned()
		if err != nil {
			return err
		}
		e.pinned = pinned[w.name]
	}
	rep, err := runWorkload(e, w)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rep.printLines(os.Stdout)
	if o.out != "" {
		if err := writeJSON(o.out, newSet(o.seconds, rep)); err != nil {
			return err
		}
	}
	if o.traceOut != "" && e.tr != nil {
		if err := writeJSON(o.traceOut, rep.spans); err != nil {
			return err
		}
	}
	line, err := rep.resultLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload measures one workload in this process and settles its
// report.
func runWorkload(e *env, w workload) (*report, error) {
	rep := &report{Workload: w.name, Seed: e.seed, Trace: e.tr != nil}
	if e.setupReps <= 0 {
		e.setupReps = w.setupReps
	}
	var err error
	switch w.kind {
	case "batch":
		err = runBatch(e, w, rep)
	case "stream":
		err = runStream(e, w, rep)
	case "serve":
		err = runServe(e, w, rep)
	default:
		err = fmt.Errorf("unknown workload kind %q", w.kind)
	}
	if err != nil {
		return nil, err
	}
	rep.finish()
	if e.tr != nil {
		rep.spans = e.tr.all()
		rep.LayerSelf = layerSelf(rep.spans)
		rep.add("trace.coverage_frac", "ratio", coverage(rep.spans))
	}
	return rep, nil
}

// resultSet is what -out writes and compare reads: machine metadata plus
// every run's report.
type resultSet struct {
	Meta struct {
		GoVersion     string  `json:"go_version"`
		GOOS          string  `json:"goos"`
		GOARCH        string  `json:"goarch"`
		NumCPU        int     `json:"num_cpu"`
		KernelVariant string  `json:"kernel_variant"`
		Seconds       float64 `json:"seconds"`
	} `json:"meta"`
	Runs []*report `json:"runs"`
}

func newSet(seconds float64, runs ...*report) *resultSet {
	s := &resultSet{Runs: runs}
	s.Meta.GoVersion, s.Meta.GOOS, s.Meta.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	s.Meta.NumCPU, s.Meta.KernelVariant, s.Meta.Seconds = runtime.NumCPU(), kernels.Active().String(), seconds
	return s
}

// runAll runs every workload -runs times untraced and once traced, each
// run a fresh process of this program, and collects their reports.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.workDir, "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	set := newSet(o.seconds)
	var errs []error
	for _, w := range workloads {
		for r := 0; r <= o.runs; r++ {
			trace := 0
			if r == o.runs {
				trace = 1
			}
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, r))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace),
				"-serve-bin", o.serveBin, "-work-dir", o.workDir, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				errs = append(errs, fmt.Errorf("%s run %d: %w", w.name, r, err))
				continue
			}
			var one resultSet
			if err := readJSON(out, &one); err != nil {
				errs = append(errs, err)
				continue
			}
			for _, rep := range one.Runs {
				if !rep.Correct {
					errs = append(errs, fmt.Errorf("%s run %d: %d of %d checks failed", w.name, r, rep.Failed, rep.Attempted))
				}
			}
			set.Runs = append(set.Runs, one.Runs...)
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, set); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
