// Command valmod-experiments regenerates every figure of the paper's
// evaluation at laptop scale (-fig names the panel: 1left, 1right, 2,
// 3top, 3bottom).
// Sizes and timeouts are scaled down from the paper's 0.5M-point/24-hour
// testbed by default and can be scaled back up with flags; the claims being
// reproduced are relative (which algorithm wins, where timeouts start, how
// time grows), which survive the scaling.
//
// Besides the figures, -bench-json runs a small fixed benchmark suite —
// pairs-only vs pairs+discords over the same generated datasets — and
// emits machine-readable JSON, so successive PRs can track the engine's
// speed from committed baselines (BENCH_PR3.json is the first);
// -bench-large adds the n=50k/100k cases. -cpuprofile/-memprofile wrap any
// of the workloads in pprof capture (see README "Profiling the engine").
//
// Usage:
//
//	valmod-experiments -fig 1left
//	valmod-experiments -fig 3top -n 20000 -timeout 2m
//	valmod-experiments -fig all
//	valmod-experiments -bench-json -bench-large -bench-out BENCH_PR5.json
//	valmod-experiments -bench-json -cpuprofile cpu.prof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/asciiplot"
	"github.com/seriesmining/valmod/internal/baseline/moen"
	"github.com/seriesmining/valmod/internal/baseline/quickmotif"
	"github.com/seriesmining/valmod/internal/baseline/stomprange"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/harness"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/mass"
	"github.com/seriesmining/valmod/internal/series"
)

func main() {
	var (
		fig          = flag.String("fig", "all", "figure to regenerate: 1left|1right|2|3top|3bottom|all")
		n            = flag.Int("n", 10000, "series length for Figure 3 (top)")
		lmin         = flag.Int("lmin", 64, "minimum subsequence length for Figure 3")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-run budget for Figure 3 (paper: 24h)")
		seed         = flag.Int64("seed", 1, "dataset seed")
		sizes        = flag.String("sizes", "5000,10000,20000,30000,50000", "series sizes for Figure 3 (bottom)")
		ranges       = flag.String("ranges", "10,20,50,100,200", "length ranges for Figure 3 (top)")
		workers      = flag.Int("workers", 1, "goroutines for VALMOD's data-parallel phases in Figure 3 (default 1: the competitors are single-threaded, matching the paper's C implementations; output is identical at any setting)")
		bench        = flag.Bool("bench-json", false, "run the reproducible benchmark suite (pairs-only vs pairs+discords) and emit machine-readable JSON instead of figures")
		benchN       = flag.Int("bench-n", 5000, "series length for the -bench-json suite")
		out          = flag.String("bench-out", "", "write -bench-json output to this path (default stdout)")
		large        = flag.Bool("bench-large", false, "add the large-series cases (ecg/pairs@n50k, ecg/pairs+discords@n100k at workers 1 and 4) to the -bench-json suite")
		benchCkpt    = flag.Bool("bench-checkpoint", false, "add the checkpoint-overhead case to the -bench-json suite: ecg/pairs+discords at -bench-checkpoint-n, run bare and then with engine checkpoints written+fsynced at the service cadence; the report carries checkpoint_bytes and checkpoint_ms_per_length")
		benchCkptN   = flag.Int("bench-checkpoint-n", 100000, "series length for the -bench-checkpoint case")
		benchKernels = flag.Bool("bench-kernels", false, "time every hot kernel at every available dispatch variant (generic, plus avx2 and avx512 where detected) and report ns/op plus speedup over generic; with -bench-json the section embeds in the same report")
		benchScaling = flag.Bool("bench-scaling", false, "run the fixed pairs+discords and pairs-only workloads at workers 1/2/4, assert bit-identical anchors, and report the speedup ratios (exit non-zero on drift)")
		scalingN     = flag.Int("scaling-n", 20000, "series length for the -bench-scaling workload")
		benchCompare = flag.Bool("bench-compare", false, "compare two -bench-json reports given as positional args (old.json new.json): anchor drift always fails, timing regressions beyond -compare-tolerance fail unless -compare-anchors-only")
		compareTol   = flag.Float64("compare-tolerance", 0.10, "fractional timing regression -bench-compare tolerates")
		compareAnch  = flag.Bool("compare-anchors-only", false, "-bench-compare checks result anchors only (for baselines recorded on a different machine)")
		benchStream  = flag.Bool("bench-stream", false, "run the streaming-append throughput suite (ecg fed in -stream-chunk point chunks, capped and uncapped) and emit machine-readable JSON")
		streamN      = flag.Int("stream-n", 50000, "total points fed through the stream for -bench-stream")
		streamChunk  = flag.Int("stream-chunk", 1000, "chunk size for -bench-stream")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile of the selected workload to this file (pprof format)")
		memProf      = flag.String("memprofile", "", "write a heap profile (after the workload) to this file (pprof format)")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "valmod-experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "valmod-experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "valmod-experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state picture, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "valmod-experiments:", err)
			}
		}()
	}
	if *benchCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "valmod-experiments: -bench-compare needs exactly two args: old.json new.json")
			os.Exit(1)
		}
		if err := runBenchCompare(flag.Arg(0), flag.Arg(1), *compareTol, *compareAnch); err != nil {
			fmt.Fprintln(os.Stderr, "valmod-experiments: bench-compare:", err)
			os.Exit(1)
		}
		return
	}
	if *bench || *benchStream || *benchKernels || *benchScaling {
		if *bench || (*benchKernels && !*benchScaling) {
			if err := runBenchJSON(*out, *benchN, *lmin, *seed, *workers, *large, *benchKernels, !*bench, *benchCkpt, *benchCkptN); err != nil {
				fmt.Fprintln(os.Stderr, "valmod-experiments:", err)
				os.Exit(1)
			}
		}
		if *benchScaling {
			if err := runBenchScaling(*out, *scalingN, *lmin, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "valmod-experiments: bench-scaling:", err)
				os.Exit(1)
			}
		}
		if *benchStream {
			if err := runBenchStream(*out, *streamN, *streamChunk, *lmin, *seed, *workers); err != nil {
				fmt.Fprintln(os.Stderr, "valmod-experiments: bench-stream:", err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*fig, *n, *lmin, *timeout, *seed, parseInts(*sizes), parseInts(*ranges), *workers); err != nil {
		fmt.Fprintln(os.Stderr, "valmod-experiments:", err)
		os.Exit(1)
	}
}

// benchCase is one timed engine run of the -bench-json suite. Everything
// that pins the workload (dataset, sizes, options) is echoed so a stored
// baseline is self-describing; best_norm_dist / top_discord_norm_dist
// anchor the output so a speedup that silently changed results shows up
// in the diff.
type benchCase struct {
	Name              string  `json:"name"`
	Dataset           string  `json:"dataset"`
	N                 int     `json:"n"`
	LMin              int     `json:"lmin"`
	LMax              int     `json:"lmax"`
	TopK              int     `json:"topk"`
	Discords          int     `json:"discords"`
	Workers           int     `json:"workers"`
	Seconds           float64 `json:"seconds"`
	Lengths           int     `json:"lengths"`
	CertifiedAnchors  int     `json:"certified_anchors"`
	RecomputedAnchors int     `json:"recomputed_anchors"`
	FullRecomputes    int     `json:"full_recomputes"`
	// Per-length plan breakdown (valmod.PlanStats): pruned vs incremental
	// vs from-scratch lengths, plus the incremental engine's head-row
	// seeds (FFTs) and one-FMA-per-cell extensions.
	PrunedLengths      int `json:"pruned_lengths"`
	IncrementalLengths int `json:"incremental_lengths,omitempty"`
	RecomputeLengths   int `json:"recompute_lengths"`
	HeadSeeds          int `json:"head_seeds,omitempty"`
	HeadExtensions     int `json:"head_extensions,omitempty"`
	// Allocation accounting across the timed run (runtime.MemStats deltas
	// divided by the length count): with the zero-alloc steady state the
	// per-length numbers are dominated by per-run setup, so they fall as
	// the range grows — the committed baselines record the trend.
	AllocsPerLength float64 `json:"allocs_per_length"`
	BytesPerLength  float64 `json:"bytes_per_length"`
	// Peak memory after the run: MaxRSSBytes is the getrusage(2) high-water
	// mark of the whole process (cases run small→large, so each case's
	// value reflects the largest workload so far — the last case of a suite
	// owns the suite's peak), HeapInuseBytes the live Go heap at the same
	// instant.
	MaxRSSBytes    uint64 `json:"max_rss_bytes,omitempty"`
	HeapInuseBytes uint64 `json:"heap_inuse_bytes,omitempty"`
	// Result anchors. The offsets/lengths pin the discovery exactly;
	// distances can drift in trailing digits across arithmetic changes
	// (documented per PR), so anchor identity is checked on offsets.
	BestNormDist       float64 `json:"best_norm_dist"`
	BestA              int     `json:"best_a"`
	BestB              int     `json:"best_b"`
	BestLength         int     `json:"best_length"`
	TopDiscordNormDist float64 `json:"top_discord_norm_dist,omitempty"`
	TopDiscordOffset   int     `json:"top_discord_offset,omitempty"`
	TopDiscordLength   int     `json:"top_discord_length,omitempty"`
	// Checkpoint overhead (the -bench-checkpoint case only). The workload
	// runs twice over identical inputs — bare, then emitting engine
	// checkpoints at the service cadence, each blob written and fsynced
	// like the WAL's blob store — and the delta is charged to
	// checkpointing: Seconds times the checkpointed run,
	// baseline_seconds the bare one, checkpoint_ms_per_length =
	// (Seconds − baseline_seconds)·1000 / lengths. checkpoint_bytes is
	// the mean blob size (dominated by the hot-row cache, so near-flat
	// across lengths).
	BaselineSeconds       float64 `json:"baseline_seconds,omitempty"`
	CheckpointBytes       int64   `json:"checkpoint_bytes,omitempty"`
	CheckpointCount       int     `json:"checkpoint_count,omitempty"`
	CheckpointMsPerLength float64 `json:"checkpoint_ms_per_length,omitempty"`
}

// fillBenchStats populates the fields every case derives from a finished
// run: length/plan counters, allocation accounting, peak memory, and the
// result anchors.
func fillBenchStats(bc *benchCase, res *valmod.Result, m0, m1 *runtime.MemStats) {
	bc.Lengths = len(res.PerLength)
	bc.PrunedLengths = res.Plan.PrunedLengths
	bc.IncrementalLengths = res.Plan.IncrementalLengths
	bc.RecomputeLengths = res.Plan.RecomputeLengths
	bc.HeadSeeds = res.Plan.HeadSeeds
	bc.HeadExtensions = res.Plan.HeadExtensions
	bc.HeapInuseBytes = m1.HeapInuse
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil && ru.Maxrss > 0 {
		bc.MaxRSSBytes = uint64(ru.Maxrss) * 1024 // linux reports KiB
	}
	if lengths := len(res.PerLength); lengths > 0 {
		bc.AllocsPerLength = float64(m1.Mallocs-m0.Mallocs) / float64(lengths)
		bc.BytesPerLength = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(lengths)
	}
	for _, lr := range res.PerLength {
		bc.CertifiedAnchors += lr.Certified
		bc.RecomputedAnchors += lr.Recomputed
		if lr.FullRecompute {
			bc.FullRecomputes++
		}
	}
	if best, ok := res.BestOverall(); ok {
		bc.BestNormDist = best.NormDistance
		bc.BestA, bc.BestB, bc.BestLength = best.A, best.B, best.Length
	}
	if len(res.Discords) > 0 {
		bc.TopDiscordNormDist = res.Discords[0].NormDistance
		bc.TopDiscordOffset = res.Discords[0].Offset
		bc.TopDiscordLength = res.Discords[0].Length
	}
}

// benchReport is the whole -bench-json document. KernelVariant records the
// dispatch tier the process selected (generic/avx2/avx512 — see
// internal/kernels and the VALMOD_KERNELS override); Kernels is the
// optional -bench-kernels section.
type benchReport struct {
	GoVersion     string        `json:"go_version"`
	GOOS          string        `json:"goos"`
	GOARCH        string        `json:"goarch"`
	NumCPU        int           `json:"num_cpu"`
	KernelVariant string        `json:"kernel_variant"`
	Seed          int64         `json:"seed"`
	Cases         []benchCase   `json:"cases,omitempty"`
	Kernels       []kernelBench `json:"kernels,omitempty"`
}

// runBenchJSON times the fixed benchmark grid: for each dataset, one
// pairs-only run (the pruned plan) and one pairs+discords run (the exact
// full-profile plan) over the same series and length range. Timings are
// machine-dependent; the result anchors are not (fixed seed, fixed
// grids), so baseline diffs separate "faster/slower" from "different".
func runBenchJSON(outPath string, n, lmin int, seed int64, workers int, large, withKernels, kernelsOnly, withCkpt bool, ckptN int) error {
	const rangeLen = 20
	rep := benchReport{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		KernelVariant: kernels.Active().String(),
		Seed:          seed,
	}
	runCase := func(ds string, n, discords, caseWorkers int, tag string) error {
		s, err := gen.Dataset(ds, n, seed)
		if err != nil {
			return err
		}
		opts := valmod.Options{TopK: 10, Discords: discords, Workers: caseWorkers}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := valmod.Discover(s.Values, lmin, lmin+rangeLen-1, opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		kind := "pairs"
		if discords > 0 {
			kind = "pairs+discords"
		}
		name := fmt.Sprintf("%s/%s%s", ds, kind, tag)
		if caseWorkers != workers {
			name = fmt.Sprintf("%s@w%d", name, caseWorkers)
		}
		bc := benchCase{
			Name:    name,
			Dataset: ds, N: n,
			LMin: lmin, LMax: lmin + rangeLen - 1,
			TopK: opts.TopK, Discords: discords, Workers: caseWorkers,
			Seconds: elapsed.Seconds(),
		}
		fillBenchStats(&bc, res, &m0, &m1)
		rep.Cases = append(rep.Cases, bc)
		return nil
	}
	// The grid: pairs-only (pruned plan) and pairs+discords (incremental
	// full-profile plan) at the flag's worker count, plus pairs+discords
	// at workers=4 — the case that exercises the diagonal-block grid's
	// worker-count independence under time measurement.
	type benchSpec struct {
		discords, workers int
	}
	if !kernelsOnly {
		specs := []benchSpec{{0, workers}, {5, workers}}
		if workers != 4 {
			specs = append(specs, benchSpec{5, 4})
		}
		for _, ds := range []string{"ecg", "astro"} {
			for _, spec := range specs {
				if err := runCase(ds, n, spec.discords, spec.workers, ""); err != nil {
					return err
				}
			}
		}
	}
	if large {
		// Large-series cases proving the kernels at 10–20× the classic n,
		// each at workers=1 and workers=4 so the baselines also witness the
		// fixed-grid bit-identity at scale (the anchors must match).
		for _, lc := range []struct {
			n, discords, workers int
			tag                  string
		}{
			{50000, 0, 1, "@n50k"},
			{50000, 0, 4, "@n50k"},
			{100000, 5, 1, "@n100k"},
			{100000, 5, 4, "@n100k"},
		} {
			// runCase appends a @w suffix whenever the case's worker count
			// differs from the -workers flag, keeping the w1/w4 pair of each
			// size distinguishable under the default flag value of 1.
			if err := runCase("ecg", lc.n, lc.discords, lc.workers, lc.tag); err != nil {
				return err
			}
		}
	}
	if withCkpt && !kernelsOnly {
		if err := runCheckpointCase(&rep, ckptN, lmin, rangeLen, seed); err != nil {
			return err
		}
	}
	if withKernels {
		ks, err := collectKernelBenches(seed)
		if err != nil {
			return err
		}
		rep.Kernels = ks
	}
	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runCheckpointCase measures what durable checkpointing costs: the ecg
// pairs+discords workload runs bare, then again emitting engine
// checkpoints at the service cadence (every 8 lengths), each blob written
// and fsynced the way the service's WAL stores it. The two runs must agree on the best pair — checkpointing is
// observation-only — and the timing delta becomes checkpoint_ms_per_length.
func runCheckpointCase(rep *benchReport, n, lmin, rangeLen int, seed int64) error {
	s, err := gen.Dataset("ecg", n, seed)
	if err != nil {
		return err
	}
	lmax := lmin + rangeLen - 1
	opts := valmod.Options{TopK: 10, Discords: 5, Workers: 1}
	runtime.GC()
	start := time.Now()
	base, err := valmod.Discover(s.Values, lmin, lmax, opts)
	if err != nil {
		return err
	}
	baseSecs := time.Since(start).Seconds()

	dir, err := os.MkdirTemp("", "valmod-bench-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var blobBytes int64
	blobs := 0
	copts := opts
	copts.CheckpointEvery = 8
	copts.Checkpoint = func(b []byte) error {
		tmp := filepath.Join(dir, "ckpt.tmp")
		f, err := os.Create(tmp)
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
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(dir, "ckpt")); err != nil {
			return err
		}
		blobBytes += int64(len(b))
		blobs++
		return nil
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start = time.Now()
	res, err := valmod.Discover(s.Values, lmin, lmax, copts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	bestBase, _ := base.BestOverall()
	bestCkpt, _ := res.BestOverall()
	if bestBase != bestCkpt {
		return fmt.Errorf("checkpointed run drifted from the bare run: %+v vs %+v", bestCkpt, bestBase)
	}
	tag := fmt.Sprintf("@n%d", n)
	if n%1000 == 0 {
		tag = fmt.Sprintf("@n%dk", n/1000)
	}
	bc := benchCase{
		Name:    "ecg/pairs+discords/ckpt" + tag,
		Dataset: "ecg", N: n,
		LMin: lmin, LMax: lmax,
		TopK: opts.TopK, Discords: opts.Discords, Workers: 1,
		Seconds:         elapsed.Seconds(),
		BaselineSeconds: baseSecs,
	}
	fillBenchStats(&bc, res, &m0, &m1)
	if blobs > 0 {
		bc.CheckpointBytes = blobBytes / int64(blobs)
		bc.CheckpointCount = blobs
	}
	if lengths := len(res.PerLength); lengths > 0 {
		bc.CheckpointMsPerLength = (elapsed.Seconds() - baseSecs) * 1000 / float64(lengths)
	}
	rep.Cases = append(rep.Cases, bc)
	return nil
}

// streamBenchCase is one timed streaming feed of the -bench-stream suite.
// EarlyChunkSecs/LateChunkSecs are the mean per-chunk append times near the
// start (after the sliding window has filled, for capped cases) and at the
// end of the feed: their ratio is the scaling witness. A capped stream must
// hold it near 1 — per-chunk cost O(chunk·lengths·cap), independent of how
// many points ever streamed — while the uncapped contrast case shows the
// expected linear growth of O(chunk·lengths·n) as the retained series
// grows. The anchors pin the final snapshot so a speedup that changed
// results shows in the diff.
type streamBenchCase struct {
	Name           string  `json:"name"`
	Dataset        string  `json:"dataset"`
	NTotal         int     `json:"n_total"`
	Chunk          int     `json:"chunk"`
	WindowCap      int     `json:"window_cap,omitempty"`
	LMin           int     `json:"lmin"`
	LMax           int     `json:"lmax"`
	Workers        int     `json:"workers"`
	Seconds        float64 `json:"seconds"`
	PointsPerSec   float64 `json:"points_per_sec"`
	EarlyChunkSecs float64 `json:"early_chunk_secs"`
	LateChunkSecs  float64 `json:"late_chunk_secs"`
	LateOverEarly  float64 `json:"late_over_early"`
	BestNormDist   float64 `json:"best_norm_dist"`
	BestA          int     `json:"best_a"`
	BestB          int     `json:"best_b"`
	BestLength     int     `json:"best_length"`
}

// runBenchStream times Stream.Append throughput on the ECG generator: the
// headline sliding-window case (the live-monitoring deployment shape) fed
// nTotal points in fixed chunks, plus a shorter uncapped contrast case.
// Timings cover appends only; one snapshot at the end provides the result
// anchors.
func runBenchStream(outPath string, nTotal, chunk, lmin int, seed int64, workers int) error {
	const rangeLen = 20
	if chunk <= 0 || nTotal < chunk {
		return fmt.Errorf("need n_total >= chunk > 0, got %d/%d", nTotal, chunk)
	}
	rep := struct {
		GoVersion string            `json:"go_version"`
		GOOS      string            `json:"goos"`
		GOARCH    string            `json:"goarch"`
		NumCPU    int               `json:"num_cpu"`
		Seed      int64             `json:"seed"`
		Cases     []streamBenchCase `json:"cases"`
	}{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Seed:      seed,
	}
	runCase := func(name string, n, chunk, cap int) error {
		s, err := gen.Dataset("ecg", n, seed)
		if err != nil {
			return err
		}
		lmax := lmin + rangeLen - 1
		st, err := valmod.NewStream(lmin, lmax, valmod.Options{TopK: 1, Workers: workers, WindowCap: cap})
		if err != nil {
			return err
		}
		var chunkSecs []float64
		start := time.Now()
		for pos := 0; pos < n; pos += chunk {
			end := pos + chunk
			if end > n {
				end = n
			}
			c0 := time.Now()
			if err := st.Append(s.Values[pos:end]); err != nil {
				return err
			}
			chunkSecs = append(chunkSecs, time.Since(c0).Seconds())
		}
		elapsed := time.Since(start).Seconds()
		// Compare a window of chunks just after steady state begins (for a
		// capped stream: once the window has filled and evictions run every
		// chunk) against the final chunks of the feed.
		warm := 1
		if cap > 0 {
			warm = (cap + chunk - 1) / chunk
		}
		const span = 10
		if warm+2*span > len(chunkSecs) {
			warm = 1 // short feeds: fall back to "after the first chunk"
		}
		mean := func(xs []float64) float64 {
			sum := 0.0
			for _, v := range xs {
				sum += v
			}
			return sum / float64(len(xs))
		}
		early := mean(chunkSecs[warm:min(warm+span, len(chunkSecs))])
		late := mean(chunkSecs[max(len(chunkSecs)-span, 0):])
		res, err := st.Snapshot()
		if err != nil {
			return err
		}
		bc := streamBenchCase{
			Name: name, Dataset: "ecg", NTotal: n, Chunk: chunk, WindowCap: cap,
			LMin: lmin, LMax: lmax, Workers: workers,
			Seconds: elapsed, PointsPerSec: float64(n) / elapsed,
			EarlyChunkSecs: early, LateChunkSecs: late, LateOverEarly: late / early,
		}
		if best, ok := res.BestOverall(); ok {
			bc.BestNormDist = best.NormDistance
			bc.BestA, bc.BestB, bc.BestLength = best.A, best.B, best.Length
		}
		rep.Cases = append(rep.Cases, bc)
		return nil
	}
	cap := 4096
	if cap < lmin+rangeLen-1 {
		cap = lmin + rangeLen - 1
	}
	if err := runCase("ecg/stream@cap4096", nTotal, chunk, cap); err != nil {
		return err
	}
	// The uncapped contrast runs a fifth of the feed in smaller chunks
	// (enough of them that the early and late measurement windows don't
	// overlap): its per-chunk cost grows linearly with the retained
	// length, which is exactly what the case exists to demonstrate.
	un := nTotal / 5
	if un < 2*chunk {
		un = 2 * chunk
	}
	unChunk := un / 25
	if unChunk < 1 {
		unChunk = 1
	}
	if err := runCase("ecg/stream/uncapped", un, unChunk, 0); err != nil {
		return err
	}
	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func parseInts(csv string) []int {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err == nil {
			out = append(out, v)
		}
	}
	return out
}

func run(fig string, n, lmin int, timeout time.Duration, seed int64, sizes, ranges []int, workers int) error {
	switch fig {
	case "1left":
		return fig1Left(seed)
	case "1right":
		return fig1Right(seed)
	case "2":
		return fig2(seed)
	case "3top":
		return fig3Top(n, lmin, timeout, seed, ranges, workers)
	case "3bottom":
		return fig3Bottom(lmin, timeout, seed, sizes, workers)
	case "all":
		for _, f := range []func() error{
			func() error { return fig1Left(seed) },
			func() error { return fig1Right(seed) },
			func() error { return fig2(seed) },
			func() error { return fig3Top(n, lmin, timeout, seed, ranges, workers) },
			func() error { return fig3Bottom(lmin, timeout, seed, sizes, workers) },
		} {
			if err := f(); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// fig1Left reproduces Figure 1 (left): an ECG snippet, its fixed-length
// matrix profile at ℓ=50 and the index profile.
func fig1Left(seed int64) error {
	fmt.Println("== Figure 1 (left): ECG, matrix profile l=50, index profile ==")
	s := gen.ECG(5000, seed)
	fp, err := valmod.MatrixProfile(s.Values, 50, true)
	if err != nil {
		return err
	}
	fmt.Println("(a) ECG data")
	fmt.Println(asciiplot.Plot(s.Values, 100, 8))
	fmt.Println("(b) Matrix profile l=50")
	fmt.Println(asciiplot.Plot(fp.Dist, 100, 6))
	idx := make([]float64, len(fp.Index))
	for i, v := range fp.Index {
		idx[i] = float64(v)
	}
	fmt.Println("(c) Index profile")
	fmt.Println(asciiplot.Plot(idx, 100, 6))
	pairs := fp.TopPairs(4)
	fmt.Println("motifs at l=50 (the four deep valleys):")
	for i, p := range pairs {
		fmt.Printf("  %d. offsets %d / %d  d=%.4f\n", i+1, p.A, p.B, p.Distance)
	}
	return nil
}

// fig1Right reproduces Figure 1 (right): VALMAP MPn and Length profile over
// [50, 400] on the same ECG snippet, showing the longer motif the
// fixed-length profile misses.
func fig1Right(seed int64) error {
	fmt.Println("== Figure 1 (right): VALMAP over [50, 400] ==")
	s := gen.ECG(5000, seed)
	start := time.Now()
	res, err := valmod.Discover(s.Values, 50, 400, valmod.Options{TopK: 10})
	if err != nil {
		return err
	}
	fmt.Printf("(d) ECG data (VALMOD in %s)\n", harness.FormatDuration(time.Since(start)))
	fmt.Println(asciiplot.Plot(s.Values, 100, 8))
	fmt.Println("(e) VALMAP MPn (length-normalized)")
	fmt.Println(asciiplot.Plot(res.VALMAP.MPn, 100, 6))
	lp := make([]float64, len(res.VALMAP.LP))
	for i, v := range res.VALMAP.LP {
		lp[i] = float64(v)
	}
	fmt.Println("(f) VALMAP Length profile")
	fmt.Println(asciiplot.Plot(lp, 100, 6))
	if best, ok := res.BestOverall(); ok {
		fmt.Printf("global best (length-normalized): %v\n", best)
	}
	fmt.Println("top variable-length motifs:")
	for i, m := range res.TopMotifs(5) {
		fmt.Printf("  %d. offsets %d / %d  length %d  dn=%.4f\n", i+1, m.A, m.B, m.Length, m.NormDistance)
	}
	fmt.Printf("VALMAP checkpoints at lengths: %v\n", res.VALMAP.Checkpoints())
	return nil
}

// fig2 reproduces Figure 2: the distance profile of one subsequence at
// ℓ=600 with its lower-bound column, then the valid/non-valid partial
// profile cases at ℓ=601.
func fig2(seed int64) error {
	fmt.Println("== Figure 2: distance profile of D(160,600) and partial profiles at 601 ==")
	s := gen.ECG(1800, seed)
	t := s.Values
	st := series.NewStats(t)
	const l, anchor = 600, 160
	qt, dist := mass.SlidingDotProfile(t[anchor:anchor+l], t)

	// (a) the profile and its entries ranked by LB, as in the figure's table.
	fmt.Println("(a) distance profile of D(160,600)")
	fmt.Println(asciiplot.Plot(dist, 100, 6))
	sumA := st.Sum(anchor, l)
	type row struct {
		j      int
		d, lbv float64
		qtilde float64
	}
	var rows []row
	terms0 := lb.NewAnchorTerms(st, anchor, l, 0)
	for j := range dist {
		if j > anchor-150 && j < anchor+150 {
			continue // trivial zone
		}
		muB, sdB := st.MeanStd(j, l)
		q := lb.QTilde(qt[j], sumA, muB, sdB)
		rows = append(rows, row{j: j, d: dist[j], lbv: terms0.Bound(q), qtilde: q})
	}
	// Show the 5 best by distance (the paper's table shows rank/dist/offset/LB).
	for i := 0; i < len(rows); i++ {
		for k := i + 1; k < len(rows); k++ {
			if rows[k].d < rows[i].d {
				rows[i], rows[k] = rows[k], rows[i]
			}
		}
	}
	tab := harness.NewTable("top entries (rank, dist, offset, LB)", "#", "dist", "offset", "LB")
	for i := 0; i < 5 && i < len(rows); i++ {
		tab.AddRow(i+1, fmt.Sprintf("%.2f", rows[i].d), rows[i].j, fmt.Sprintf("%.2f", rows[i].lbv))
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}

	// (b) partial profiles at 601: keep p entries, advance, classify.
	fmt.Println("\n(b) partial distance profiles at length 601 (p=5 retained entries)")
	const p = 5
	terms1 := lb.NewAnchorTerms(st, anchor, l, 1)
	// Keep the p entries with largest q̃² (smallest LB).
	for i := 0; i < len(rows); i++ {
		for k := i + 1; k < len(rows); k++ {
			if rows[k].qtilde*rows[k].qtilde > rows[i].qtilde*rows[i].qtilde {
				rows[i], rows[k] = rows[k], rows[i]
			}
		}
	}
	kept := rows
	if len(kept) > p {
		kept = kept[:p]
	}
	muA, sdA := st.MeanStd(anchor, l+1)
	minDist, maxLB := 1e308, 0.0
	for _, r := range kept {
		if r.j+l+1 > len(t) {
			continue
		}
		qtNew := qt[r.j] + t[anchor+l]*t[r.j+l]
		muB, sdB := st.MeanStd(r.j, l+1)
		d := series.DistFromDot(qtNew, float64(l+1), muA, sdA, muB, sdB)
		if d < minDist {
			minDist = d
		}
		if b := terms1.Bound(r.qtilde); b > maxLB {
			maxLB = b
		}
	}
	status := "NON-VALID (must recompute)"
	if minDist <= maxLB {
		status = "VALID (exact minimum certified)"
	}
	fmt.Printf("anchor D(%d,601): minDist=%.3f maxLB=%.3f → %s\n", anchor, minDist, maxLB, status)
	return nil
}

type algo struct {
	name string
	run  func(ctx context.Context, t []float64, lmin, lmax int) error
}

// algos lists the comparative suite. Every algorithm reports the top motif
// pair per length (MOEN and QUICKMOTIF produce exactly that; VALMOD and
// STOMP are configured to match so the timed work is comparable). workers
// parallelizes VALMOD only — the -workers flag documents the fairness
// default of 1.
func algos(workers int) []algo {
	return []algo{
		{"VALMOD", func(ctx context.Context, t []float64, lmin, lmax int) error {
			_, err := valmod.DiscoverContext(ctx, t, lmin, lmax, valmod.Options{TopK: 1, Workers: workers})
			return err
		}},
		{"STOMP", func(ctx context.Context, t []float64, lmin, lmax int) error {
			_, err := stomprange.Run(ctx, t, stomprange.Config{LMin: lmin, LMax: lmax, TopK: 1})
			return err
		}},
		{"MOEN", func(ctx context.Context, t []float64, lmin, lmax int) error {
			_, err := moen.Run(ctx, t, moen.Config{LMin: lmin, LMax: lmax})
			return err
		}},
		{"QUICKMOTIF", func(ctx context.Context, t []float64, lmin, lmax int) error {
			_, err := quickmotif.Run(ctx, t, quickmotif.Config{LMin: lmin, LMax: lmax})
			return err
		}},
	}
}

func fig3Top(n, lmin int, timeout time.Duration, seed int64, ranges []int, workers int) error {
	fmt.Printf("== Figure 3 (top): time vs length range (n=%d, lmin=%d, timeout=%s) ==\n", n, lmin, timeout)
	for _, ds := range []string{"ecg", "astro"} {
		s, err := gen.Dataset(ds, n, seed)
		if err != nil {
			return err
		}
		tab := harness.NewTable(strings.ToUpper(ds), "range", "VALMOD", "STOMP", "MOEN", "QUICKMOTIF")
		for _, rg := range ranges {
			lmax := lmin + rg - 1
			cells := []interface{}{rg}
			for _, a := range algos(workers) {
				m := harness.Timed(timeout, func(ctx context.Context) error {
					return a.run(ctx, s.Values, lmin, lmax)
				})
				cells = append(cells, m.String())
			}
			tab.AddRow(cells...)
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func fig3Bottom(lmin int, timeout time.Duration, seed int64, sizes []int, workers int) error {
	const rangeLen = 20
	fmt.Printf("== Figure 3 (bottom): time vs series length (range=%d, lmin=%d, timeout=%s) ==\n", rangeLen, lmin, timeout)
	for _, ds := range []string{"ecg", "astro"} {
		tab := harness.NewTable(strings.ToUpper(ds), "n", "VALMOD", "STOMP", "MOEN", "QUICKMOTIF")
		for _, n := range sizes {
			s, err := gen.Dataset(ds, n, seed)
			if err != nil {
				return err
			}
			cells := []interface{}{n}
			for _, a := range algos(workers) {
				m := harness.Timed(timeout, func(ctx context.Context) error {
					return a.run(ctx, s.Values, lmin, lmin+rangeLen-1)
				})
				cells = append(cells, m.String())
			}
			tab.AddRow(cells...)
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
