package main

// The kernel microbenchmark, scaling, and baseline-compare modes of
// valmod-experiments:
//
//   - -bench-kernels times every hot kernel at every available dispatch
//     variant (generic, and avx2 and avx512 where detected) on fixed
//     synthetic workloads and reports ns/op plus the speedup over the
//     generic variant. Combined with -bench-json the section is embedded
//     in the same report.
//   - -bench-scaling runs two fixed workloads — pairs+discords and pairs
//     only — at workers 1, 2 and 4, asserts the result anchors are
//     identical at every worker count (the engine's bit-identity
//     contract), and reports the speedup ratios. Exits non-zero on any
//     anchor drift.
//   - -bench-compare old.json new.json diffs two -bench-json reports:
//     any anchor drift on a shared case fails immediately; a timing
//     regression beyond -compare-tolerance (default 10%) fails unless
//     -compare-anchors-only is set (timings from different machines are
//     not comparable; anchors always are).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/kernels"
)

// kernelBench is one (kernel, dispatch variant) timing of -bench-kernels.
type kernelBench struct {
	Kernel           string  `json:"kernel"`
	Variant          string  `json:"variant"`
	NsPerOp          float64 `json:"ns_per_op"`
	SpeedupVsGeneric float64 `json:"speedup_vs_generic,omitempty"`
}

// timeOp calibrates repetitions toward ~120ms of wall time, measures
// three passes, and returns the fastest pass's ns/op — the standard guard
// against scheduler noise on shared machines (interference only ever adds
// time, so the minimum is the best estimate of the true cost).
func timeOp(op func()) float64 {
	op()
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		el := time.Since(start)
		if el > 100*time.Millisecond || reps >= 1<<24 {
			best := float64(el.Nanoseconds()) / float64(reps)
			for pass := 0; pass < 2; pass++ {
				start = time.Now()
				for i := 0; i < reps; i++ {
					op()
				}
				if v := float64(time.Since(start).Nanoseconds()) / float64(reps); v < best {
					best = v
				}
			}
			return best
		}
		f := 16
		if el > 0 {
			if f = int((120 * time.Millisecond) / el); f < 2 {
				f = 2
			}
		}
		reps *= f
	}
}

// kernelWorkloads builds the fixed micro workloads. Sizes mirror the
// package benchmarks in internal/kernels: long enough that the unrolled
// and vector bodies dominate, small enough that one op fits in L2.
func kernelWorkloads(seed int64) ([]struct {
	name string
	op   func()
}, error) {
	const (
		n  = 8192
		nd = 2048 // DiagScan workloads sweep the full triangle per op
		l  = 64
	)
	s, err := gen.Dataset("ecg", n, seed)
	if err != nil {
		return nil, err
	}
	ts := s.Values
	sl := n - l + 1
	means := make([]float64, sl)
	invs := make([]float64, sl)
	for j := 0; j < sl; j++ {
		sum, sq := 0.0, 0.0
		for p := 0; p < l; p++ {
			sum += ts[j+p]
			sq += ts[j+p] * ts[j+p]
		}
		mu := sum / l
		if v := sq/l - mu*mu; v > 0 {
			invs[j] = 1 / math.Sqrt(v*l)
		}
		means[j] = mu
	}
	dot := func(a, b []float64) float64 {
		sum := 0.0
		for i := range a {
			sum += a[i] * b[i]
		}
		return sum
	}
	head := make([]float64, sl)
	for j := range head {
		head[j] = dot(ts[0:l], ts[j:j+l])
	}
	row := append([]float64(nil), head...)
	sd := nd - l + 1
	corr := make([]float64, sd)
	idx := make([]int32, sd)
	resetSlots := func() {
		for i := range corr {
			corr[i] = math.Inf(-1)
			idx[i] = -1
		}
	}
	colCorr := make([]float64, sl)
	colIdx := make([]int32, sl)
	for i := range colCorr {
		colCorr[i] = math.Inf(-1)
		colIdx[i] = -1
	}
	var c int
	return []struct {
		name string
		op   func()
	}{
		{"RowNext", func() {
			c++
			kernels.RowNext(row, ts, 1+(c&7), l, sl)
		}},
		{"ExtendRow", func() {
			copy(row, head)
			kernels.ExtendRow(row, ts, 0, l, l+8)
		}},
		{"ArgmaxCorr", func() {
			kernels.ArgmaxCorr(head, means, invs, 100, 132, sl, 1.0/l, means[0], invs[0], math.Inf(-1), -1)
		}},
		{"ColScan", func() {
			kernels.ColScan(head, means, invs, sl-32, 1.0/l, means[sl-1], invs[sl-1], colCorr, colIdx, int32(sl-1), math.Inf(-1), -1)
		}},
		{"DiagScan", func() {
			resetSlots()
			kernels.DiagScan(ts[:nd], head[:sd], means, invs, 16, sd, l, sd, corr, idx)
		}},
	}, nil
}

// collectKernelBenches times every workload at every available dispatch
// variant and restores the entry variant before returning.
func collectKernelBenches(seed int64) ([]kernelBench, error) {
	loads, err := kernelWorkloads(seed)
	if err != nil {
		return nil, err
	}
	orig := kernels.Active()
	defer kernels.SetVariant(orig)
	var out []kernelBench
	for _, wl := range loads {
		generic := 0.0
		for _, v := range kernels.Available() {
			if err := kernels.SetVariant(v); err != nil {
				return nil, err
			}
			kb := kernelBench{Kernel: wl.name, Variant: v.String(), NsPerOp: timeOp(wl.op)}
			if v == kernels.Generic {
				generic = kb.NsPerOp
			} else if generic > 0 {
				kb.SpeedupVsGeneric = generic / kb.NsPerOp
			}
			out = append(out, kb)
		}
	}
	return out, nil
}

// scalingCase is one (workload, worker count) of the -bench-scaling
// report.
type scalingCase struct {
	Workload           string  `json:"workload"`
	Workers            int     `json:"workers"`
	Seconds            float64 `json:"seconds"`
	SpeedupVsW1        float64 `json:"speedup_vs_w1,omitempty"`
	BestNormDist       float64 `json:"best_norm_dist"`
	BestA              int     `json:"best_a"`
	BestB              int     `json:"best_b"`
	BestLength         int     `json:"best_length"`
	TopDiscordOffset   int     `json:"top_discord_offset"`
	TopDiscordLength   int     `json:"top_discord_length"`
	TopDiscordNormDist float64 `json:"top_discord_norm_dist"`
}

// runBenchScaling times two fixed workloads at workers 1, 2 and 4:
// pairs+discords (the incremental whole-profile pass) and pairs only (the
// pruned pass, whose ℓmin seed sweep is its parallel phase). Within each
// workload the anchors must be identical at every worker count — any
// drift is a determinism bug and the run exits non-zero. The speedup
// ratios are the multicore witness CI records.
func runBenchScaling(outPath string, n, lmin int, seed int64) error {
	const rangeLen = 20
	rep := struct {
		GoVersion     string        `json:"go_version"`
		GOOS          string        `json:"goos"`
		GOARCH        string        `json:"goarch"`
		NumCPU        int           `json:"num_cpu"`
		KernelVariant string        `json:"kernel_variant"`
		Dataset       string        `json:"dataset"`
		N             int           `json:"n"`
		LMin          int           `json:"lmin"`
		LMax          int           `json:"lmax"`
		Seed          int64         `json:"seed"`
		Cases         []scalingCase `json:"cases"`
	}{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), KernelVariant: kernels.Active().String(),
		Dataset: "ecg", N: n, LMin: lmin, LMax: lmin + rangeLen - 1, Seed: seed,
	}
	s, err := gen.Dataset("ecg", n, seed)
	if err != nil {
		return err
	}
	for _, wl := range []struct {
		name     string
		discords int
	}{{"pairs+discords", 5}, {"pairs", 0}} {
		first := len(rep.Cases)
		for _, w := range []int{1, 2, 4} {
			start := time.Now()
			res, err := valmod.Discover(s.Values, lmin, lmin+rangeLen-1, valmod.Options{TopK: 10, Discords: wl.discords, Workers: w})
			if err != nil {
				return err
			}
			sc := scalingCase{Workload: wl.name, Workers: w, Seconds: time.Since(start).Seconds()}
			if best, ok := res.BestOverall(); ok {
				sc.BestNormDist = best.NormDistance
				sc.BestA, sc.BestB, sc.BestLength = best.A, best.B, best.Length
			}
			if len(res.Discords) > 0 {
				sc.TopDiscordNormDist = res.Discords[0].NormDistance
				sc.TopDiscordOffset = res.Discords[0].Offset
				sc.TopDiscordLength = res.Discords[0].Length
			}
			if len(rep.Cases) > first {
				base := rep.Cases[first]
				sc.SpeedupVsW1 = base.Seconds / sc.Seconds
				if sc.BestA != base.BestA || sc.BestB != base.BestB || sc.BestLength != base.BestLength ||
					sc.BestNormDist != base.BestNormDist ||
					sc.TopDiscordOffset != base.TopDiscordOffset || sc.TopDiscordLength != base.TopDiscordLength ||
					sc.TopDiscordNormDist != base.TopDiscordNormDist {
					return fmt.Errorf("%s: workers=%d anchors drift from workers=1: %+v vs %+v", wl.name, w, sc, base)
				}
			}
			rep.Cases = append(rep.Cases, sc)
		}
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

// runBenchCompare diffs two -bench-json reports. Cases and kernel entries
// are matched by name (resp. kernel+variant); entries present in only one
// report are reported but never fail. Anchor drift on a shared case always
// fails; timing regressions beyond tol fail unless anchorsOnly is set.
func runBenchCompare(oldPath, newPath string, tol float64, anchorsOnly bool) error {
	load := func(path string) (*benchReport, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep benchReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	oldCases := map[string]benchCase{}
	for _, c := range oldRep.Cases {
		oldCases[c.Name] = c
	}
	failed := false
	for _, nc := range newRep.Cases {
		oc, ok := oldCases[nc.Name]
		if !ok {
			fmt.Printf("NEW   %-36s %.2fs (no baseline)\n", nc.Name, nc.Seconds)
			continue
		}
		delete(oldCases, nc.Name)
		if nc.BestA != oc.BestA || nc.BestB != oc.BestB || nc.BestLength != oc.BestLength ||
			nc.TopDiscordOffset != oc.TopDiscordOffset || nc.TopDiscordLength != oc.TopDiscordLength {
			fmt.Printf("DRIFT %-36s anchors (%d,%d,l%d,d@%d/l%d) != baseline (%d,%d,l%d,d@%d/l%d)\n",
				nc.Name, nc.BestA, nc.BestB, nc.BestLength, nc.TopDiscordOffset, nc.TopDiscordLength,
				oc.BestA, oc.BestB, oc.BestLength, oc.TopDiscordOffset, oc.TopDiscordLength)
			failed = true
			continue
		}
		ratio := nc.Seconds / oc.Seconds
		status := "ok   "
		if !anchorsOnly && ratio > 1+tol {
			status = "SLOW "
			failed = true
		}
		fmt.Printf("%s %-36s %.2fs vs %.2fs (%.2fx)\n", status, nc.Name, nc.Seconds, oc.Seconds, ratio)
	}
	for name := range oldCases {
		fmt.Printf("GONE  %-36s (in baseline only)\n", name)
	}
	oldKerns := map[string]kernelBench{}
	for _, k := range oldRep.Kernels {
		oldKerns[k.Kernel+"/"+k.Variant] = k
	}
	for _, nk := range newRep.Kernels {
		key := nk.Kernel + "/" + nk.Variant
		ok2, ok := oldKerns[key]
		if !ok {
			continue
		}
		ratio := nk.NsPerOp / ok2.NsPerOp
		status := "ok   "
		if !anchorsOnly && ratio > 1+tol {
			status = "SLOW "
			failed = true
		}
		fmt.Printf("%s %-36s %.0fns vs %.0fns (%.2fx)\n", status, key, nk.NsPerOp, ok2.NsPerOp, ratio)
	}
	if failed {
		return fmt.Errorf("comparison against %s failed (anchor drift or >%.0f%% regression)", oldPath, tol*100)
	}
	return nil
}
