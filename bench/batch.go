package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/stomp"
)

// runBatch measures one batch workload: a cold Discover of series 0 on a
// fresh Engine (set-up), then warm Discovers on the same Engine, each of
// another series of the seed's family (the op), then output checks. Op 0
// repeats series 0 and must be bit-identical to the cold result.
func runBatch(e *env, w workload, rep *report) error {
	values, err := w.series(w.n, subSeed(e.seed, 0))
	if err != nil {
		return err
	}
	eng := valmod.NewEngine(valmod.Options{Discords: w.discords, Workers: workers})
	start := time.Now()
	cold, err := eng.Discover(values, w.lmin, w.lmax)
	setup := []float64{time.Since(start).Seconds()}
	if err != nil {
		return err
	}
	solve := func(i int, run func([]float64) (*valmod.Result, error)) (time.Duration, error) {
		in, err := w.series(w.n, subSeed(e.seed, i))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		res, err := run(in)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			rep.check(reflect.DeepEqual(res, cold), "warm repetition of series 0 is not bit-identical to the cold result")
		} else {
			rep.check(len(res.PerLength) == w.lmax-w.lmin+1, "series %d: %d lengths reported", i, len(res.PerLength))
		}
		return d, nil
	}

	if e.tr == nil {
		var solves []float64
		begin := time.Now()
		err := loop(e.window, w.maxOps, 1, func(i int) (time.Duration, error) {
			d, err := solve(i, func(in []float64) (*valmod.Result, error) { return eng.Discover(in, w.lmin, w.lmax) })
			solves = append(solves, ms(d))
			return d, err
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(begin)
		rep.add("max_rss_mb", "MB", maxRSSMB())
		more, err := setupChildren(e, w, rep, fingerprint(cold))
		if err != nil {
			return err
		}
		rep.addSamples("setup_s", "s", append(setup, more...))
		rep.addSamples("op_ms.p50", "ms", solves)
		rep.add("ops_per_s", "1/s", float64(len(solves))/elapsed.Seconds())
	} else {
		// Each series is solved twice, untraced and traced, the order
		// alternating from series to series, so the overhead compares
		// like with like.
		var untraced, traced []float64
		var ph []phases
		err := loop(e.window/2, 0, 2, func(i int) (time.Duration, error) {
			series := i / 2
			if i%2 == series%2 {
				d, err := solve(series, func(in []float64) (*valmod.Result, error) { return eng.Discover(in, w.lmin, w.lmax) })
				untraced = append(untraced, ms(d))
				return d, err
			}
			var p phases
			d, err := solve(series, func(in []float64) (*valmod.Result, error) {
				var err error
				p, err = tracedSolve(e.tr, eng, in, w.lmin, w.lmax)
				return p.res, err
			})
			traced, ph = append(traced, ms(d)), append(ph, p)
			return d, err
		})
		if err != nil {
			return err
		}
		corePhases(rep, ph)
		rep.add("trace.overhead_frac", "ratio", median(traced)/median(untraced)-1)
		if err := probeLayers(e, rep, w, values, cold, ""); err != nil {
			return err
		}
	}
	checkBatch(rep, w, values, cold)
	checkPinned(rep, anchorsOf(cold), e.pinned)
	return nil
}

// subSeed names series i of a seed's family; series 0 is the seed itself.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed<<20 | int64(i)
}

// fingerprint hashes everything a Result reports, floats at full
// precision, so results of two processes can be compared bit for bit.
func fingerprint(r *valmod.Result) string {
	h := sha256.New()
	fmt.Fprint(h, r.PerLength, r.Discords, r.Plan, r.Profile, r.ProfileIndex, r.VALMAP.MPn, r.VALMAP.IP, r.VALMAP.LP)
	return hex.EncodeToString(h.Sum(nil))
}

// checkBatch verifies the cold result against an independent computation:
// pairs against a one-off incremental-plan run (Discords forces it), the
// top discord against the exact matrix profile at its length.
func checkBatch(rep *report, w workload, values []float64, cold *valmod.Result) {
	if w.discords == 0 {
		ref, err := valmod.Discover(values, w.lmin, w.lmax, valmod.Options{Discords: 1, Workers: workers})
		if err == nil {
			ref.Discords = nil
			err = equivalent(cold, ref, 1)
		}
		rep.check(err == nil, "pairs disagree with the incremental plan: %v", err)
		return
	}
	if len(cold.Discords) == 0 {
		rep.check(false, "no discord reported")
		return
	}
	d := cold.Discords[0]
	mp, err := stomp.Compute(values, d.Length, 0)
	if err != nil {
		rep.check(false, "stomp.Compute at length %d: %v", d.Length, err)
		return
	}
	want := math.Inf(-1)
	for _, v := range mp.Dist {
		if !math.IsInf(v, 0) && v > want {
			want = v
		}
	}
	rep.check(math.Abs(d.Distance-want) <= 1e-6*(1+want),
		"top discord distance %v, the largest nearest-neighbor distance at length %d is %v", d.Distance, d.Length, want)
}

// setupChildren measures the remaining set-ups, each a cold Discover of
// series 0 in a fresh process (the benchmark itself with -setup-child),
// and checks that each child computed the parent's cold result.
func setupChildren(e *env, w workload, rep *report, want string) ([]float64, error) {
	var out []float64
	for k := 1; k < e.setupReps; k++ {
		cmd := exec.Command(e.self, "-setup-child", "-workload", w.name, "-seed", strconv.FormatInt(e.seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		secs, sum, _ := strings.Cut(strings.TrimSpace(string(b)), " ")
		v, err := strconv.ParseFloat(secs, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
		rep.check(sum == want, "set-up child %d computed a cold result different from this process's", k)
		out = append(out, v)
	}
	return out, nil
}

// runSetupChild is the fresh process behind one set-up sample: it prints
// the seconds of one cold Discover of series 0 on a fresh Engine and the
// result's fingerprint.
func runSetupChild(w workload, seed int64) error {
	values, err := w.series(w.n, subSeed(seed, 0))
	if err != nil {
		return err
	}
	eng := valmod.NewEngine(valmod.Options{Discords: w.discords, Workers: workers})
	start := time.Now()
	res, err := eng.Discover(values, w.lmin, w.lmax)
	if err != nil {
		return err
	}
	fmt.Println(time.Since(start).Seconds(), fingerprint(res))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
