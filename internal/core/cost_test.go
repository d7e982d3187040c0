package core

// Tests for the cost-model planner: the pure switch decision, an engine run
// that must switch from the pruned to the incremental pass (and stay exact
// and worker-count invariant across the switch), one that must not, and
// checkpoint/resume on both sides of the switch.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/stomp"
)

func TestPreferIncrementalTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, l int
		c    prunedCounts
		want bool
	}{
		// Geometries and counts observed on the benchmark workloads and
		// the wide golden inputs (BenchmarkPrunedCost): the pruned length
		// before l left these counts.
		{"pairs-n20k, certifying cleanly", 20000, 66, prunedCounts{rounds: 1}, false},
		// Priced as FFT rows this burst latched; as direct rows and their
		// scans it costs a tenth of that.
		{"pairs-n20k tail, recompute burst", 20000, 80, prunedCounts{recomputed: 153, rounds: 2}, false},
		{"pairs-n20k tail, larger burst", 20000, 82, prunedCounts{recomputed: 165, rounds: 2}, false},
		{"pairs-wide, right after the seed", 5000, 66, prunedCounts{recomputed: 4, rounds: 2}, false},
		{"pairs-wide, moderate recomputes", 5000, 78, prunedCounts{recomputed: 65, rounds: 2}, false},
		{"pairs-wide, recompute burst", 5000, 79, prunedCounts{recomputed: 131, rounds: 2}, true},
		{"ecg n=2k wide, before its switch", 2000, 77, prunedCounts{recomputed: 12, rounds: 2}, false},
		{"ecg n=2k wide, at its switch", 2000, 78, prunedCounts{recomputed: 17, rounds: 2}, true},
		{"ecg n=5k, certifying cleanly", 5000, 70, prunedCounts{rounds: 1}, false},
		// A fallback predicts one more seed sweep: the incremental pass's
		// cells plus the list filters and inserts, dearer at any size.
		{"fallback predicts a seed sweep", 5000, 90, prunedCounts{fellBack: true}, true},
		{"fallback on a tiny series", 240, 40, prunedCounts{fellBack: true}, true},
		{"no pair at the length", 100, 90, prunedCounts{recomputed: 1000, rounds: 50}, false},
	} {
		direct := newRowSource(make([]float64, tc.n), tc.l).direct(tc.l)
		if got := preferIncremental(tc.n, tc.l, DefaultP, 4, direct, tc.c); got != tc.want {
			t.Errorf("%s: preferIncremental(n=%d, l=%d, %+v) = %v, want %v", tc.name, tc.n, tc.l, tc.c, got, tc.want)
		}
	}
}

// TestReplayEvictionRule: the capped stream's eviction rule as a pure
// function of (s, ℓ, repairs, runs). No lost neighbor never replays, and
// every offset lost, each in a run of its own, always does; the
// stream-cap4096 workload's 512-point chunks repair by runs, 2 048-point
// chunks replay (counts as BenchmarkStreamEvict and the workload's seeds
// see them); and more repairs or more runs never turn a replay into a
// repair.
func TestReplayEvictionRule(t *testing.T) {
	for _, tc := range []struct {
		name                string
		s, l, repairs, runs int
		want                bool
	}{
		{"nothing lost", 4024, 73, 0, 0, false},
		{"every offset lost, runs of one", 4024, 73, 4024, 2012, true},
		{"512-point chunk", 4024, 73, 441, 72, false},
		{"2 048-point chunk", 4024, 73, 1396, 176, true},
	} {
		if got := replayEviction(tc.s, tc.l, tc.repairs, tc.runs); got != tc.want {
			t.Errorf("%s: replayEviction(s=%d, l=%d, repairs=%d, runs=%d) = %v, want %v",
				tc.name, tc.s, tc.l, tc.repairs, tc.runs, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5000; trial++ {
		l := 4 + rng.Intn(2000)
		s := 1 + rng.Intn(20000)
		repairs := rng.Intn(s + 1)
		runs := 0
		if repairs > 0 {
			runs = 1 + rng.Intn((repairs+1)/2)
		}
		if !replayEviction(s, l, repairs, runs) {
			continue
		}
		if !replayEviction(s, l, repairs+1+rng.Intn(s), runs) {
			t.Fatalf("s=%d l=%d: replays at %d repairs in %d runs but not with more repairs", s, l, repairs, runs)
		}
		if !replayEviction(s, l, repairs, runs+1+rng.Intn(s)) {
			t.Fatalf("s=%d l=%d: replays at %d repairs in %d runs but not with more runs", s, l, repairs, runs)
		}
	}
}

// TestPreferIncrementalMonotone: more recomputes or more fixpoint rounds
// never turn a switch into a stay, on either side of the direct-row
// cutover.
func TestPreferIncrementalMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 200 + rng.Intn(50000)
		l := 8 + rng.Intn(n/2)
		direct := rng.Intn(2) == 0
		c := prunedCounts{recomputed: rng.Intn(n / 4), rounds: 1 + rng.Intn(20)}
		if !preferIncremental(n, l, DefaultP, 4, direct, c) {
			continue
		}
		more := c
		more.recomputed += rng.Intn(n/4 + 1)
		more.rounds += rng.Intn(20)
		if !preferIncremental(n, l, DefaultP, 4, direct, more) {
			t.Fatalf("n=%d l=%d direct=%v: switch at %+v but not at %+v", n, l, direct, c, more)
		}
	}
}

// switchLength returns the first length a run resolved incrementally, or
// 0 when none was.
func switchLength(res *Result) int {
	for _, lr := range res.PerLength {
		if lr.Stats.Incremental {
			return lr.M
		}
	}
	return 0
}

// astroWide is a small astro series over a range wide enough that the
// recomputes make the pruned pass lose.
func astroWide(t *testing.T) ([]float64, Config) {
	t.Helper()
	s, err := gen.Dataset("astro", 1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s.Values, Config{LMin: 32, LMax: 120, TopK: 3}
}

func TestCostModelSwitchesOnAstroWide(t *testing.T) {
	x, cfg := astroWide(t)
	lengths := cfg.LMax - cfg.LMin + 1
	var base *Result
	for _, w := range []int{1, 2, 4} {
		c := cfg
		c.Workers = w
		res, err := NewEngine().Run(context.Background(), x, c)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		assertResultsBitIdentical(t, "workers", base, res)
	}

	p := base.Plan
	if p.IncrementalLengths == 0 || p.PrunedLengths == 0 || p.RecomputeLengths != 1 ||
		p.PrunedLengths+p.IncrementalLengths != lengths-1 || p.HeadSeeds != 1 {
		t.Fatalf("plan stats %+v: want one seed, pruned lengths, then a switch to incremental", p)
	}
	// The latch is one-way: once a length resolves incrementally, every
	// later one does too.
	sw := switchLength(base)
	t.Logf("switched at length %d of [%d, %d]", sw, cfg.LMin, cfg.LMax)
	for _, lr := range base.PerLength {
		if lr.Stats.Incremental != (lr.M >= sw) {
			t.Fatalf("length %d: incremental=%v with the switch at %d", lr.M, lr.Stats.Incremental, sw)
		}
	}

	whole := cfg
	whole.Discords = 1
	ref, err := Run(x, whole)
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range base.PerLength {
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, ref.PerLength[i].Pairs)
	}
	for _, l := range []int{cfg.LMin + 1, sw - 1, sw, cfg.LMax} {
		mp, err := stomp.Brute(x, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		lr, _ := base.ResultOfLength(l)
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, mp.TopKPairs(cfg.TopK))
	}
}

func TestCostModelKeepsEcgShortRangePruned(t *testing.T) {
	s, err := gen.Dataset("ecg", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LMin: 64, LMax: 72, Workers: 2}
	res, err := Run(s.Values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lengths := cfg.LMax - cfg.LMin + 1
	if p := res.Plan; p.RecomputeLengths != 1 || p.PrunedLengths != lengths-1 || p.IncrementalLengths != 0 || p.HeadSeeds != 0 {
		t.Fatalf("plan stats %+v: want an all-pruned run", p)
	}
}

// TestCheckpointResumeAcrossSwitch: resuming from a checkpoint taken
// before, at or after the switch length reproduces the uninterrupted run
// byte for byte at any worker count. Frames from the switch on carry the
// latch and no anchor snapshot.
func TestCheckpointResumeAcrossSwitch(t *testing.T) {
	x, cfg := astroWide(t)
	cfg.Workers = 2
	e := NewEngine()
	base, ckpts := captureAll(t, e, x, cfg)
	sw := switchLength(base)
	if sw == 0 {
		t.Fatal("run never switched to the incremental pass")
	}
	// Checkpoint k follows plan index k, so frame sw−LMin−1 is the one
	// taken right after the last pruned length, where the latch is set.
	at := sw - cfg.LMin - 1
	for _, k := range []int{at - 1, at, at + 1} {
		p, err := decodeCheckpoint(ckpts[k])
		if err != nil {
			t.Fatal(err)
		}
		if latched := k >= at; p.Latched != latched || (p.Anchors == nil) != latched {
			t.Fatalf("frame %d (switch frame %d): latched=%v, anchors present=%v", k, at, p.Latched, p.Anchors != nil)
		}
		for _, w := range []int{1, 4} {
			c := cfg
			c.Workers = w
			res, err := e.ResumeRun(context.Background(), x, c, ckpts[k])
			if err != nil {
				t.Fatalf("resume from frame %d (workers=%d): %v", k, w, err)
			}
			assertResultsBitIdentical(t, "resume", base, res)
		}
	}
	if bal := e.rowPoolBalance(); bal != 0 {
		t.Fatalf("row pool unbalanced after resumes: %d", bal)
	}
}

// TestCheckpointRefusesVersion1: a frame written by the planner without
// the latch is refused, and the caller's scratch re-run is the exact
// fallback.
func TestCheckpointRefusesVersion1(t *testing.T) {
	x, cfg := astroWide(t)
	cfg.Workers = 1
	e := NewEngine()
	base, ckpts := captureAll(t, e, x, cfg)
	p, err := decodeCheckpoint(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	filled := cfg
	filled.Fill()
	p.CfgDigest = "v1 " + cfgFields(filled)
	v1, err := encodeFrame(ckptMagic, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResumeRun(context.Background(), x, cfg, v1); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("version-1 frame: want ErrBadCheckpoint, got %v", err)
	}
	res, err := e.Run(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, "scratch re-run", base, res)
}

// TestCheckpointRefusesV2Digest: a format-2 frame written before the
// diagonal seed carries anchors seeded by the row scan, whose bits differ
// from this engine's seed, so its v2 config digest is refused and the
// caller's scratch re-run is the exact fallback.
func TestCheckpointRefusesV2Digest(t *testing.T) { assertDigestRefused(t, "v2") }

// TestCheckpointRefusesV3Digest: a v3 frame's retained entries and hot
// rows were computed through the FFT correlator, whose bits differ from
// this engine's direct rows below the cutover, so its digest is refused
// and the caller's scratch re-run is the exact fallback.
func TestCheckpointRefusesV3Digest(t *testing.T) { assertDigestRefused(t, "v3") }

// TestCheckpointRefusesV4Digest: a v4 frame of a series with exactly
// constant windows can carry the σ > 0 the cumulative sums gave them,
// where this engine's series.Stats gives σ = 0, so its digest is refused.
func TestCheckpointRefusesV4Digest(t *testing.T) { assertDigestRefused(t, "v4") }

// TestCheckpointRefusesV5Digest: a v5 frame carries the hot-row cache,
// whose anchors this engine resolves by certification or a fresh row, and
// was written under the old cost model's switch lengths, so its digest is
// refused (gob would otherwise drop the hot rows unread).
func TestCheckpointRefusesV5Digest(t *testing.T) { assertDigestRefused(t, "v5") }

// assertDigestRefused rewrites a seeded frame's config digest to an older
// version and checks the frame is refused with ErrBadCheckpoint, while a
// scratch re-run stays bit-identical to the run that wrote it.
func assertDigestRefused(t *testing.T, version string) {
	t.Helper()
	x, cfg := astroWide(t)
	cfg.Workers = 1
	e := NewEngine()
	base, ckpts := captureAll(t, e, x, cfg)
	p, err := decodeCheckpoint(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Anchors == nil {
		t.Fatal("frame 0 carries no anchors; the case needs a seeded frame")
	}
	filled := cfg
	filled.Fill()
	p.CfgDigest = version + " " + cfgFields(filled)
	old, err := encodeFrame(ckptMagic, ckptVersion, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResumeRun(context.Background(), x, cfg, old); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("%s-digest frame: want ErrBadCheckpoint, got %v", version, err)
	}
	res, err := e.Run(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, "scratch re-run", base, res)
}

// costSample is one length of a fit input: the counts the model reads
// (anchors s, length ℓ, recomputes R, fixpoint rounds, fallback) from the
// pruned pass at ℓ−1 and at ℓ, and both passes' wall times at ℓ.
type costSample struct {
	l, s, recomputed, rounds int
	fellBack                 bool
	// prev holds the counts of the pruned length before ℓ, the ones the
	// rule reads to predict ℓ.
	prev prunedCounts
	// pruned and incremental are wall times (ns) of the two passes at ℓ:
	// the median over the benchmark's iterations.
	pruned, incremental float64
}

// costFitInput is one input of the pruned constants' fit.
type costFitInput struct {
	name       string
	ds         string
	n, seed    int
	lmin, lmax int
}

// costFitInputs are the fit's inputs: the pairs-n20k and pairs-wide
// geometries, plus the four wide golden inputs, where the switch lands
// within a few lengths of the seed.
var costFitInputs = []costFitInput{
	{"ecg20k/1", "ecg", 20000, 1, 64, 83},
	{"ecg20k/2", "ecg", 20000, 2, 64, 83},
	{"astro5k", "astro", 5000, 1, 64, 263},
	{"ecg2k", "ecg", 2000, 1, 64, 163},
	{"astro2k", "astro", 2000, 1, 64, 163},
	{"randomwalk2k", "randomwalk", 2000, 1, 64, 163},
	{"seismic2k", "seismic", 2000, 1, 64, 163},
}

// BenchmarkPrunedCost is the refit harness of cost.go's pruned-side
// constants. On every fit input, at two workers, it runs the pruned pass
// over the whole range (pinned, so no length latches) and the incremental
// pass over the same lengths, timing each length; under -v it logs one
// line per length with the counts the model reads (s, ℓ, R, rounds) and
// both times, each the median over the benchmark's iterations. It fits
// c_row, c_scan, c_round and c_adv by least squares through the origin to
// the pruned lengths that did not fall back — on relative error, so short
// and long series weigh alike — and reports them (c_row_ns, c_scan_ns,
// c_round_ns, c_adv_ns) with the fit's rms relative residual. Then it
// replays the rule with the committed constants over the measured times
// and logs, per input, the switch length and the solve time with the
// rule, all pruned and all incremental; rule_ms, pruned_ms and
// incremental_ms are their sums over the inputs. Run it on the avx2 tier,
// as the fit was (VALMOD_KERNELS=avx2), with -benchtime 5x or more.
func BenchmarkPrunedCost(b *testing.B) {
	type series struct {
		in      costFitInput
		x       []float64
		samples []costSample
		times   [][2][]float64 // per length: pruned and incremental times of every iteration
	}
	var all []*series
	for _, in := range costFitInputs {
		ds, err := gen.Dataset(in.ds, in.n, int64(in.seed))
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, &series{in: in, x: ds.Values, times: make([][2][]float64, in.lmax-in.lmin+1)})
	}
	eng := NewEngine()
	for it := 0; it < b.N; it++ {
		for _, sr := range all {
			in := sr.in
			cfg := Config{LMin: in.lmin, LMax: in.lmax, Workers: 2, pinPruned: true}
			cfg.Fill()
			pr := eng.newRun(context.Background(), sr.x, cfg)
			inc := eng.newRun(context.Background(), sr.x, cfg)
			if _, err := pr.seedAll(in.lmin); err != nil {
				b.Fatal(err)
			}
			if _, _, err := inc.processLengthIncremental(in.lmin); err != nil {
				b.Fatal(err)
			}
			sr.samples = sr.samples[:0]
			var prev prunedCounts
			for l := in.lmin + 1; l <= in.lmax; l++ {
				start := time.Now()
				lr, _, err := pr.processLength(l)
				if err != nil {
					b.Fatal(err)
				}
				tp := time.Since(start)
				start = time.Now()
				if _, _, err := inc.processLengthIncremental(l); err != nil {
					b.Fatal(err)
				}
				ti := time.Since(start)
				k := l - in.lmin
				sr.times[k][0] = append(sr.times[k][0], float64(tp.Nanoseconds()))
				sr.times[k][1] = append(sr.times[k][1], float64(ti.Nanoseconds()))
				c := prunedCounts{recomputed: lr.Stats.Recomputed, rounds: pr.rounds, fellBack: lr.Stats.FullRecompute}
				sr.samples = append(sr.samples, costSample{
					l: l, s: len(sr.x) - l + 1,
					recomputed: c.recomputed, rounds: c.rounds, fellBack: c.fellBack, prev: prev,
				})
				prev = c
			}
			pr.release()
			inc.release()
		}
	}
	b.StopTimer()

	// The fit: t ≈ R·s·ℓ·c_row + R·s·c_scan + rounds·s·c_round + s·P·c_adv
	// over the pruned lengths without fallback, each row scaled by 1/t.
	var ata [4][4]float64
	var atb [4]float64
	var rows [][5]float64
	for _, sr := range all {
		for k := range sr.samples {
			sm := &sr.samples[k]
			sm.pruned = medianOf(sr.times[k+1][0])
			sm.incremental = medianOf(sr.times[k+1][1])
			if sm.fellBack {
				continue
			}
			fs, fr := float64(sm.s), float64(sm.recomputed)
			a := [4]float64{fr * fs * float64(sm.l), fr * fs, float64(sm.rounds) * fs, fs * DefaultP}
			rows = append(rows, [5]float64{a[0], a[1], a[2], a[3], sm.pruned})
			for i := range a {
				for j := range a {
					ata[i][j] += a[i] * a[j] / (sm.pruned * sm.pruned)
				}
				atb[i] += a[i] / sm.pruned
			}
		}
	}
	c := solve4(ata, atb)
	var rss float64
	for _, r := range rows {
		pred := r[0]*c[0] + r[1]*c[1] + r[2]*c[2] + r[3]*c[3]
		rss += (pred/r[4] - 1) * (pred/r[4] - 1)
	}
	b.ReportMetric(c[0], "c_row_ns")
	b.ReportMetric(c[1], "c_scan_ns")
	b.ReportMetric(c[2], "c_round_ns")
	b.ReportMetric(c[3], "c_adv_ns")
	b.ReportMetric(math.Sqrt(rss/float64(len(rows))), "rms_rel")

	var ruleAll, prunedAll, incrementalAll float64
	for _, sr := range all {
		in := sr.in
		rows := newRowSource(sr.x, in.lmax)
		sw := 0
		var rule, pruned, incremental float64
		for k, sm := range sr.samples {
			if testing.Verbose() {
				b.Logf("%s l=%d s=%d R=%d rounds=%d fallback=%v pruned_ms=%.3f incremental_ms=%.3f",
					in.name, sm.l, sm.s, sm.recomputed, sm.rounds, sm.fellBack, sm.pruned/1e6, sm.incremental/1e6)
			}
			if sw == 0 && k > 0 && preferIncremental(in.n, sm.l, DefaultP, profile.DefaultExclusionFactor, rows.direct(sm.l), sm.prev) {
				sw = sm.l
			}
			pruned += sm.pruned
			incremental += sm.incremental
			if sw == 0 {
				rule += sm.pruned
			} else {
				rule += sm.incremental
			}
		}
		b.Logf("%s: switch at %d, with the rule %.1f ms, all pruned %.1f ms, all incremental %.1f ms",
			in.name, sw, rule/1e6, pruned/1e6, incremental/1e6)
		ruleAll += rule
		prunedAll += pruned
		incrementalAll += incremental
	}
	b.ReportMetric(ruleAll/1e6, "rule_ms")
	b.ReportMetric(prunedAll/1e6, "pruned_ms")
	b.ReportMetric(incrementalAll/1e6, "incremental_ms")
}

// medianOf returns the median of xs (xs is reordered).
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// solve4 solves the 4×4 system a·x = y by Gaussian elimination with
// partial pivoting.
func solve4(a [4][4]float64, y [4]float64) [4]float64 {
	for col := 0; col < 4; col++ {
		p := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		y[col], y[p] = y[p], y[col]
		for r := col + 1; r < 4; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 4; c++ {
				a[r][c] -= f * a[col][c]
			}
			y[r] -= f * y[col]
		}
	}
	var x [4]float64
	for r := 3; r >= 0; r-- {
		x[r] = y[r]
		for c := r + 1; c < 4; c++ {
			x[r] -= a[r][c] * x[c]
		}
		x[r] /= a[r][r]
	}
	return x
}
