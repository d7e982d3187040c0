package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/service"
	"github.com/seriesmining/valmod/internal/stomp"
)

// probeBudget bounds the timing of one probed call.
const probeBudget = 60 * time.Millisecond

// probeLayers times the layers below the workload's own op at the
// workload's size (kernels, FFT, STOMP, WAL payloads), plus the fixed
// probes for layers the workload does not drive itself. walDir, when
// set, is the log the workload left behind for wal.replay_s.
func probeLayers(e *env, rep *report, w workload, values []float64, res *valmod.Result, walDir string) error {
	kernelLayer(rep, values, w.lmin)
	if err := stompLayer(rep, values, w.lmin); err != nil {
		return err
	}
	miss, err := e.serve.series(e.serve.n, e.seed)
	if err != nil {
		return err
	}
	blob, err := checkpointLayer(e, rep, miss, e.serve.lmin, e.serve.lmax)
	if err != nil {
		return err
	}
	if err := walLayer(e, rep, w, values, res, blob, walDir); err != nil {
		return err
	}
	if w.kind != "stream" {
		if err := streamProbe(rep, w, values); err != nil {
			return err
		}
	}
	if w.kind != "serve" {
		return serveProbe(e, rep)
	}
	return nil
}

// timeEach times op one call at a time (prep runs untimed before each)
// until budget has passed and at least five calls ran; it returns the
// per-call nanoseconds.
func timeEach(budget time.Duration, prep, op func()) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for len(out) < 5 || time.Now().Before(deadline) {
		if prep != nil {
			prep()
		}
		start := time.Now()
		op()
		out = append(out, float64(time.Since(start)))
	}
	return out
}

// kernelRow is one line of the kernel variant table: a kernel's cost per
// cell under one dispatch variant, with the bytes each cell reads and
// writes by the kernel's own definition (cache reuse not counted).
type kernelRow struct {
	Kernel       string  `json:"kernel"`
	Variant      string  `json:"variant"`
	NsPerCell    float64 `json:"ns_per_cell"`
	BytesPerCell float64 `json:"bytes_per_cell"`
}

type kernelCase struct {
	name, unit   string
	cells, bytes float64
	prep, op     func()
}

// kernelCases builds one call of each kernel at series t and length l,
// sized as the engine calls it: a full row, a full column, a band of
// diagonals holding about two million cells, one length step.
func kernelCases(t []float64, l int) []kernelCase {
	n := len(t)
	s := n - l + 1
	excl := (l + 3) / 4
	means := make([]float64, s)
	invs := make([]float64, s)
	head := make([]float64, s)
	for j := 0; j < s; j++ {
		sum, sq, dot := 0.0, 0.0, 0.0
		for p := 0; p < l; p++ {
			sum += t[j+p]
			sq += t[j+p] * t[j+p]
			dot += t[p] * t[j+p]
		}
		mu := sum / float64(l)
		if v := sq/float64(l) - mu*mu; v > 0 {
			invs[j] = 1 / math.Sqrt(v*float64(l))
		}
		means[j], head[j] = mu, dot
	}
	row := append([]float64(nil), head...)
	corr := make([]float64, s)
	idx := make([]int32, s)
	reset := func() {
		for i := range corr {
			corr[i], idx[i] = math.Inf(-1), -1
		}
	}
	k1 := min(s, excl+max(1, 2_000_000/s))
	diagCells := 0.0
	for k := excl; k < k1; k++ {
		diagCells += float64(s - k)
	}
	anchor := 0
	qt := 0.0
	dots := min(256, n-2*l+1) // pairs (k, k+l) that fit the series
	return []kernelCase{
		{name: "RowNext", unit: "ns_per_cell", cells: float64(s - 1), bytes: 32, op: func() {
			anchor = anchor%8 + 1
			kernels.RowNext(row, t, anchor, l, s)
		}},
		{name: "ArgmaxCorr", unit: "ns_per_cell", cells: float64(s - excl), bytes: 24, op: func() {
			kernels.ArgmaxCorr(head, means, invs, 0, excl, s, 1/float64(l), means[0], invs[0], math.Inf(-1), -1)
		}},
		{name: "ExtendRow", unit: "ns_per_cell", cells: float64(n - l), bytes: 24,
			prep: func() { copy(row, head) },
			op:   func() { kernels.ExtendRow(row, t, 0, l, l+1) }},
		{name: "DiagScan", unit: "ns_per_cell", cells: diagCells, bytes: 112, prep: reset, op: func() {
			kernels.DiagScan(t, head, means, invs, excl, k1, l, s, corr, idx)
		}},
		{name: "ColScan", unit: "ns_per_cell", cells: float64(s - excl), bytes: 48, prep: reset, op: func() {
			kernels.ColScan(head, means, invs, s-excl, 1/float64(l), means[s-1], invs[s-1], corr, idx, int32(s-1), math.Inf(-1), -1)
		}},
		{name: "AdvanceDot", unit: "ns_per_step", cells: float64(dots * l), bytes: 16, op: func() {
			for k := 0; k < dots; k++ {
				qt = kernels.AdvanceDot(qt, t, k, k+l, 0, l)
			}
		}},
	}
}

// kernelLayer reports each kernel's cost per cell under the active
// variant and fills the variant table with every available variant.
func kernelLayer(rep *report, t []float64, l int) {
	cases := kernelCases(t, l)
	active := kernels.Active()
	for _, c := range cases {
		ns := timeEach(probeBudget, c.prep, c.op)
		for i := range ns {
			ns[i] /= c.cells
		}
		rep.addSamples(fmt.Sprintf("kernels.%s.%s", c.name, c.unit), "ns", ns)
	}
	for _, v := range kernels.Available() {
		if err := kernels.SetVariant(v); err != nil {
			continue
		}
		for _, c := range cases {
			rep.Kernels = append(rep.Kernels, kernelRow{
				Kernel: c.name, Variant: v.String(), BytesPerCell: c.bytes,
				NsPerCell: median(timeEach(probeBudget/4, c.prep, c.op)) / c.cells,
			})
		}
	}
	_ = kernels.SetVariant(active) // the variant the process started with is always available
}

// stompLayer times the FFT dot products and the STOMP head and append
// paths at series t and length l.
func stompLayer(rep *report, t []float64, l int) error {
	corr := fft.NewCorrelator(t, l)
	defer corr.Release()
	dst := make([]float64, len(t))
	q := t[:l]
	rep.addSamples("fft.dots_us", "us", scale(timeEach(probeBudget, nil, func() { dst = corr.Dots(q, dst) }), 1e-3))

	var err error
	rep.addSamples("stomp.head_ms", "ms", scale(timeEach(probeBudget, nil, func() {
		if _, e := stomp.DiagonalHead(t, l); e != nil {
			err = e
		}
	}), 1e-6))
	head, herr := stomp.DiagonalHead(t, l)
	if herr != nil {
		return herr
	}
	h := make([]float64, len(head))
	rep.addSamples("stomp.extend_head_ms", "ms", scale(timeEach(probeBudget,
		func() { copy(h, head) },
		func() {
			if _, e := stomp.ExtendDiagonalHead(h, t, l, l+1); e != nil {
				err = e
			}
		}), 1e-6))

	j := len(t) - l
	col := make([]float64, j, j+1)
	rep.addSamples("stomp.append_column_us", "us", scale(timeEach(probeBudget,
		func() { copy(col, head[:j]) },
		func() {
			if _, e := stomp.AppendColumn(col, t, l); e != nil {
				err = e
			}
		}), 1e-3))
	return err
}

func scale(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

// walLayer calls the write-ahead log directly on a scratch directory with
// the workload's payloads: its series, its query, its result and the
// serve miss query's checkpoint blob. wal.replay_s reopens replayDir when
// set (the log a serve run left behind), else this log.
func walLayer(e *env, rep *report, w workload, values []float64, res *valmod.Result, blob []byte, replayDir string) error {
	dir := filepath.Join(e.dir, "wal-probe")
	wal, err := service.OpenWAL(dir)
	if err != nil {
		return err
	}
	req := service.JobRequest{SeriesID: "s_probe", LMin: w.lmin, LMax: w.lmax, Discords: w.discords, Workers: workers}
	out := service.ResultOf(res)
	var series, submit, ckpt, outcome []float64
	timed := func(dst *[]float64, f func() error) error {
		start := time.Now()
		err := f()
		*dst = append(*dst, ms(time.Since(start)))
		return err
	}
	for i := 0; i < 5 && err == nil; i++ {
		id := fmt.Sprintf("j_probe%d", i)
		err = timed(&series, func() error { return wal.SaveSeries(fmt.Sprintf("s_probe%d", i), values) })
		if err == nil {
			err = timed(&submit, func() error { return wal.SaveSubmit(id, req) })
		}
		if err == nil {
			err = timed(&ckpt, func() error { return wal.SaveCheckpoint(id, blob) })
		}
		if err == nil {
			err = timed(&outcome, func() error { return wal.SaveOutcome(id, service.StateDone, "", out) })
		}
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	rep.addSamples("wal.save_series_ms", "ms", series)
	rep.addSamples("wal.save_submit_ms", "ms", submit)
	rep.addSamples("wal.save_checkpoint_ms", "ms", ckpt)
	rep.addSamples("wal.save_outcome_ms", "ms", outcome)
	rep.add("wal.checkpoint_bytes", "bytes", float64(len(blob)))

	if replayDir == "" {
		replayDir = dir
	}
	var replay []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		wal, err := service.OpenWAL(replayDir)
		replay = append(replay, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		if err := wal.Close(); err != nil {
			return err
		}
	}
	rep.addSamples("wal.replay_s", "s", replay)
	return nil
}

// streamProbe drives a small sliding-window stream over the workload's
// series and range (window 512, chunks of 128, one window of appends
// after it fills) for workloads that are not the stream workload.
func streamProbe(rep *report, w workload, values []float64) error {
	const window, chunk = 512, 128
	st, err := valmod.NewStream(w.lmin, w.lmax, valmod.Options{WindowCap: max(window, w.lmax), Workers: workers})
	if err != nil {
		return err
	}
	feed := values[:min(len(values), 2*window)]
	var appends, snaps []float64
	for pos := 0; pos < len(feed); pos += chunk {
		start := time.Now()
		if err := st.Append(feed[pos:min(pos+chunk, len(feed))]); err != nil {
			return err
		}
		if pos >= window {
			appends = append(appends, ms(time.Since(start)))
		}
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := st.Snapshot(); err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(start)))
	}
	if len(appends) == 0 {
		return fmt.Errorf("stream probe: series of %d points is too short", len(values))
	}
	rep.addSamples("stream.append_ms.p50", "ms", appends)
	rep.addSamples("stream.snapshot_ms", "ms", snaps)
	return nil
}
