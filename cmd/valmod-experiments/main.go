// Command valmod-experiments regenerates every figure of the paper's
// evaluation at laptop scale (-fig names the panel: 1left, 1right, 2,
// 3top, 3bottom).
// Sizes and timeouts are scaled down from the paper's 0.5M-point/24-hour
// testbed by default and can be scaled back up with flags; the claims being
// reproduced are relative (which algorithm wins, where timeouts start, how
// time grows), which survive the scaling.
//
// The repository's benchmark, with repeated runs, per-layer metrics and
// committed results, is bench/ (see bench/README.md).
//
// Usage:
//
//	valmod-experiments -fig 1left
//	valmod-experiments -fig 3top -n 20000 -timeout 2m
//	valmod-experiments -fig all
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/asciiplot"
	"github.com/seriesmining/valmod/internal/baseline/moen"
	"github.com/seriesmining/valmod/internal/baseline/quickmotif"
	"github.com/seriesmining/valmod/internal/baseline/stomprange"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/harness"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/mass"
	"github.com/seriesmining/valmod/internal/series"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1left|1right|2|3top|3bottom|all")
		n       = flag.Int("n", 10000, "series length for Figure 3 (top)")
		lmin    = flag.Int("lmin", 64, "minimum subsequence length for Figure 3")
		timeout = flag.Duration("timeout", 60*time.Second, "per-run budget for Figure 3 (paper: 24h)")
		seed    = flag.Int64("seed", 1, "dataset seed")
		sizes   = flag.String("sizes", "5000,10000,20000,30000,50000", "series sizes for Figure 3 (bottom)")
		ranges  = flag.String("ranges", "10,20,50,100,200", "length ranges for Figure 3 (top)")
		workers = flag.Int("workers", 1, "goroutines for VALMOD's data-parallel phases in Figure 3 (default 1: the competitors are single-threaded, matching the paper's C implementations; output is identical at any setting)")
	)
	flag.Parse()
	if err := run(os.Stdout, *fig, *n, *lmin, *timeout, *seed, parseInts(*sizes), parseInts(*ranges), *workers); err != nil {
		fmt.Fprintln(os.Stderr, "valmod-experiments:", err)
		os.Exit(1)
	}
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

func run(w io.Writer, fig string, n, lmin int, timeout time.Duration, seed int64, sizes, ranges []int, workers int) error {
	switch fig {
	case "1left":
		return fig1Left(w, seed)
	case "1right":
		return fig1Right(w, seed)
	case "2":
		return fig2(w, seed)
	case "3top":
		return fig3Top(w, n, lmin, timeout, seed, ranges, workers)
	case "3bottom":
		return fig3Bottom(w, lmin, timeout, seed, sizes, workers)
	case "all":
		for _, f := range []func() error{
			func() error { return fig1Left(w, seed) },
			func() error { return fig1Right(w, seed) },
			func() error { return fig2(w, seed) },
			func() error { return fig3Top(w, n, lmin, timeout, seed, ranges, workers) },
			func() error { return fig3Bottom(w, lmin, timeout, seed, sizes, workers) },
		} {
			if err := f(); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// fig1Left reproduces Figure 1 (left): an ECG snippet, its fixed-length
// matrix profile at ℓ=50 and the index profile.
func fig1Left(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "== Figure 1 (left): ECG, matrix profile l=50, index profile ==")
	s := gen.ECG(5000, seed)
	fp, err := valmod.MatrixProfile(s.Values, 50, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(a) ECG data")
	fmt.Fprintln(w, asciiplot.Plot(s.Values, 100, 8))
	fmt.Fprintln(w, "(b) Matrix profile l=50")
	fmt.Fprintln(w, asciiplot.Plot(fp.Dist, 100, 6))
	idx := make([]float64, len(fp.Index))
	for i, v := range fp.Index {
		idx[i] = float64(v)
	}
	fmt.Fprintln(w, "(c) Index profile")
	fmt.Fprintln(w, asciiplot.Plot(idx, 100, 6))
	pairs := fp.TopPairs(4)
	fmt.Fprintln(w, "motifs at l=50 (the four deep valleys):")
	for i, p := range pairs {
		fmt.Fprintf(w, "  %d. offsets %d / %d  d=%.4f\n", i+1, p.A, p.B, p.Distance)
	}
	return nil
}

// fig1Right reproduces Figure 1 (right): VALMAP MPn and Length profile over
// [50, 400] on the same ECG snippet, showing the longer motif the
// fixed-length profile misses.
func fig1Right(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "== Figure 1 (right): VALMAP over [50, 400] ==")
	s := gen.ECG(5000, seed)
	start := time.Now()
	res, err := valmod.Discover(s.Values, 50, 400, valmod.Options{TopK: 10})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "(d) ECG data (VALMOD in %s)\n", harness.FormatDuration(time.Since(start)))
	fmt.Fprintln(w, asciiplot.Plot(s.Values, 100, 8))
	fmt.Fprintln(w, "(e) VALMAP MPn (length-normalized)")
	fmt.Fprintln(w, asciiplot.Plot(res.VALMAP.MPn, 100, 6))
	lp := make([]float64, len(res.VALMAP.LP))
	for i, v := range res.VALMAP.LP {
		lp[i] = float64(v)
	}
	fmt.Fprintln(w, "(f) VALMAP Length profile")
	fmt.Fprintln(w, asciiplot.Plot(lp, 100, 6))
	if best, ok := res.BestOverall(); ok {
		fmt.Fprintf(w, "global best (length-normalized): %v\n", best)
	}
	fmt.Fprintln(w, "top variable-length motifs:")
	for i, m := range res.TopMotifs(5) {
		fmt.Fprintf(w, "  %d. offsets %d / %d  length %d  dn=%.4f\n", i+1, m.A, m.B, m.Length, m.NormDistance)
	}
	fmt.Fprintf(w, "VALMAP checkpoints at lengths: %v\n", res.VALMAP.Checkpoints())
	return nil
}

// fig2 reproduces Figure 2: the distance profile of one subsequence at
// ℓ=600 with its lower-bound column, then the valid/non-valid partial
// profile cases at ℓ=601.
func fig2(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "== Figure 2: distance profile of D(160,600) and partial profiles at 601 ==")
	s := gen.ECG(1800, seed)
	t := s.Values
	st := series.NewStats(t)
	const l, anchor = 600, 160
	qt, dist := mass.SlidingDotProfile(t[anchor:anchor+l], t)

	// (a) the profile and its entries ranked by LB, as in the figure's table.
	fmt.Fprintln(w, "(a) distance profile of D(160,600)")
	fmt.Fprintln(w, asciiplot.Plot(dist, 100, 6))
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
	if err := tab.Render(w); err != nil {
		return err
	}

	// (b) partial profiles at 601: keep p entries, advance, classify.
	fmt.Fprintln(w, "\n(b) partial distance profiles at length 601 (p=5 retained entries)")
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
	fmt.Fprintf(w, "anchor D(%d,601): minDist=%.3f maxLB=%.3f → %s\n", anchor, minDist, maxLB, status)
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

func fig3Top(w io.Writer, n, lmin int, timeout time.Duration, seed int64, ranges []int, workers int) error {
	fmt.Fprintf(w, "== Figure 3 (top): time vs length range (n=%d, lmin=%d, timeout=%s) ==\n", n, lmin, timeout)
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
		if err := tab.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fig3Bottom(w io.Writer, lmin int, timeout time.Duration, seed int64, sizes []int, workers int) error {
	const rangeLen = 20
	fmt.Fprintf(w, "== Figure 3 (bottom): time vs series length (range=%d, lmin=%d, timeout=%s) ==\n", rangeLen, lmin, timeout)
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
		if err := tab.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
