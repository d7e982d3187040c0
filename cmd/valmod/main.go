// Command valmod runs variable-length motif discovery over a data series
// and reports the per-length motifs, the cross-length ranking and the
// VALMAP meta structure. It is the backend entry point of the demo
// architecture (Figure 4): the produced VALMAP JSON feeds cmd/valmod-view.
//
// Usage:
//
//	valmod -in series.txt -lmin 50 -lmax 400 [-k 10] [-p 10] [-valmap out.json]
//	valmod -dataset ecg -n 20000 -lmin 50 -lmax 400 -workers 0 -progress
//	valmod -dataset ecg -n 20000 -lmin 50 -lmax 400 -discords 5
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/asciiplot"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/series"
)

func main() {
	var (
		in      = flag.String("in", "", "input series file (.txt, .csv, .bin); mutually exclusive with -dataset")
		dataset = flag.String("dataset", "", "generate a synthetic dataset instead: ecg|astro|seismic|epg|randomwalk|noise|sinemix")
		n       = flag.Int("n", 20000, "points to generate with -dataset")
		seed    = flag.Int64("seed", 1, "generator seed")
		lmin    = flag.Int("lmin", 50, "minimum subsequence length")
		lmax    = flag.Int("lmax", 400, "maximum subsequence length")
		topK    = flag.Int("k", 10, "motif pairs per length")
		p       = flag.Int("p", 10, "most entries kept per partial distance profile (the seed keeps min(p, 4), a recomputed anchor p; at most 256)")
		workers = flag.Int("workers", 0, "goroutines for the data-parallel phases (0 = all cores, 1 = serial; output is identical at any setting)")
		recomp  = flag.Float64("recompute-fraction", 0, "fraction of anchors above which a length is recomputed wholesale (0 selects the default 0.05)")
		disc    = flag.Int("discords", 0, "also report this many exact variable-length discords (0 disables; forces the full per-length profile pass)")
		progr   = flag.Bool("progress", false, "report each completed length on stderr")
		out     = flag.String("valmap", "", "write VALMAP JSON to this path")
		quiet   = flag.Bool("quiet", false, "suppress plots, print only the summary")
	)
	flag.Parse()
	opts := valmod.Options{TopK: *topK, P: *p, Workers: *workers, RecomputeFraction: *recomp, Discords: *disc}
	if err := run(*in, *dataset, *n, *seed, *lmin, *lmax, opts, *progr, *out, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "valmod:", err)
		os.Exit(1)
	}
}

func run(in, dataset string, n int, seed int64, lmin, lmax int, opts valmod.Options, progress bool, out string, quiet bool) error {
	var (
		s   *series.Series
		err error
	)
	switch {
	case in != "" && dataset != "":
		return fmt.Errorf("-in and -dataset are mutually exclusive")
	case in != "":
		s, err = series.LoadFile(in)
	case dataset != "":
		s, err = gen.Dataset(dataset, n, seed)
	default:
		return fmt.Errorf("one of -in or -dataset is required")
	}
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return err
	}

	fmt.Printf("series: %s, range [%d, %d], k=%d, p=%d\n", s, lmin, lmax, opts.TopK, opts.P)
	if progress {
		opts.Progress = func(p valmod.Progress) {
			lr := p.Result
			fmt.Fprintf(os.Stderr, "  length %4d  (%d/%d)  pairs=%d cert=%d rec=%d full=%v\n",
				lr.Length, p.Done, p.Total, len(lr.Pairs), lr.Certified, lr.Recomputed, lr.FullRecompute)
		}
	}
	eng := valmod.NewEngine(opts)
	start := time.Now()
	res, err := eng.Discover(s.Values, lmin, lmax)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if !quiet {
		fmt.Println("\ndata:")
		fmt.Println(asciiplot.Sparkline(s.Values, 100))
		fmt.Printf("\nmatrix profile at lmin=%d:\n", lmin)
		fmt.Println(asciiplot.Sparkline(res.Profile, 100))
		fmt.Println("\nVALMAP MPn:")
		fmt.Println(asciiplot.Sparkline(res.VALMAP.MPn, 100))
		fmt.Println("\nVALMAP length profile:")
		lp := make([]float64, len(res.VALMAP.LP))
		for i, l := range res.VALMAP.LP {
			lp[i] = float64(l)
		}
		fmt.Println(asciiplot.Sparkline(lp, 100))
	}

	fmt.Printf("\ntop motifs across lengths (length-normalized):\n")
	for i, m := range res.TopMotifs(opts.TopK) {
		fmt.Printf("  %2d. offsets %6d / %-6d length %4d  d=%.4f  dn=%.4f\n",
			i+1, m.A, m.B, m.Length, m.Distance, m.NormDistance)
	}
	if len(res.Discords) > 0 {
		fmt.Printf("\ntop discords across lengths (length-normalized, most anomalous first):\n")
		for i, d := range res.Discords {
			fmt.Printf("  %2d. offset %6d  length %4d  d=%.4f  dn=%.4f\n",
				i+1, d.Offset, d.Length, d.Distance, d.NormDistance)
		}
	}

	if best, ok := res.BestOverall(); ok {
		set, err := res.MotifSet(best, 0)
		if err == nil {
			fmt.Printf("\nbest motif expands to %d occurrences: ", len(set))
			for i, mm := range set {
				if i > 0 {
					fmt.Print(", ")
				}
				fmt.Print(mm.Offset)
			}
			fmt.Println()
		}
	}

	certified, recomputed, full := 0, 0, 0
	for _, lr := range res.PerLength {
		certified += lr.Certified
		recomputed += lr.Recomputed
		if lr.FullRecompute {
			full++
		}
	}
	fmt.Printf("\n%d lengths in %s  (certified anchors %d, recomputed %d, full recomputes %d)\n",
		len(res.PerLength), elapsed.Round(time.Millisecond), certified, recomputed, full)

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.VALMAP.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("VALMAP written to %s\n", out)
	}
	return nil
}
