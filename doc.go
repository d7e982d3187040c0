// Package valmod is a pure-Go implementation of VALMOD (Linardi, Zhu,
// Palpanas, Keogh — SIGMOD 2018): exact, scalable discovery of data-series
// motifs of variable length.
//
// Given a series and a length range [ℓmin, ℓmax], Discover returns the
// exact top-k motif pairs of every length in the range, a cross-length
// ranking under the length-normalized distance d·√(1/ℓ), and the VALMAP
// meta data series ⟨MPn, IP, LP⟩ that shows at which length each
// subsequence found its best match.
//
// Quick start:
//
//	res, err := valmod.Discover(values, 50, 400, valmod.Options{})
//	if err != nil { ... }
//	best, _ := res.BestOverall()
//	fmt.Printf("motif: offsets %d and %d, length %d, distance %.3f\n",
//		best.A, best.B, best.Length, best.Distance)
//
// For repeated discoveries, NewEngine builds a reusable pipeline that
// pools its scratch across runs and reports per-length progress:
//
//	eng := valmod.NewEngine(valmod.Options{
//		Workers:  0, // all cores; output identical at any worker count
//		Progress: func(p valmod.Progress) { log.Printf("%d/%d", p.Done, p.Total) },
//	})
//	res, err := eng.Discover(values, 50, 400)
//
// Options.Discords additionally reports the top-k variable-length
// discords — the subsequences whose nearest non-trivial neighbor is
// farthest (exact NN distances) — ranked across lengths by the
// length-normalized distance.
// Internally every per-length result flows through a sink pipeline
// (internal/core); discords are its first consumer requiring the exact
// full profile per length, which the incremental cross-length engine
// serves by carrying dot-product state between lengths (one head row per
// run, one fused multiply-add per cell per length).
//
// Fixed-length helpers (MatrixProfile, DistanceProfile) expose the
// substrate directly, and ExpandMotifSet grows any discovered pair into the
// full set of its occurrences.
package valmod
