package core

import (
	"fmt"
	"math"

	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/valmap"
)

// LengthStats instruments one length of the run for the ablation benches.
type LengthStats struct {
	// Certified counts anchors whose profile value was certified by the
	// lower bound alone.
	Certified int
	// Recomputed counts anchors individually recomputed from a
	// from-scratch dot-product row.
	Recomputed int
	// FullRecompute reports the length was resolved by a whole-profile
	// pass rather than the pruned advance→certify machinery.
	FullRecompute bool
	// Incremental refines FullRecompute: the whole-profile pass extended
	// the carried cross-length dot-product state (one FMA per cell)
	// instead of recomputing from a from-scratch head row.
	Incremental bool
}

// PlanStats instruments the per-length planner of one run: how many
// lengths each plan resolved and what the incremental engine's carried
// state cost. RecomputeLengths counts the length that seeds the pruned
// machinery. Fixpoint fallbacks inside pruned lengths are *not* counted
// here (they are per-length LengthStats).
type PlanStats struct {
	// PrunedLengths counts lengths resolved by the advance→certify pass.
	PrunedLengths int `json:"pruned_lengths"`
	// IncrementalLengths counts lengths resolved by the incremental
	// cross-length profile pass.
	IncrementalLengths int `json:"incremental_lengths"`
	// RecomputeLengths counts lengths resolved by the seed sweep — one
	// diagonal pass from a from-scratch head row that also reseeds every
	// partial profile (the pruned machinery's seed).
	RecomputeLengths int `json:"recompute_lengths"`
	// SkippedLengths counts lengths no registered sink wanted.
	SkippedLengths int `json:"skipped_lengths"`
	// HeadSeeds counts the incremental pass's head rows: one from-scratch
	// row per incremental length.
	HeadSeeds int `json:"head_seeds"`
	// HeadExtensions counted the cross-length advances of a head row the
	// incremental pass once carried. Nothing is carried now, so it stays
	// 0; it is kept for the readers of the plan counters.
	HeadExtensions int `json:"head_extensions"`
}

// LengthResult carries the exact output of one subsequence length.
type LengthResult struct {
	// M is the subsequence length.
	M int
	// Pairs are the exact top-k motif pairs, ascending distance.
	Pairs []profile.MotifPair
	// Stats instruments how the length was resolved.
	Stats LengthStats
}

// Best returns the best pair and true, or a zero pair and false when the
// length admits no pair.
func (lr LengthResult) Best() (profile.MotifPair, bool) {
	if len(lr.Pairs) == 0 {
		return profile.MotifPair{}, false
	}
	return lr.Pairs[0], true
}

// StatsTag renders a short diagnostic label ("m=32 cert=412 rec=3 full=false")
// used by tests and verbose logs.
func (lr LengthResult) StatsTag() string {
	return fmt.Sprintf("m=%d cert=%d rec=%d full=%v",
		lr.M, lr.Stats.Certified, lr.Stats.Recomputed, lr.Stats.FullRecompute)
}

// Progress is delivered to Config.OnLength after a length completes.
type Progress struct {
	// Done counts completed lengths (this one included); Total is the
	// number of lengths the run will process (LMax − LMin + 1).
	Done, Total int
	// Result is the completed length's exact result. Result.Pairs is
	// backed by engine-owned scratch valid only during the callback;
	// callbacks that retain pairs must copy them (the public valmod
	// wrapper converts into fresh wire structs, so its callers are
	// unaffected).
	Result LengthResult
}

// Result is a completed VALMOD run.
type Result struct {
	// N is the input series length.
	N int
	// Cfg echoes the effective configuration (defaults filled in).
	Cfg Config
	// MPMin is the exact matrix profile at ℓmin (demo Figure 1b-c).
	MPMin *profile.MatrixProfile
	// PerLength holds one entry per length, ℓmin first.
	PerLength []LengthResult
	// VMap is the VALMAP meta structure (demo Figure 1e-f).
	VMap *valmap.VALMAP
	// Discords holds the exact top-k variable-length discords, ranked by
	// length-normalized NN distance descending; nil unless Cfg.Discords
	// is positive.
	Discords []Discord
	// Plan instruments how the per-length planner resolved the run.
	Plan PlanStats
}

// GlobalBest returns the best motif pair across all lengths under the
// length-normalized distance, or false when no length produced a pair.
func (r *Result) GlobalBest() (profile.MotifPair, bool) {
	best := profile.MotifPair{Dist: math.Inf(1)}
	found := false
	bestNorm := math.Inf(1)
	for _, lr := range r.PerLength {
		for _, p := range lr.Pairs {
			if nd := p.NormDist(); nd < bestNorm {
				bestNorm = nd
				best = p
				found = true
			}
		}
	}
	return best, found
}

// ResultOfLength returns the LengthResult for m, or false.
func (r *Result) ResultOfLength(m int) (LengthResult, bool) {
	i := m - r.Cfg.LMin
	if i < 0 || i >= len(r.PerLength) {
		return LengthResult{}, false
	}
	return r.PerLength[i], true
}

// Summary aggregates the per-length instrumentation of a run.
type Summary struct {
	// Lengths is the number of lengths processed (LMax − LMin + 1).
	Lengths int
	// CertifiedAnchors sums anchors certified by the lower bound alone.
	CertifiedAnchors int
	// RecomputedAnchors sums anchors individually recomputed from a
	// from-scratch dot-product row.
	RecomputedAnchors int
	// FullRecomputes counts lengths resolved by a whole-profile pass
	// (including the mandatory seed at ℓmin).
	FullRecomputes int
}

// Summary aggregates stats across the whole run.
func (r *Result) Summary() Summary {
	s := Summary{Lengths: len(r.PerLength)}
	for _, lr := range r.PerLength {
		s.CertifiedAnchors += lr.Stats.Certified
		s.RecomputedAnchors += lr.Stats.Recomputed
		if lr.Stats.FullRecompute {
			s.FullRecomputes++
		}
	}
	return s
}
