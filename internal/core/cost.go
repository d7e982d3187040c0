package core

// The per-length cost model behind the planner's pruned → incremental
// switch. The pruned advance→certify pass is cheap while the lower bound
// certifies most anchors, but its cost grows with the hot-row cache (every
// hot row is advanced and scanned in full at every length) and with the
// MASS recomputes of anchors the bound fails; the incremental diagonal
// pass costs the same half-triangle of cells at every length. After each
// pruned length the engine predicts both costs of the next length from
// counts the pruned pass just produced and latches to the incremental pass
// for the rest of the range once the pruned prediction is the larger.
//
// Every input is a deterministic count (hot rows, recomputed anchors, the
// fallback flag, the geometry), never wall time or the dispatched kernel
// tier, so the switch length — and with it every output bit — is the same
// at any worker count and on any machine. The constants are per-unit
// costs in nanoseconds, fitted once by least squares to per-length wall
// times of both passes (two workers, avx2 kernels) on the pairs-wide and
// pairs-n20k benchmark workloads; ARCHITECTURE.md records the fit.
//
// The latch is one-way: the hot-row count only grows within a run, and the
// partial-profile bounds loosen with distance from their seed length, so
// a length that predicts the pruned pass to lose is followed by lengths
// that predict the same.

import (
	"math"

	"github.com/seriesmining/valmod/internal/profile"
)

const (
	// costHotCell: one hot-row cell per length (kernels.ExtendRow plus
	// kernels.ArgmaxCorr over a row that no longer fits in cache).
	costHotCell = 1.26
	// costMass: one anchor recompute per unit of n·log₂n (the packed FFT
	// row of recomputeBatch plus its row scan and fixpoint bookkeeping).
	costMass = 3.09
	// costAdvance: one retained partial-profile entry advanced and
	// compared, with the anchor's bound and the per-length O(s) passes
	// (moments, candidate profile, top-k extraction) folded in.
	costAdvance = 50.3
	// costRowCell: one cell of the from-scratch STOMP row scan a fallback
	// length pays (recurrence, correlation argmax, partial-profile reseed).
	costRowCell = 2.6
	// costDiagCell: one cell of the incremental diagonal pass.
	costDiagCell = 0.553
	// costDiagAnchor: the incremental pass's per-anchor work (moments,
	// accumulator reset and merge, profile assembly, top-k extraction).
	// Without it the model would send every small series to the diagonal
	// pass, which the measurements contradict (ecg, n=1 000: 0.7 ms pruned
	// against 1.2 ms incremental per length).
	costDiagAnchor = 613
)

// prunedCounts are the counts one pruned length leaves for the model: the
// hot rows cached after it, the anchors it recomputed, and whether it fell
// back to a whole row scan.
type prunedCounts struct {
	hot, recomputed int
	fellBack        bool
}

// prunedCost predicts the pruned pass's cost (ns) at a length with s
// anchors of an n-point series, retaining p entries per anchor, from the
// previous pruned length's counts: the hot rows advanced and scanned in
// full, the recomputes repeated, every retained entry advanced — or, when
// the previous length fell back, one more whole row scan.
func prunedCost(n, s, p int, c prunedCounts) float64 {
	fs := float64(s)
	if c.fellBack {
		return fs * fs * costRowCell
	}
	fn := float64(n)
	return float64(c.hot)*fs*costHotCell +
		float64(c.recomputed)*fn*math.Log2(fn)*costMass +
		fs*float64(p)*costAdvance
}

// incrementalCost predicts the incremental pass's cost (ns) at a length
// with s anchors and exclusion zone excl: one visit per non-trivial
// diagonal cell plus the per-anchor work.
func incrementalCost(s, excl int) float64 {
	d := float64(s - excl)
	return d*(d+1)/2*costDiagCell + float64(s)*costDiagAnchor
}

// preferIncremental reports whether length l of an n-point series is
// predicted to cost less on the incremental pass than on the pruned pass,
// given the previous pruned length's counts.
func preferIncremental(n, l, p, exclFactor int, c prunedCounts) bool {
	s := n - l + 1
	excl := profile.ExclusionZone(l, exclFactor)
	if s <= excl {
		return false // no pair at l: both passes return at once
	}
	return prunedCost(n, s, p, c) > incrementalCost(s, excl)
}
