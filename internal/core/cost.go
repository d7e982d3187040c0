package core

// The per-length cost model behind the planner's pruned → incremental
// switch. The pruned advance→certify pass is cheap while the lower bound
// certifies most anchors, but its cost grows with the hot-row cache (every
// hot row is advanced and scanned in full at every length) and with the
// recomputes of anchors the bound fails; the incremental diagonal
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
	// It prices the FFT row: below the direct-row cutover of rows.go a
	// recompute costs less, so the model overprices it there and latches
	// early rather than late. Re-pricing it would move switch lengths,
	// and with them the plan of existing runs.
	costMass = 3.09
	// costAdvance: one retained partial-profile entry advanced and
	// compared, with the anchor's bound and the per-length O(s) passes
	// (moments, candidate profile, top-k extraction) folded in.
	costAdvance = 50.3
	// costSeedCell: one cell of the seed sweep a fallback length pays
	// (kernels.SeedScan: the diagonal pass plus the two list filters).
	costSeedCell = 0.79
	// costSeedAnchor: the seed sweep's per-anchor work — chiefly the list
	// inserts the filters let through, then the merge into the store.
	costSeedAnchor = 3340
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
// back to a whole seed sweep.
type prunedCounts struct {
	hot, recomputed int
	fellBack        bool
}

// prunedCost predicts the pruned pass's cost (ns) at a length with s
// anchors and exclusion zone excl of an n-point series, retaining p
// entries per anchor, from the previous pruned length's counts: the hot
// rows advanced and scanned in full, the recomputes repeated, every
// retained entry advanced — or, when the previous length fell back, one
// more seed sweep. The sweep visits the incremental pass's cells and does
// more per cell and per anchor, so a fallback always predicts a switch.
func prunedCost(n, s, excl, p int, c prunedCounts) float64 {
	fs := float64(s)
	if c.fellBack {
		d := float64(s - excl)
		return d*(d+1)/2*costSeedCell + fs*costSeedAnchor
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
	return prunedCost(n, s, excl, p, c) > incrementalCost(s, excl)
}

// The capped stream's eviction rule. When a sliding window drops its
// oldest points, every length's survivors whose recorded neighbor was
// evicted need their exact best over the window again. Streamer.evict
// either repairs them by runs of consecutive offsets — one from-scratch
// row per run (s·ℓ multiply-adds below the direct-row cutover) and, per
// repaired offset, one O(s) row step and scan — or replays the column
// recurrence over the whole window, half the s² triangle of cells. Like
// the planner's switch, the choice reads counts only, and its constants
// are fitted once on the avx2 tier and shared by every tier, so which
// lengths replay — and every output bit — is the same at any worker count
// and on any machine. The fit is BenchmarkStreamEvict's; ARCHITECTURE.md
// records it.
const (
	// costEvictRow: one multiply-add of a repair run's from-scratch row
	// (kernels.DotRow).
	costEvictRow = 0.087
	// costEvictRepair: one cell of a repaired offset's row — its RowNext
	// step and its ArgmaxCorr scan.
	costEvictRepair = 1.11
	// costReplayCell: one cell of the replay's half triangle — the column
	// advance (kernels.RowNext) and kernels.ColScan.
	costReplayCell = 1.06
)

// replayEviction reports whether one length's eviction, leaving s windows
// of length l of which repairs (in runs maximal runs) lost their recorded
// neighbor, is predicted to cost at least as much repaired by runs as
// replayed. Above the direct-row cutover a run's row is an FFT row that
// costs less than s·ℓ multiply-adds, so there the rule replays early
// rather than late.
func replayEviction(s, l, repairs, runs int) bool {
	fs := float64(s)
	repair := float64(runs)*fs*float64(l)*costEvictRow + float64(repairs)*fs*costEvictRepair
	return repair >= fs*fs/2*costReplayCell
}
