package core

// The per-length cost model behind the planner's pruned → incremental
// switch. The pruned advance→certify pass is cheap while the lower bound
// certifies most anchors, but its cost grows with the recomputes of
// anchors the bound fails and with the fixpoint rounds those recomputes
// trigger; the incremental diagonal pass costs the same half-triangle of
// cells at every length. After each pruned length the engine predicts both
// costs of the next length from counts the pruned pass just produced and
// latches to the incremental pass for the rest of the range once the
// pruned prediction is the larger.
//
// Every input is a deterministic count (recomputed anchors, fixpoint
// rounds, the fallback flag, the geometry and rows.go's direct-row rule),
// never wall time or the dispatched kernel tier, so the switch length —
// and with it every output bit — is the same at any worker count and on
// any machine; every product that meets an add is rounded with an
// explicit float64(…), so no machine fuses the two into one multiply-add
// (scripts/check_no_fma.sh). The constants are per-unit costs in nanoseconds, measured
// on the avx2 tier and shared by every tier; BenchmarkPrunedCost is the
// pruned side's harness and ARCHITECTURE.md records the fit.
//
// The latch is one-way by rule: once latched, the run never returns to the
// pruned pass, although the counts that predicted the loss can fall again
// (a fallback's reseed leaves the next lengths cheap); ARCHITECTURE.md
// measures what that costs.

import (
	"math"

	"github.com/seriesmining/valmod/internal/profile"
)

const (
	// costRow, costScan: one multiply-add of a recompute's direct row
	// (kernels.DotRow, below the direct-row cutover of rows.go) and one
	// cell of its scan (scanRow's kernels.RowScan: the nearest neighbor
	// and the partial-profile refill in one pass). Per-length times cannot
	// separate the two over
	// the fit's lengths, so they take the eviction rule's fitted prices of
	// the same kernels.
	costRow  = costEvictRow
	costScan = costEvictRepair
	// costMass: one anchor recompute above the direct-row cutover, per
	// unit of n·log₂n (the packed FFT row of recomputeBatch plus its row
	// scan).
	costMass = 3.09
	// costRound: one slot of a fixpoint round — the serial top-k
	// extraction (TopKPairsInto, one pass over the candidate profile) and
	// the scan for anchors the new τ leaves uncertified. Set by replaying
	// the rule over measured lengths rather than by least squares, which
	// prices a round at about 100: a length that needs a second round
	// heralds, on small series, the fallback seed sweep no count
	// predicts, and the higher price switches before it (ARCHITECTURE.md).
	costRound = 450
	// costAdvance: one retained partial-profile entry advanced and
	// compared, with the anchor's bound and the per-length O(s) passes
	// (moments, candidate profile assembly) folded in. It prices the
	// entries the store actually holds (anchors.Store.Kept).
	costAdvance = 13
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
// anchors it recomputed, the rounds of its recompute fixpoint, and
// whether it fell back to a whole seed sweep.
type prunedCounts struct {
	recomputed, rounds int
	fellBack           bool
}

// prunedCost predicts the pruned pass's cost (ns) at length l with s
// anchors and exclusion zone excl of an n-point series, whose partial
// profiles retain kept entries in all, from the previous pruned length's
// counts: the recomputes repeated — a direct row and its scan each when
// direct (rows.go's rule at l), an FFT row each otherwise — the fixpoint
// rounds repeated, every retained entry advanced; or, when the previous
// length fell back, one more seed sweep. The sweep visits the incremental
// pass's cells and does more per cell and per anchor, so a fallback
// always predicts a switch. kept is a count of the store (seed lists are
// shorter than refilled ones), the same at every worker count.
func prunedCost(n, l, s, excl, kept int, direct bool, c prunedCounts) float64 {
	fs := float64(s)
	if c.fellBack {
		d := float64(s - excl)
		return float64(d*(d+1)/2*costSeedCell) + float64(fs*costSeedAnchor)
	}
	fn := float64(n)
	row := fn * math.Log2(fn) * costMass
	if direct {
		row = float64(fs*float64(l)*costRow) + float64(fs*costScan)
	}
	return float64(float64(c.recomputed)*row) +
		float64(float64(c.rounds)*fs*costRound) +
		float64(float64(kept)*costAdvance)
}

// incrementalCost predicts the incremental pass's cost (ns) at a length
// with s anchors and exclusion zone excl: one visit per non-trivial
// diagonal cell plus the per-anchor work.
func incrementalCost(s, excl int) float64 {
	d := float64(s - excl)
	return float64(d*(d+1)/2*costDiagCell) + float64(float64(s)*costDiagAnchor)
}

// preferIncremental reports whether length l of an n-point series is
// predicted to cost less on the incremental pass than on the pruned pass,
// given the previous pruned length's counts and the entries the partial
// profiles of l's anchors retain; direct is rows.go's direct-row rule at
// l.
func preferIncremental(n, l, kept, exclFactor int, direct bool, c prunedCounts) bool {
	s := n - l + 1
	excl := profile.ExclusionZone(l, exclFactor)
	if s <= excl {
		return false // no pair at l: both passes return at once
	}
	return prunedCost(n, l, s, excl, kept, direct, c) > incrementalCost(s, excl)
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
	repair := float64(float64(runs)*fs*float64(l)*costEvictRow) + float64(float64(repairs)*fs*costEvictRepair)
	return repair >= fs*fs/2*costReplayCell
}
