// Package anchors holds the per-anchor state of a VALMOD run: one partial
// distance profile per subsequence offset (the retained lower-bound entries
// of demo Figure 2a). An anchor that fails certification is recomputed and
// its partial profile refilled; no dot-product row outlives the length that
// computed it. The Store partitions its anchors into contiguous shards so
// the per-length advance→certify pass can run one shard per goroutine:
// every anchor owns its state and its slots of the engine's scratch arrays
// exclusively, which keeps the parallel pass bit-identical to the serial
// one regardless of the shard-to-worker assignment.
package anchors

import (
	"fmt"

	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/lb"
)

// State is the partial distance profile of one anchor.
type State struct {
	// Entries are the retained candidates, at most P, kept as a min-heap
	// on q̃² (see lb.Heapify). A seed lays the heap out from the entries'
	// canonical order (Store.Seed), so the layout is as deterministic as
	// the set.
	Entries []lb.Entry
	// Base is the length at which Entries and their q̃ were (re)seeded.
	Base int32
	// NextQ2 is the q̃² of the best candidate NOT retained (the (p+1)-th
	// largest at seed time): every unkept candidate has q̃² ≤ NextQ2, so
	// Bound(√NextQ2) lower-bounds all of them — a strictly tighter
	// certification threshold than bounding via the worst kept entry.
	// Negative when every candidate was retained (nothing to bound:
	// maxLB = +Inf).
	NextQ2 float64
	// Degenerate marks a constant anchor window at the seed length, for
	// which no lower bound is available (maxLB = 0).
	Degenerate bool
}

// Store owns the anchor states of one run.
type Store struct {
	states []State
}

// NewStore returns a store for n anchors.
func NewStore(n int) *Store {
	return &Store{states: make([]State, n)}
}

// Len returns the number of anchors.
func (s *Store) Len() int { return len(s.states) }

// At returns anchor i's state for in-place mutation.
func (s *Store) At(i int) *State { return &s.states[i] }

// BeginReseed prepares anchor i for a fresh top-p selection at base length
// l and returns its state: entries emptied (capacity p, or the anchor count
// when p exceeds it — a row never has more candidates than there are
// anchors), bound fields reset. The caller fills Entries and NextQ2 (the
// recompute path's row scan in core does this inline for speed).
func (s *Store) BeginReseed(i, p, l int) *State {
	a := &s.states[i]
	if p > len(s.states) {
		p = len(s.states)
	}
	if cap(a.Entries) < p {
		a.Entries = make([]lb.Entry, 0, p)
	}
	a.Entries = a.Entries[:0]
	a.Base = int32(l)
	a.Degenerate = false
	a.NextQ2 = -1
	return a
}

// Seed installs anchor i's partial profile at base length l from the
// candidate lists of a seed sweep (kernels.SeedScan), one per sweep
// worker, each keeping up to p+1 entries of disjoint candidates. The
// canonical merge folds every list into the first under the strict order
// (q̃² descending, offset ascending), keeps the first p entries, sets
// NextQ2 to the (p+1)-th key (−1 when there is none) and heapifies the
// kept entries from that sorted order. All three are functions of the
// candidate set alone, so they are identical at every worker count. A
// degenerate anchor keeps no entries.
func (s *Store) Seed(i, p, l int, lists []*kernels.TopLists, degenerate bool) {
	a := s.BeginReseed(i, p, l)
	if degenerate {
		a.Degenerate = true
		return
	}
	top := lists[0]
	for _, o := range lists[1:] {
		top.Merge(o, i)
	}
	base, n := i*top.Cap, int(top.Len[i])
	for x := base; x < base+n && x < base+p; x++ {
		a.Entries = append(a.Entries, lb.Entry{J: top.J[x], QT: top.QT[x], QTilde: top.Q[x]})
	}
	if n > p {
		q := top.Q[base+p]
		a.NextQ2 = q * q
	}
	lb.Heapify(a.Entries)
}

// Shard is a contiguous anchor range [Lo, Hi).
type Shard struct{ Lo, Hi int }

// Shards partitions the first n anchors (n ≤ Len) into count near-equal
// contiguous ranges. The boundaries depend only on n and count — never on
// which worker processes which shard — so any schedule over the shards
// computes identical results.
func (s *Store) Shards(n, count int) []Shard {
	return s.ShardsInto(n, count, nil)
}

// Snapshot is the serializable image of a Store: the per-anchor partial
// profiles. It is the anchors section of an engine checkpoint.
type Snapshot struct {
	States []State
}

// Snapshot captures the store's current state. The returned snapshot
// aliases the live slices (states, entries) — it is a view for immediate
// serialization between per-length passes, not a defensive copy.
func (s *Store) Snapshot() *Snapshot {
	return &Snapshot{States: s.states}
}

// Validate checks that a decoded snapshot fits a store of n anchors
// retaining at most p entries each (n, when p exceeds it — BeginReseed's
// cap), seeded at lengths in [lmin, cur]: one state per anchor, every
// retained offset in [0, n), every Base in range. A snapshot that fails
// would index out of the run's arrays, or bound from a length the run has
// not reached, on resume.
func (sn *Snapshot) Validate(n, p, lmin, cur int) error {
	if len(sn.States) != n {
		return fmt.Errorf("%d anchor states, want %d", len(sn.States), n)
	}
	if p > n {
		p = n
	}
	for i := range sn.States {
		a := &sn.States[i]
		if len(a.Entries) > p {
			return fmt.Errorf("anchor %d retains %d entries, at most %d", i, len(a.Entries), p)
		}
		if int(a.Base) < lmin || int(a.Base) > cur {
			return fmt.Errorf("anchor %d seeded at length %d, outside [%d, %d]", i, a.Base, lmin, cur)
		}
		for _, e := range a.Entries {
			if e.J < 0 || int(e.J) >= n {
				return fmt.Errorf("anchor %d retains offset %d, outside [0, %d)", i, e.J, n)
			}
		}
	}
	return nil
}

// Restore loads a snapshot into the store, which must have been built for
// the same anchor count (see Validate).
func (s *Store) Restore(sn *Snapshot) {
	copy(s.states, sn.States)
}

// ShardsInto is Shards appending into buf (reused across lengths by the
// advance pass so the steady state allocates nothing).
func (s *Store) ShardsInto(n, count int, buf []Shard) []Shard {
	if n > len(s.states) {
		n = len(s.states)
	}
	if count > n {
		count = n
	}
	if count < 1 {
		count = 1
	}
	out := buf[:0]
	for w := 0; w < count; w++ {
		lo, hi := w*n/count, (w+1)*n/count
		if lo < hi {
			out = append(out, Shard{Lo: lo, Hi: hi})
		}
	}
	return out
}
