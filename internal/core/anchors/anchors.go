// Package anchors holds the per-anchor state of a VALMOD run: one partial
// distance profile per subsequence offset (the retained lower-bound entries
// of demo Figure 2a) plus the hot-row cache for anchors that keep failing
// certification. The Store partitions its anchors into contiguous shards so
// the per-length advance→certify pass can run one shard per goroutine:
// every anchor owns its state and its slots of the engine's scratch arrays
// exclusively, which keeps the parallel pass bit-identical to the serial
// one regardless of the shard-to-worker assignment.
package anchors

import (
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

// Store owns the anchor states of one run plus the hot-row cache. Hot rows
// are kept in flat slices indexed by anchor offset (not a map) so that
// concurrent shard workers can advance distinct anchors' rows without
// synchronization; retention (MakeHot) happens only on the serial
// recompute path.
type Store struct {
	states []State

	// hotRows[i] is anchor i's cached full dot-product row (nil when the
	// anchor is not hot); hotLens[i] the length the row is currently at.
	hotRows  [][]float64
	hotLens  []int32
	hotCount int
	budget   int
}

// NewStore returns a store for n anchors whose hot-row cache is bounded by
// budgetBytes of row storage (at least 32 rows).
func NewStore(n, budgetBytes int) *Store {
	budget := 0
	if n > 0 {
		budget = budgetBytes / (8 * n)
	}
	if budget < 32 {
		budget = 32
	}
	return &Store{
		states:  make([]State, n),
		hotRows: make([][]float64, n),
		hotLens: make([]int32, n),
		budget:  budget,
	}
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

// HotRow returns anchor i's cached dot-product row and the length it is
// currently advanced to, or ok=false when the anchor is not hot.
func (s *Store) HotRow(i int) (row []float64, l int, ok bool) {
	row = s.hotRows[i]
	if row == nil {
		return nil, 0, false
	}
	return row, int(s.hotLens[i]), true
}

// SetHotLen records that anchor i's cached row has been advanced to length
// l. Distinct anchors may be updated concurrently.
func (s *Store) SetHotLen(i, l int) { s.hotLens[i] = int32(l) }

// MakeHot caches row (already advanced to length l) for anchor i and
// reports whether the store retained it; false when the anchor is already
// hot or the budget is exhausted, in which case the caller keeps ownership
// of row. Serial use only.
func (s *Store) MakeHot(i int, row []float64, l int) bool {
	if s.hotRows[i] != nil || s.hotCount >= s.budget {
		return false
	}
	s.hotRows[i] = row
	s.hotLens[i] = int32(l)
	s.hotCount++
	return true
}

// HotCount returns the number of cached rows; Budget the cap.
func (s *Store) HotCount() int { return s.hotCount }

// Budget returns the maximum number of rows the cache may hold.
func (s *Store) Budget() int { return s.budget }

// Shard is a contiguous anchor range [Lo, Hi).
type Shard struct{ Lo, Hi int }

// Shards partitions the first n anchors (n ≤ Len) into count near-equal
// contiguous ranges. The boundaries depend only on n and count — never on
// which worker processes which shard — so any schedule over the shards
// computes identical results.
func (s *Store) Shards(n, count int) []Shard {
	return s.ShardsInto(n, count, nil)
}

// DrainHotRows removes every cached row, handing each to release (the
// engine returns them to its row pool). After draining no anchor is hot;
// the store remains usable.
func (s *Store) DrainHotRows(release func([]float64)) {
	for i, row := range s.hotRows {
		if row != nil {
			release(row)
			s.hotRows[i] = nil
		}
	}
	s.hotCount = 0
}

// Snapshot is the serializable image of a Store: the per-anchor partial
// profiles plus the hot-row cache. It is the anchors section of an engine
// checkpoint — resuming a pruned run bit-identically requires the hot rows
// too, because a hot anchor resolves through a different (equally exact,
// but not bit-equal) arithmetic path than a cold one.
type Snapshot struct {
	States []State
	// HotAnchors lists the hot anchor offsets in ascending order; HotLens
	// and HotRows are parallel to it. Rows are stored at their full
	// retained length (later lengths read a shrinking prefix).
	HotAnchors []int32
	HotLens    []int32
	HotRows    [][]float64
}

// Snapshot captures the store's current state. The returned snapshot
// aliases the live slices (states, entries, rows) — it is a view for
// immediate serialization between per-length passes, not a defensive copy.
func (s *Store) Snapshot() *Snapshot {
	sn := &Snapshot{States: s.states}
	for i, row := range s.hotRows {
		if row != nil {
			sn.HotAnchors = append(sn.HotAnchors, int32(i))
			sn.HotLens = append(sn.HotLens, s.hotLens[i])
			sn.HotRows = append(sn.HotRows, row)
		}
	}
	return sn
}

// Restore loads a snapshot into the store. Hot rows are copied into
// buffers acquired through getRow so the engine's row-pool accounting
// (every retained row drains back through putRow at run end) stays exact.
// The store must have been built for the same anchor count.
func (s *Store) Restore(sn *Snapshot, getRow func(n int) []float64) {
	copy(s.states, sn.States)
	s.DrainHotRows(func([]float64) {})
	for k, i := range sn.HotAnchors {
		src := sn.HotRows[k]
		row := getRow(len(src))[:len(src)]
		copy(row, src)
		s.hotRows[i] = row
		s.hotLens[i] = sn.HotLens[k]
		s.hotCount++
	}
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
