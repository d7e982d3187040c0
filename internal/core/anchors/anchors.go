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
	"math"

	"github.com/seriesmining/valmod/internal/kernels"
)

// Store is the partial profiles of a run's anchors in one flat layout.
// Anchor i owns the Cap slots [i·Cap, i·Cap+Cap) of J and QT and fills
// the first Len[i] of them, best first under the lower bound's rank
// order (q̃² descending, offset ascending). The lists it installs from
// (kernels.TopLists) rank by the pair's correlation c instead; since
// q̃ = ℓ·σᵢ·c with ℓ·σᵢ fixed per anchor, the order is the same. A list
// may hold fewer than Cap entries: the seed sweep keeps a short list, a
// recompute's refill a full one (internal/core's seedKeep).
type Store struct {
	// Cap is the slot count per anchor: the most entries a partial
	// profile holds.
	Cap int
	// Len[i] is anchor i's entry count.
	Len []int32
	// Base[i] is the length at which anchor i's entries were (re)seeded.
	Base []int32
	// NextQ2[i] is the q̃² of the best candidate NOT retained, the
	// (ℓ·σᵢ·c)² of the key after the kept ones at seed time: every unkept
	// candidate has q̃² ≤ NextQ2, so Bound(√NextQ2) lower-bounds all of
	// them — a strictly tighter certification threshold than bounding via
	// the worst kept entry. Negative when every candidate was retained
	// (nothing to bound: maxLB = +Inf).
	NextQ2 []float64
	// Degenerate[i] marks a constant anchor window at the seed length,
	// for which no lower bound is available (maxLB = 0).
	Degenerate []bool
	// J and QT are the slots: each entry's candidate offset and its
	// running dot product Σ_{t<ℓcur} a_t·b_t, advanced by one product per
	// length.
	J  []int32
	QT []float64
}

// NewStore returns a store for n anchors of up to c entries each (c is
// clipped to n: a row never has as many candidates as there are
// anchors). The slot count n·c is checked before it is formed, so a
// product whose bytes pass the platform's int is an error rather than a
// wrapped allocation.
func NewStore(n, c int) (*Store, error) {
	c = min(c, n)
	if c < 0 || c > 0 && n > math.MaxInt/8/c {
		return nil, fmt.Errorf("%d anchors of %d entries overflow the slot count", n, c)
	}
	return &Store{
		Cap:        c,
		Len:        make([]int32, n),
		Base:       make([]int32, n),
		NextQ2:     make([]float64, n),
		Degenerate: make([]bool, n),
		J:          make([]int32, n*c),
		QT:         make([]float64, n*c),
	}, nil
}

// Anchors returns the number of anchors.
func (s *Store) Anchors() int { return len(s.Len) }

// Kept returns the entry count of the first n anchors: the entries the
// advance pass moves at a length with n anchors.
func (s *Store) Kept(n int) int {
	kept := 0
	for _, c := range s.Len[:min(n, len(s.Len))] {
		kept += int(c)
	}
	return kept
}

// Set installs anchor i's partial profile at base length l from anchor
// a's list in top: its first keep entries (keep ≤ Cap), and NextQ2 from
// the key c after them (−1 when the list holds no more), scaled to
// q̃ = scale·c by scale = ℓ·σᵢ, anchor i's at l. A zero scale marks a
// degenerate anchor (σᵢ = 0), which keeps no entries.
func (s *Store) Set(i, l, keep int, top *kernels.TopLists, a int, scale float64) {
	s.Base[i] = int32(l)
	s.Degenerate[i] = scale == 0
	s.NextQ2[i] = -1
	if scale == 0 {
		s.Len[i] = 0
		return
	}
	n := int(top.Len[a])
	src := a * top.Cap
	if n > keep {
		q := scale * top.Q[src+keep]
		s.NextQ2[i] = q * q
		n = keep
	}
	dst := i * s.Cap
	copy(s.J[dst:dst+n], top.J[src:src+n])
	copy(s.QT[dst:dst+n], top.QT[src:src+n])
	s.Len[i] = int32(n)
}

// Shard is a contiguous anchor range [Lo, Hi).
type Shard struct{ Lo, Hi int }

// Shards partitions the first n anchors (n ≤ Anchors) into count
// near-equal contiguous ranges. The boundaries depend only on n and
// count — never on which worker processes which shard — so any schedule
// over the shards computes identical results.
func (s *Store) Shards(n, count int) []Shard {
	return s.ShardsInto(n, count, nil)
}

// ShardsInto is Shards appending into buf (reused across lengths by the
// advance pass so the steady state allocates nothing).
func (s *Store) ShardsInto(n, count int, buf []Shard) []Shard {
	n = min(n, s.Anchors())
	count = max(min(count, n), 1)
	out := buf[:0]
	for w := 0; w < count; w++ {
		lo, hi := w*n/count, (w+1)*n/count
		if lo < hi {
			out = append(out, Shard{Lo: lo, Hi: hi})
		}
	}
	return out
}

// Snapshot is the anchors section of an engine checkpoint as it is read
// back: the per-anchor arrays, and J and QT holding each anchor's Len
// entries back to back (a frame carries no unused slot). The section is
// written straight from a live Store's slots; Validate checks a decoded
// one before Restore rebuilds the slots from it.
type Snapshot struct {
	Cap        int
	Len, Base  []int32
	NextQ2     []float64
	Degenerate []bool
	J          []int32
	QT         []float64
}

// Validate checks that a decoded snapshot fits a store of n anchors
// retaining at most p entries each (n, when p exceeds it), seeded at
// lengths in [lmin, cur]: every per-anchor array n long, every Len within
// the slots and none on a degenerate anchor, J and QT as long as the
// entries, every offset in [0, n) and every Base in range. A snapshot
// that fails would index out of the run's arrays, or bound from a length
// the run has not reached, on resume.
func (sn *Snapshot) Validate(n, p, lmin, cur int) error {
	if sn.Cap != min(p, n) {
		return fmt.Errorf("%d slots per anchor, want %d", sn.Cap, min(p, n))
	}
	if len(sn.Len) != n || len(sn.Base) != n || len(sn.NextQ2) != n || len(sn.Degenerate) != n {
		return fmt.Errorf("anchor arrays of %d, %d, %d and %d, want %d",
			len(sn.Len), len(sn.Base), len(sn.NextQ2), len(sn.Degenerate), n)
	}
	kept := 0
	for i, c := range sn.Len {
		if c < 0 || int(c) > sn.Cap || sn.Degenerate[i] && c != 0 {
			return fmt.Errorf("anchor %d retains %d entries, at most %d (degenerate %v)", i, c, sn.Cap, sn.Degenerate[i])
		}
		if b := int(sn.Base[i]); b < lmin || b > cur {
			return fmt.Errorf("anchor %d seeded at length %d, outside [%d, %d]", i, b, lmin, cur)
		}
		kept += int(c)
	}
	if len(sn.J) != kept || len(sn.QT) != kept {
		return fmt.Errorf("%d offsets and %d dot products for %d entries", len(sn.J), len(sn.QT), kept)
	}
	for x, j := range sn.J {
		if j < 0 || int(j) >= n {
			return fmt.Errorf("entry %d retains offset %d, outside [0, %d)", x, j, n)
		}
	}
	return nil
}

// Restore rebuilds a store from a snapshot validated for its anchor
// count and P (see Validate).
func Restore(sn *Snapshot) *Store {
	n := len(sn.Len)
	s := &Store{
		Cap: sn.Cap, Len: sn.Len, Base: sn.Base, NextQ2: sn.NextQ2, Degenerate: sn.Degenerate,
		J: make([]int32, n*sn.Cap), QT: make([]float64, n*sn.Cap),
	}
	x := 0
	for i, c := range sn.Len {
		lo, m := i*s.Cap, int(c)
		copy(s.J[lo:lo+m], sn.J[x:x+m])
		copy(s.QT[lo:lo+m], sn.QT[x:x+m])
		x += m
	}
	return s
}
