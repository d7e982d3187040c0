// Package stomp implements STOMP (Zhu et al., "Matrix Profile II", ICDM
// 2016): the exact O(n²) self-join matrix profile with O(1)-amortized
// sliding dot products. It is the paper's fixed-length baseline (adapted
// to length ranges in internal/baseline/stomprange) and the substrate of
// valmod.MatrixProfile. VALMOD's engine (internal/core) takes from it the
// streaming column append (AppendColumn); its ℓmin seed is a sweep of its
// own over the diagonal blocks (kernels.SeedScan), and its incremental
// pass runs kernels.CovScan from a centred head row of its own per length.
//
// Three variants are provided: a cache-friendly diagonal traversal
// (Compute), a goroutine-parallel version partitioning diagonals
// (ComputeParallel), and a brute-force reference (Brute) used only in tests
// and ablation benchmarks.
//
// The diagonal traversal is split into a seed path and an extend path:
// DiagonalHead computes the first cell of every diagonal with one FFT, and
// ExtendDiagonalHead advances that head row from length ℓ to ℓ+1 with one
// multiply-add per cell — the cross-length recurrence
// QT(i,j)ₗ₊₁ = QT(i,j)ₗ + t[i+ℓ]·t[j+ℓ] specialized to row 0. A scan over
// a length range therefore pays for one FFT total, not one per length.
package stomp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// ErrBadLength is returned when the subsequence length is out of range.
var ErrBadLength = errors.New("stomp: subsequence length out of range")

func validate(n, m int) error {
	if m < 2 || m > n {
		return fmt.Errorf("%w: m=%d, n=%d", ErrBadLength, m, n)
	}
	return nil
}

// ValidateLength reports whether subsequence length m is usable for a
// series of n points, with the same rule every algorithm in the suite
// applies (2 ≤ m ≤ n).
func ValidateLength(n, m int) error { return validate(n, m) }

// DiagonalHead is the *seed path* of the diagonal traversal: the first
// cell QT(0, k) of every diagonal at length m, computed with one FFT.
// head[k] = Σ_{p<m} t[p]·t[k+p] for k in [0, n−m]. One head row is enough
// to stream every diagonal of the length-m self-join in O(1) per cell —
// and it is the only state the cross-length *extend path* below needs.
func DiagonalHead(t []float64, m int) ([]float64, error) {
	if err := validate(len(t), m); err != nil {
		return nil, err
	}
	return fft.SlidingDotProducts(t[0:m], t), nil
}

// ExtendDiagonalHead is the *extend path*: it advances a diagonal head row
// from length cur to length next with the cross-length recurrence
// QT(0,k)ₗ₊₁ = QT(0,k)ₗ + t[ℓ]·t[k+ℓ] — one multiply-add per cell per
// length step, no FFT (kernels.ExtendRow with anchor 0). It returns the
// head trimmed to the diagonals that still exist at the new length
// (n−next+1 cells). This is what lets a length-range scan seed its FFT
// exactly once. No pass of VALMOD's engine calls it: its incremental pass
// computes a centred head row at each length instead.
func ExtendDiagonalHead(head, t []float64, cur, next int) ([]float64, error) {
	if err := validate(len(t), cur); err != nil {
		return nil, err
	}
	if err := validate(len(t), next); err != nil {
		return nil, err
	}
	if next < cur || len(head) < len(t)-cur+1 {
		return nil, fmt.Errorf("%w: extend from m=%d (head %d cells) to m=%d", ErrBadLength, cur, len(head), next)
	}
	n := len(t)
	kernels.ExtendRow(head[:n-cur+1], t, 0, cur, next)
	return head[:n-next+1], nil
}

// ComputeFromHead builds the exact matrix profile at length m from a
// diagonal head row (len ≥ n−m+1 cells, already at length m): each
// diagonal streams from its head cell with the in-length recurrence, and
// symmetry resolves both endpoints of every pair in one visit. Compute
// seeds the head with one FFT; a caller holding an extended head (see
// ExtendDiagonalHead) skips the FFT entirely.
func ComputeFromHead(t []float64, m, exclFactor int, head []float64) (*profile.MatrixProfile, error) {
	n := len(t)
	if err := validate(n, m); err != nil {
		return nil, err
	}
	s := n - m + 1
	if len(head) < s {
		return nil, fmt.Errorf("%w: head has %d cells, need %d at m=%d", ErrBadLength, len(head), s, m)
	}
	excl := profile.ExclusionZone(m, exclFactor)
	mp := profile.New(m, excl, s)
	if s <= excl {
		return mp, nil // no non-trivial pairs exist
	}
	means, stds := series.SlidingMeanStd(t, m)
	fm := float64(m)
	for k := excl; k < s; k++ {
		qt := head[k]
		for i := 0; i+k < s; i++ {
			j := i + k
			if i > 0 {
				qt += t[i+m-1]*t[j+m-1] - t[i-1]*t[j-1]
			}
			d := series.DistFromDot(qt, fm, means[i], stds[i], means[j], stds[j])
			mp.Update(i, d, j)
			mp.Update(j, d, i)
		}
	}
	return mp, nil
}

// Compute returns the exact matrix profile of t at subsequence length m,
// using exclusion zone ⌈m/exclFactor⌉ (exclFactor ≤ 0 selects the default).
// Diagonal traversal: one FFT seeds every diagonal's first dot product
// (DiagonalHead), then each diagonal streams in O(1) per cell
// (ComputeFromHead).
func Compute(t []float64, m, exclFactor int) (*profile.MatrixProfile, error) {
	head, err := DiagonalHead(t, m)
	if err != nil {
		return nil, err
	}
	return ComputeFromHead(t, m, exclFactor, head)
}

// ComputeParallel is Compute with diagonals partitioned across workers.
// workers ≤ 0 selects GOMAXPROCS. Each worker owns a private profile that is
// min-merged at the end, so results equal the serial version (nearest-
// neighbor ties may resolve to a different, equally-near index).
func ComputeParallel(t []float64, m, exclFactor, workers int) (*profile.MatrixProfile, error) {
	n := len(t)
	if err := validate(n, m); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := n - m + 1
	excl := profile.ExclusionZone(m, exclFactor)
	mp := profile.New(m, excl, s)
	if s <= excl {
		return mp, nil
	}
	if workers == 1 || s-excl < 4*workers {
		return Compute(t, m, exclFactor)
	}
	means, stds := series.SlidingMeanStd(t, m)
	qt0 := fft.SlidingDotProducts(t[0:m], t)
	fm := float64(m)

	// Diagonal k has s-k cells; assign contiguous ranges of k with roughly
	// equal total cell counts so workers finish together.
	totalCells := 0
	for k := excl; k < s; k++ {
		totalCells += s - k
	}
	bounds := make([]int, 0, workers+1)
	bounds = append(bounds, excl)
	acc, target, next := 0, totalCells/workers, 1
	for k := excl; k < s && next < workers; k++ {
		acc += s - k
		if acc >= target*next {
			bounds = append(bounds, k+1)
			next++
		}
	}
	bounds = append(bounds, s)

	locals := make([]*profile.MatrixProfile, len(bounds)-1)
	var wg sync.WaitGroup
	for w := 0; w < len(bounds)-1; w++ {
		lo, hi := bounds[w], bounds[w+1]
		local := profile.New(m, excl, s)
		locals[w] = local
		wg.Add(1)
		go func(lo, hi int, local *profile.MatrixProfile) {
			defer wg.Done()
			for k := lo; k < hi; k++ {
				qt := qt0[k]
				for i := 0; i+k < s; i++ {
					j := i + k
					if i > 0 {
						qt += t[i+m-1]*t[j+m-1] - t[i-1]*t[j-1]
					}
					d := series.DistFromDot(qt, fm, means[i], stds[i], means[j], stds[j])
					local.Update(i, d, j)
					local.Update(j, d, i)
				}
			}
		}(lo, hi, local)
	}
	wg.Wait()
	for _, local := range locals {
		for i := 0; i < s; i++ {
			mp.Update(i, local.Dist[i], local.Index[i])
		}
	}
	return mp, nil
}

// Brute is the O(n²·m) definitional matrix profile used as ground truth in
// tests and the pruning ablation.
func Brute(t []float64, m, exclFactor int) (*profile.MatrixProfile, error) {
	n := len(t)
	if err := validate(n, m); err != nil {
		return nil, err
	}
	s := n - m + 1
	excl := profile.ExclusionZone(m, exclFactor)
	mp := profile.New(m, excl, s)
	for i := 0; i < s; i++ {
		for j := i + excl; j < s; j++ {
			d := series.ZNormDist(t[i:i+m], t[j:j+m])
			mp.Update(i, d, j)
			mp.Update(j, d, i)
		}
	}
	return mp, nil
}
