package core

// The incremental cross-length profile engine: the FullProfile plan's
// per-length pass. Each length is resolved by one fused diagonal pass that
// visits every non-trivial pair exactly once (symmetry updates both
// endpoints), on a fixed diagonal-block grid — the grid diagPass runs the
// seed sweep on too. The pass runs on SCAMP's mean-centred covariance
// recurrence (kernels.CovScan), whose per-cell update needs no window
// means and no 1/ℓ. Its inputs are O(s) per length (covAt): the steps df
// and dg, the normalizers, and the head row cov(0, k), one dot row of the
// centred first window against the series. Nothing is carried from one
// length to the next.
//
// Determinism: a diagonal's cells depend only on its head cell, never on
// which block or worker scans it, so the computed correlations are
// bit-identical at every worker count. Winner selection per profile slot
// uses the strict total order (corr descending, neighbor offset ascending
// on exact ties); a total-order maximum is independent of encounter order,
// so block scheduling and the per-worker local merges cannot change the
// result either.

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// diagBlockCells is the minimum target cell count of one diagonal block —
// the fixed grid the incremental pass and the seed sweep are partitioned
// on. It depends only on the geometry (s, excl), never on the worker
// count.
const diagBlockCells = 128 * 1024

// diagBlockMinWidth is the block grid's unit: every block but the last is
// a positive multiple of it wide, so it splits exactly into the widest
// diagonal group a kernel tier interleaves (16 on avx512, 4 elsewhere)
// and no diagonal of it falls to the scalar single-diagonal path. Under
// the old cells-only rule whole passes did: once a single diagonal holds
// ≥ diagBlockCells cells (n ≳ 130k near the exclusion zone), every block
// came out one diagonal wide.
const diagBlockMinWidth = 16

// diagBlockShards is the target block count of a full-size pass: the cell
// target grows with the workload (total/diagBlockShards) so huge inputs
// don't fragment into hundreds of thousands of blocks, while staying small
// enough that the dynamic scheduler can balance the triangle's uneven
// diagonals across workers.
const diagBlockShards = 2048

// diagBlock is a contiguous range of diagonals [k0, k1).
type diagBlock struct{ k0, k1 int }

// diagBlocks partitions diagonals [excl, s) into blocks of roughly target
// cells each (diagonal k has s−k cells), where target scales with the
// total workload, cutting only where the block is a multiple of
// diagBlockMinWidth diagonals wide; the last block takes the remainder.
// The boundaries are a pure function of s and excl; the block grid never
// affects results (winner selection is a total-order maximum), only how
// evenly the pass schedules.
func diagBlocks(s, excl int) []diagBlock {
	d := s - excl // diagonal count; total cells form the triangle d(d+1)/2
	target := diagBlockCells
	// The triangle passes a 32-bit int at d ≈ 65 000; the shard size fits.
	if t := int(int64(d) * int64(d+1) / 2 / diagBlockShards); t > target {
		target = t
	}
	var out []diagBlock
	k0, acc := excl, 0
	for k := excl; k < s; k++ {
		acc += s - k
		if acc >= target && (k+1-k0)%diagBlockMinWidth == 0 {
			out = append(out, diagBlock{k0, k + 1})
			k0, acc = k+1, 0
		}
	}
	if k0 < s {
		out = append(out, diagBlock{k0, s})
	}
	return out
}

// covAt prepares the centred diagonal pass at length l (kernels.CovInputs)
// in pooled rows of at least ℓmin's anchor count: the steps df and dg,
// the normalizers nrm, and the head row cov(0, k) in rowQT. The head is
// the dot row of the first window centred on its two-pass mean a₀,
// minus aₖ times the centred window's sum, so it never subtracts the
// large products of raw dot products and means. The moment cache must be
// at l.
func (r *run) covAt(l int) {
	s := len(r.t) - l + 1
	if r.df == nil {
		r.df = r.eng.getRow(r.sMin)
		r.dg = r.eng.getRow(r.sMin)
		r.nrm = r.eng.getRow(r.sMin)
		r.query = r.eng.getRow(r.cfg.LMax)
	}
	a0, _ := series.MeanStdTwoPass(r.t[:l])
	q := r.query[:l]
	var w float64
	for p, v := range r.t[:l] {
		q[p] = v - a0
		w += q[p]
	}
	head := r.rows.dots(r.rowQT, q)
	kernels.CovInputs(r.t, head, r.df[:s], r.dg[:s], r.nrm[:s], r.invStds, a0, w, l)
	r.planStats.HeadSeeds++
}

// ensureDiagScratch sizes the per-worker (corr, index) accumulators of the
// diagonal pass. They are allocated once per run at the ℓmin anchor count
// and resliced per length. Each allocation carries a 64-byte tail pad
// (capacity-clamped off the visible slice) so the last cells of one
// worker's accumulator never share a cache line with the first cells of
// the next worker's — the hottest slots sit at the small-offset end, and
// without the pad adjacent heap objects can false-share.
func (r *run) ensureDiagScratch(workers int) {
	for len(r.diagCorr) < workers {
		c := make([]float64, r.sMin+8)
		r.diagCorr = append(r.diagCorr, c[:r.sMin:r.sMin])
		ix := make([]int32, r.sMin+16)
		r.diagIdx = append(r.diagIdx, ix[:r.sMin:r.sMin])
	}
}

// processLengthIncremental resolves length l with the incremental pass:
// prepare the centred inputs (covAt), then one fused diagonal scan —
// covariance recurrence, division-free correlation, both endpoints of
// each pair updated — over the fixed diagonal-block grid. Output contract
// matches processLengthFull: the exact top-k pairs and the exact matrix
// profile (nil when the length admits no non-trivial pair).
func (r *run) processLengthIncremental(l int) (LengthResult, *profile.MatrixProfile, error) {
	s := len(r.t) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	lr := LengthResult{M: l}
	if s <= excl {
		// No non-trivial pair (hence no finite NN distance) can exist, and
		// none can at any longer length either.
		return lr, nil, nil
	}
	r.momentsAt(l)
	r.covAt(l)
	head, df, dg, nrm := r.rowQT[:s], r.df[:s], r.dg[:s], r.nrm[:s]

	blocks := diagBlocks(s, excl)
	mp, err := r.diagPass(l, excl, s, blocks, r.passWorkers(len(blocks)), func(_ int, b diagBlock, corr []float64, idx []int32) {
		kernels.CovScan(head, df, dg, nrm, b.k0, b.k1, s, corr, idx)
	})
	if err != nil {
		return lr, nil, err
	}
	lr.Pairs = mp.TopKPairsInto(r.cfg.TopK, &r.topk)
	lr.Stats.FullRecompute = true
	lr.Stats.Incremental = true
	return lr, mp, nil
}

// passWorkers is the goroutine count of a pass over nBlocks blocks:
// Workers, clamped to [1, nBlocks].
func (r *run) passWorkers(nBlocks int) int {
	workers := r.workers
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// diagPass runs one pass over the diagonal-block grid of length l: workers
// goroutines pull blocks from a shared counter and scan each into worker
// w's own (corr, index) accumulator; the accumulators are merged under the
// total order and the exact profile is assembled, the constant-window
// convention included. The moment cache must be at l.
func (r *run) diagPass(l, excl, s int, blocks []diagBlock, workers int, scan func(w int, b diagBlock, corr []float64, idx []int32)) (*profile.MatrixProfile, error) {
	r.ensureDiagScratch(workers)
	for w := 0; w < workers; w++ {
		corr, idx := r.diagCorr[w][:s], r.diagIdx[w][:s]
		for i := range corr {
			corr[i] = math.Inf(-1)
			idx[i] = -1
		}
	}

	if workers == 1 {
		corr, idx := r.diagCorr[0][:s], r.diagIdx[0][:s]
		for _, b := range blocks {
			if err := r.ctx.Err(); err != nil {
				return nil, err
			}
			scan(0, b, corr, idx)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				corr, idx := r.diagCorr[w][:s], r.diagIdx[w][:s]
				for {
					if r.ctx.Err() != nil {
						return
					}
					b := int(next.Add(1)) - 1
					if b >= len(blocks) {
						return
					}
					scan(w, blocks[b], corr, idx)
				}
			}(w)
		}
		wg.Wait()
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		r.mergeDiagLocals(workers, s)
	}

	mp := profile.New(l, excl, s)
	fl := float64(l)
	corr, idx := r.diagCorr[0][:s], r.diagIdx[0][:s]
	for i := 0; i < s; i++ {
		if idx[i] < 0 {
			continue
		}
		c := corr[i]
		if c > 1 {
			c = 1
		} else if c < -1 {
			c = -1
		}
		mp.Dist[i] = math.Sqrt(2 * fl * (1 - c))
		mp.Index[i] = int(idx[i])
	}
	if r.degCount > 0 {
		r.fixupDegenerate(mp, excl, s)
	}
	return mp, nil
}

// mergeShardAlign aligns the sharded merge's slot ranges: 16 slots × 8
// bytes is two cache lines, so no two goroutines write one line of base.
const mergeShardAlign = 16

// mergeParallelMinSlots gates the parallel merge: below it the fold is a
// few microseconds of linear memory and two goroutine handoffs would cost
// more than they save.
const mergeParallelMinSlots = 1 << 15

// mergeDiagLocals folds the worker-local accumulators into slot 0 under
// the total order (corr desc, neighbor asc), which makes the merged winner
// independent of which worker scanned which blocks AND of how this fold is
// sharded. For large anchor counts the fold runs sharded: each goroutine
// owns a disjoint slot range aligned to mergeShardAlign and folds every
// worker's local over it in one streaming pass — unlike a tree reduction
// there are no inter-round barriers and each base cell is written by
// exactly one goroutine.
func (r *run) mergeDiagLocals(workers, s int) {
	base, bidx := r.diagCorr[0][:s], r.diagIdx[0][:s]
	fold := func(lo, hi int) {
		for w := 1; w < workers; w++ {
			wc, wi := r.diagCorr[w][:s], r.diagIdx[w][:s]
			for i := lo; i < hi; i++ {
				if wi[i] < 0 {
					continue
				}
				if wc[i] > base[i] || (wc[i] == base[i] && wi[i] < bidx[i]) {
					base[i], bidx[i] = wc[i], wi[i]
				}
			}
		}
	}
	if s < mergeParallelMinSlots || workers < 2 {
		fold(0, s)
		return
	}
	shard := (s + workers - 1) / workers
	shard = (shard + mergeShardAlign - 1) &^ (mergeShardAlign - 1)
	var wg sync.WaitGroup
	for lo := 0; lo < s; lo += shard {
		hi := lo + shard
		if hi > s {
			hi = s
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fold(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// The diagonal scan itself lives in kernels.CovScan (shared, interleaved,
// parity-tested against kernels.RefCovScan): each diagonal starts from
// its head cell, advances with the covariance recurrence, and each cell's
// division-free correlation updates the best-so-far of both endpoints
// under the total order (corr desc, neighbor asc). A degenerate endpoint
// (σ = 0, inv = 0) zeroes the correlation, which matches the
// one-constant-window convention d = √(2ℓ); the both-constant-windows case
// (d = 0) is restored by fixupDegenerate.

// fixupDegenerate restores the constant-window convention the fused
// correlation kernel cannot express: two degenerate (σ = 0) subsequences
// are at distance 0 of each other, which beats the √(2ℓ) every candidate
// contributed through the zeroed correlation. The winner is the smallest
// qualifying degenerate offset — the same index the ascending scalar scan
// of the recompute path selects.
func (r *run) fixupDegenerate(mp *profile.MatrixProfile, excl, s int) {
	r.degs = applyDegenerateFixup(mp, r.invStds[:s], excl, r.degs[:0])
}

// applyDegenerateFixup is the shared implementation of the constant-window
// convention, used by both the batch run above and the streaming engine's
// snapshot materialization (stream.go) so the two can never drift. degs is
// caller scratch; the (reused) slice is returned.
func applyDegenerateFixup(mp *profile.MatrixProfile, invs []float64, excl int, degs []int) []int {
	for i, inv := range invs {
		if inv == 0 {
			degs = append(degs, i)
		}
	}
	for _, i := range degs {
		for _, j := range degs {
			if j > i-excl && j < i+excl {
				continue
			}
			mp.Dist[i] = 0
			mp.Index[i] = j
			break // degs ascend, so the first qualifying j is the smallest
		}
	}
	return degs
}
