//go:build amd64

package kernels

import (
	"math"
	"math/bits"
)

// The AVX2 dispatch tier, amd64 side: thin Go orchestration around the
// assembly routines in kernels_amd64.s. Division of labor:
//
//   - Pure arithmetic (RowNext, DotRow) runs entirely in four-lane
//     assembly; remainders shorter than a vector run the identical scalar
//     expressions here.
//   - Winner selection stays in Go. The row, column, diagonal and seed
//     steppers use a stop protocol: assembly computes four lanes per
//     step — a group of four cells of a row or column, or one cell on
//     each of four interleaved diagonal chains — and returns at the
//     first step where any lane's correlation reaches a slot's current
//     winner (a conservative superset of the cells that actually update,
//     since slot values only ever grow), beats the running best of a row
//     or column scan (exactly that update), or has a square reaching a
//     candidate list's threshold. Go recomputes that step's lanes in
//     scalar, applies the exact sequential compare-updates and list
//     offers, and re-enters at the next step. This tier's assembly never
//     writes winner state; only the avx512 CovScan body does
//     (avx512_amd64.go).
//
// None of the assembly uses FMA: fused multiply-adds round differently
// from the separate multiply and add the generic tier performs, and
// bit-identity across tiers is a hard contract.

// rowNextBlocks processes p = hi … lo (inclusive, descending, hi−lo+1 a
// multiple of 4): r[p+1] = r[p] + tail·a[p] − head·b[p], four lanes at a
// time, all group loads before group stores.
//
//go:noescape
func rowNextBlocks(r, a, b *float64, tail, head float64, lo, hi int)

// rowSteps4 walks groups of four cells j = j0, j0+4, … < n (n − j0 a
// multiple of 4), computing c = (r[j]·invFl − muA·m[j])·invA·v[j], and
// returns the first group start where any lane has c > best or
// c² ≥ thr, or n if no group triggers.
//
//go:noescape
func rowSteps4(r, m, v *float64, invFl, muA, invA, best, thr float64, j0, n int) int

// colSteps4 walks groups of four cells i = i0, i0+4, … < n (n − i0 a
// multiple of 4), computing c = (col[i]·invFl − m[i]·muJ)·v[i]·invJ, and
// returns the first group start where any lane has c ≥ corr[i] or
// c > best, or n if no group triggers.
//
//go:noescape
func colSteps4(col, m, v, corr *float64, invFl, muJ, invJ, best float64, i0, n int) int

// diagSteps4 advances the four interleaved covariance chains cov[0..3]
// over cells i ∈ [i0, i1): cov += df[i]·dgj[i+x] + dg[i]·dfj[i+x] per
// lane x, then c = (cov·nr[i])·nrj[i+x]. It returns at the first i where
// any lane satisfies c ≥ ci[i] or c ≥ cj[i+x] (cov already advanced to
// that cell, lanes stored back), or i1 if no cell triggers.
//
//go:noescape
func diagSteps4(cov, df, dg, nr, dfj, dgj, nrj, ci, cj *float64, i0, i1 int) int

// dotRowBlocks16 writes DotRow's cells in blocks of sixteen: for
// b ∈ [0, nb), row[16b+c] = Σ_{p<l} q[p]·x[16b+c+p], c ∈ [0, 16), each
// lane summed from zero in ascending p.
//
//go:noescape
func dotRowBlocks16(row, q, x *float64, l, nb int)

func rowNextAVX2(row, t []float64, i, l, s int) {
	if s < 2 {
		return
	}
	tail := t[i+l-1]
	head := t[i-1]
	a := t[l : l+s-1]
	b := t[0 : s-1]
	r := row[0:s]
	lo := (s - 1) % 4
	if s-1-lo > 0 {
		rowNextBlocks(&r[0], &a[0], &b[0], tail, head, lo, s-2)
	}
	for p := lo - 1; p >= 0; p-- {
		r[p+1] = r[p] + float64(tail*a[p]) - float64(head*b[p])
	}
}

// dotRowAVX2 writes cells [j0, s) of DotRow: blocks of sixteen through
// dotRowBlocks16, the rest (fewer than sixteen cells) through the generic
// body.
func dotRowAVX2(row, t, q []float64, j0, s int) {
	l := len(q)
	nb := (s - j0) / 16
	if nb > 0 && l > 0 {
		x := t[j0 : j0+16*nb+l-1] // the blocks read up to x[16nb−1+l−1]
		r := row[j0 : j0+16*nb]
		dotRowBlocks16(&r[0], &q[0], &x[0], l, nb)
		j0 += 16 * nb
	}
	dotRowGeneric(row, t, q, j0, s)
}

// rowScanAVX2 drives [j0, j1) through the rowSteps4 stop protocol, with
// the list threshold read before each call. A stopped group and the
// scalar tail (fewer than four cells) run rowScanGeneric, whose scalar
// expression is bit-identical to the vector lanes, in ascending j. A
// group that did not stop changes nothing: no lane beat the running best
// it entered with, and no lane's c² reached the threshold.
func rowScanAVX2(row, means, invs []float64, j0, j1 int, invFl, muA, invA float64, bestCorr float64, bestJ int, top *TopLists) (float64, int) {
	if j1 <= j0 {
		return bestCorr, bestJ
	}
	r := row[j0:j1]
	m := means[j0:j1]
	m = m[:len(r)]
	v := invs[j0:j1]
	v = v[:len(r)]
	nv := len(r) &^ 3
	for x := 0; x < len(r); {
		if x < nv {
			thr := math.Inf(1)
			if top != nil {
				thr = top.Thr[0]
			}
			x = rowSteps4(&r[0], &m[0], &v[0], invFl, muA, invA, bestCorr, thr, x, nv)
		}
		end := min(x+4, len(r))
		bestCorr, bestJ = rowScanGeneric(row, means, invs, j0+x, j0+end, invFl, muA, invA, bestCorr, bestJ, top)
		x = end
	}
	return bestCorr, bestJ
}

// colScanAVX2 drives the vector range through the colSteps4 stop
// protocol. A stopped group and the scalar tail (fewer than four cells)
// run the same scalar expression — bit-identical to the vector lanes —
// and the sequential compare-updates of colScanGeneric, in ascending i.
// A group that did not stop changes nothing: no lane reached its slot,
// and none beat the running best it entered with.
func colScanAVX2(col, means, invs []float64, iEnd int, invFl, muJ, invJ float64, corr []float64, idx []int32, j int32, bestCorr float64, bestIdx int32) (float64, int32) {
	if iEnd <= 0 {
		return bestCorr, bestIdx
	}
	cl := col[0:iEnd]
	m := means[0:iEnd]
	m = m[:len(cl)]
	v := invs[0:iEnd]
	v = v[:len(cl)]
	cr := corr[0:iEnd]
	cr = cr[:len(cl)]
	ix := idx[0:iEnd]
	ix = ix[:len(cl)]
	nv := len(cl) &^ 3
	for i := 0; i < len(cl); {
		if i < nv {
			i = colSteps4(&cl[0], &m[0], &v[0], &cr[0], invFl, muJ, invJ, bestCorr, i, nv)
		}
		end := i + 4
		if end > len(cl) {
			end = len(cl)
		}
		for ; i < end; i++ {
			c := (float64(cl[i]*invFl) - float64(m[i]*muJ)) * v[i] * invJ
			if c > cr[i] || (c == cr[i] && j < ix[i]) {
				cr[i], ix[i] = c, j
			}
			if c > bestCorr {
				bestCorr, bestIdx = c, int32(i)
			}
		}
	}
	return bestCorr, bestIdx
}

func covScanAVX2(cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32) {
	k := k0
	for ; k+4 <= k1; k += 4 {
		diagQuadAVX2(cov, df, dg, nrm, k, s, corr, idx)
	}
	for ; k < k1; k++ {
		diagOne(df, dg, nrm, cov[k], k, s, corr, idx)
	}
}

// diagQuadAVX2 mirrors diagQuad: identical head-row handling and tails,
// with the common range driven through the diagSteps4 stop protocol.
func diagQuadAVX2(cov, df, dg, nrm []float64, k, s int, corr []float64, idx []int32) {
	var v [4]float64
	copy(v[:], cov[k:k+4])
	n0 := nrm[0]
	diagHeads([]float64{v[0] * n0 * nrm[k], v[1] * n0 * nrm[k+1], v[2] * n0 * nrm[k+2], v[3] * n0 * nrm[k+3]}, k, corr, idx)

	m := s - k - 4
	if m >= 1 {
		fj, gj, nj, cj := df[k:], dg[k:], nrm[k:], corr[k:]
		n := m + 1 // common cells are i ∈ [1, m]
		for i := 1; i < n; i++ {
			hit := diagSteps4(&v[0], &df[0], &dg[0], &nrm[0], &fj[0], &gj[0], &nj[0], &corr[0], &cj[0], i, n)
			if hit >= n {
				break
			}
			i = hit
			// Recompute the lane correlations from the carried chains —
			// scalar, same expression, bit-identical to the vector lanes —
			// and apply the exact sequential compare-updates of diagQuad.
			ni := nrm[i]
			for x, vx := range v {
				c := vx * ni * nj[i+x]
				update(corr, idx, i, c, int32(i+k+x))
				update(corr, idx, k+i+x, c, int32(i))
			}
		}
	}

	m = max(m, 0)
	for x, vx := range v {
		diagOneTail(df, dg, nrm, vx, k+x, s, corr, idx, m)
	}
}

// seedSteps4 is SeedScan's stepper: the four raw dot-product chains
// qt[0..3] of diagonals k..k+3 advance over cells i ∈ [i0, n) with the
// in-length recurrence, and each lane computes the correlation c of its
// cell (i, j = i+k+x) and squares it, the key of both offers. It returns at the first i where any lane has
// c ≥ corr[i], c ≥ corr[j], c² ≥ thr[i] or c² ≥ thr[j] (chains advanced
// to that cell and stored back; the four conditions' lane masks in bits
// 0–3, 4–7, 8–11 and 12–15 of mask), or at n with mask 0. Slots and
// thresholds only ever grow, so every flagged set is a superset of the
// cells that change state.
//
//go:noescape
func seedSteps4(qt, t, means, invs, corr, thr *float64, k, l int, invFl float64, i0, n int) (stop, mask int)

func seedScanAVX2(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32, top *TopLists) {
	invFl := 1 / float64(l)
	k := k0
	for ; k+4 <= k1; k += 4 {
		seedQuadAVX2(t, head, means, invs, k, l, s, invFl, corr, idx, top)
	}
	for ; k < k1; k++ {
		seedCell(means, invs, head[k], 0, k, invFl, corr, idx, top)
		seedTail(t, means, invs, head[k], k, l, s, invFl, corr, idx, top, 0)
	}
}

// seedQuadAVX2 mirrors diagQuadAVX2: scalar head cells, the common range
// through the seedSteps4 stop protocol, scalar tails resuming from the
// carried chains.
func seedQuadAVX2(t, head, means, invs []float64, k, l, s int, invFl float64, corr []float64, idx []int32, top *TopLists) {
	var qt [4]float64
	for x := range qt {
		qt[x] = head[k+x]
		seedCell(means, invs, qt[x], 0, k+x, invFl, corr, idx, top)
	}
	m := s - k - 4
	if m >= 1 {
		n := m + 1 // common cells are i ∈ [1, m]
		for i := 1; i < n; i++ {
			stop, mask := seedSteps4(&qt[0], &t[0], &means[0], &invs[0], &corr[0], &top.Thr[0], k, l, invFl, i, n)
			if stop >= n {
				break
			}
			i = stop
			seedLanes(means, invs, qt[:], i, k, invFl, corr, idx, top, uint64(mask))
		}
	}
	if m < 0 {
		m = 0
	}
	for x := range qt {
		seedTail(t, means, invs, qt[x], k+x, l, s, invFl, corr, idx, top, m)
	}
}

// seedLanes applies the lanes a seed stepper flagged at row i on the
// len(qt) diagonals k, k+1, …: condition b's lane mask sits in bits
// [b·len(qt), (b+1)·len(qt)) of mask, in seedSteps4's order. Each flagged
// lane's correlation is recomputed in scalar from its carried chain —
// the same expression, bit-identical to the vector lanes — and applied
// through the winner rule and, as both offers' key, the list rule, in
// ascending lane order.
func seedLanes(means, invs, qt []float64, i, k int, invFl float64, corr []float64, idx []int32, top *TopLists, mask uint64) {
	w := len(qt)
	all := uint64(1)<<w - 1
	slots := (mask | mask>>w) & all // c ≥ corr[i] or c ≥ corr[j]
	toI := mask >> (2 * w) & all    // offer j to anchor i
	toJ := mask >> (3 * w) & all    // offer i to anchor j
	mi, vi := means[i], invs[i]
	for lanes := slots | toI | toJ; lanes != 0; lanes &= lanes - 1 {
		x := bits.TrailingZeros64(lanes)
		bit := uint64(1) << x
		q := qt[x]
		j := i + k + x
		c := (float64(q*invFl) - float64(mi*means[j])) * vi * invs[j]
		if slots&bit != 0 {
			update(corr, idx, i, c, int32(j))
			update(corr, idx, j, c, int32(i))
		}
		if toI&bit != 0 {
			top.Offer(i, int32(j), q, c)
		}
		if toJ&bit != 0 {
			top.Offer(j, int32(i), q, c)
		}
	}
}
