//go:build amd64

package kernels

import "math/bits"

// The AVX-512 dispatch tier, amd64 side. Two kernels have bodies of their
// own: DiagScan, whose diagSteps16 advances sixteen diagonals per step
// under the stop protocol of avx2_amd64.go, returning the stop row with a
// lane mask so Go applies only the flagged lanes; and DotRow, whose
// dotRowBlocks32 sums thirty-two cells per block. Every other kernel
// dispatches to its avx2 body.

// diagSteps16 is diagSteps4 over sixteen chains qt[0..15] (diagonals
// k..k+15 of a group, advanced together in two ZMM vectors of eight): over
// cells i ∈ [i0, n), qt += ta[i]·w[i+x] − tb[i−1]·u[i+x] per lane x, then
// c = (qt·invFl − mi[i]·mj[i+x])·vi[i]·vj[i+x]. It returns at the first i
// where any lane satisfies c ≥ ci[i] or c ≥ cj[i+x] (qt advanced to that
// cell and stored back; bit x of mask set for each such lane), or at n
// with mask 0.
//
//go:noescape
func diagSteps16(qt, w, u, ta, tb, mi, vi, mj, vj, ci, cj *float64, invFl float64, i0, n int) (stop, mask int)

// diagScanAVX512 runs groups of sixteen diagonals through diagSteps16; a
// block's remainder runs the avx2 quad path, then the scalar path.
func diagScanAVX512(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32) {
	invFl := 1 / float64(l)
	k := k0
	for ; k+16 <= k1; k += 16 {
		diagGroup16(t, head, means, invs, k, l, s, invFl, corr, idx)
	}
	diagScanAVX2(t, head, means, invs, k, k1, l, s, corr, idx)
}

// diagGroup16 mirrors diagQuadAVX2 at sixteen diagonals k..k+15: scalar
// head cells, the common range through the diagSteps16 stop protocol,
// scalar tails resuming from the carried chains.
func diagGroup16(t, head, means, invs []float64, k, l, s int, invFl float64, corr []float64, idx []int32) {
	var qt [16]float64
	copy(qt[:], head[k:k+16])
	for x, q := range qt {
		c := (q*invFl - means[0]*means[k+x]) * invs[0] * invs[k+x]
		update(corr, idx, 0, c, int32(k+x))
		update(corr, idx, k+x, c, 0)
	}
	m := s - k - 16 // common cells are i ∈ [1, m]; m ≥ 0 since k+16 ≤ s
	if m >= 1 {
		w := t[k+l-1:]
		u := t[k-1:]
		ta := t[l-1:]
		mj := means[k:]
		vj := invs[k:]
		cj := corr[k:]
		n := m + 1
		for i := 1; i < n; i++ {
			stop, mask := diagSteps16(&qt[0], &w[0], &u[0], &ta[0], &t[0],
				&means[0], &invs[0], &mj[0], &vj[0], &corr[0], &cj[0],
				invFl, i, n)
			if stop >= n {
				break
			}
			i = stop
			// Recompute the flagged lanes from the carried chains — scalar,
			// same expression, bit-identical to the vector lanes — and apply
			// them through the winner rule. An unflagged lane is below both
			// of its slots, which only grow, so it can change neither.
			m0, v0 := means[i], invs[i]
			for ; mask != 0; mask &= mask - 1 {
				x := bits.TrailingZeros(uint(mask))
				j := i + k + x
				c := (qt[x]*invFl - m0*means[j]) * v0 * invs[j]
				update(corr, idx, i, c, int32(j))
				update(corr, idx, j, c, int32(i))
			}
		}
	}
	for x, q := range qt {
		diagOneTail(t, means, invs, q, k+x, l, s, invFl, corr, idx, m)
	}
}

// dotRowBlocks32 is dotRowBlocks16 at thirty-two cells per block: for
// b ∈ [0, nb), row[32b+c] = Σ_{p<l} q[p]·x[32b+c+p], c ∈ [0, 32), each
// lane summed from zero in ascending p.
//
//go:noescape
func dotRowBlocks32(row, q, x *float64, l, nb int)

// dotRowAVX512 writes DotRow's cells in blocks of thirty-two through
// dotRowBlocks32; the rest (fewer than thirty-two cells) run the avx2
// body.
func dotRowAVX512(row, t []float64, i, l, s int) {
	j0 := 0
	if nb := s / 32; nb > 0 && l > 0 {
		q := t[i : i+l]
		x := t[0 : 32*nb+l-1] // the blocks read up to x[32nb−1+l−1]
		r := row[0 : 32*nb]
		dotRowBlocks32(&r[0], &q[0], &x[0], l, nb)
		j0 = 32 * nb
	}
	dotRowAVX2(row, t, i, l, j0, s)
}
