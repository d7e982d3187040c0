//go:build amd64

package kernels

// The AVX-512 dispatch tier, amd64 side. Three kernels have bodies of
// their own: CovScan, whose diagRun16 advances sixteen diagonals per step
// over a group's whole common range in one call and, at a row where a lane
// reaches a slot, applies the winner updates itself — the one routine
// that writes winner state outside Go, so a stop costs a few vector
// instructions instead of a return to Go; SeedScan, whose seedSteps16
// advances sixteen diagonals per step under the avx2 tier's stop protocol,
// because nearly every one of its stops carries a list offer that only
// TopLists.Offer, in Go, applies; and DotRow, whose dotRowBlocks32 sums
// thirty-two cells per block. Every other kernel dispatches to its avx2
// body.

// diagRun16 runs the covariance chains cov[0..15] of diagonals k..k+15
// (two ZMM vectors of eight) over cells i ∈ [i0, i1):
// cov += df[i]·dgj[i+x] + dg[i]·dfj[i+x], then c = (cov·nr[i])·nrj[i+x].
// At a row where some lane has c ≥ ci[i] or c ≥ cj[i+x] it applies the
// winner rule itself, to slot i (ci, ii) and to each lane's slot
// j = i+k+x (cj, ij), and runs on; the chains are stored back to cov at
// i1.
//
//go:noescape
func diagRun16(cov, df, dg, nr, dfj, dgj, nrj, ci, cj *float64, ii, ij *int32, i0, i1, k int)

// covScanAVX512 runs groups of sixteen diagonals through diagRun16; a
// block's remainder runs the avx2 quad path, then the scalar path.
func covScanAVX512(cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32) {
	k := k0
	for ; k+16 <= k1; k += 16 {
		diagGroup16(cov, df, dg, nrm, k, s, corr, idx)
	}
	covScanAVX2(cov, df, dg, nrm, k, k1, s, corr, idx)
}

// diagGroup16 mirrors diagQuadAVX2 at sixteen diagonals k..k+15: scalar
// head cells, the common range in one diagRun16 call, scalar tails
// resuming from the carried chains.
func diagGroup16(cov, df, dg, nrm []float64, k, s int, corr []float64, idx []int32) {
	var v, c [16]float64
	copy(v[:], cov[k:k+16])
	for x, vx := range v {
		c[x] = vx * nrm[0] * nrm[k+x]
	}
	diagHeads(c[:], k, corr, idx)
	m := s - k - 16 // common cells are i ∈ [1, m]; m ≥ 0 since k+16 ≤ s
	if m >= 1 {
		diagRun16(&v[0], &df[0], &dg[0], &nrm[0], &df[k], &dg[k], &nrm[k],
			&corr[0], &corr[k], &idx[0], &idx[k], 1, m+1, k)
	}
	for x, vx := range v {
		diagOneTail(df, dg, nrm, vx, k+x, s, corr, idx, m)
	}
}

// seedSteps16 is seedSteps4 at sixteen lanes: the chains qt[0..15] of
// diagonals k..k+15 (two ZMM vectors) advance over cells i ∈ [i0, n) and
// it returns at the first i where any lane flags one of seedSteps4's four
// conditions, with the conditions' lane masks in bits 0–15, 16–31, 32–47
// and 48–63 of mask, or at n with mask 0.
//
//go:noescape
func seedSteps16(qt, t, means, invs, corr, thr *float64, k, l int, invFl float64, i0, n int) (stop int, mask uint64)

// seedScanAVX512 runs groups of sixteen diagonals through seedSteps16; a
// block's remainder runs the avx2 quad path, then the scalar path.
func seedScanAVX512(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32, top *TopLists) {
	invFl := 1 / float64(l)
	k := k0
	for ; k+16 <= k1; k += 16 {
		seedGroup16(t, head, means, invs, k, l, s, invFl, corr, idx, top)
	}
	seedScanAVX2(t, head, means, invs, k, k1, l, s, corr, idx, top)
}

// seedGroup16 mirrors seedQuadAVX2 at sixteen diagonals k..k+15: scalar
// head cells, the common range through the seedSteps16 stop protocol,
// scalar tails resuming from the carried chains.
func seedGroup16(t, head, means, invs []float64, k, l, s int, invFl float64, corr []float64, idx []int32, top *TopLists) {
	var qt [16]float64
	copy(qt[:], head[k:k+16])
	for x, q := range qt {
		seedCell(means, invs, q, 0, k+x, invFl, corr, idx, top)
	}
	m := s - k - 16 // common cells are i ∈ [1, m]; m ≥ 0 since k+16 ≤ s
	for i, n := 1, m+1; i < n; i++ {
		stop, mask := seedSteps16(&qt[0], &t[0], &means[0], &invs[0], &corr[0], &top.Thr[0], k, l, invFl, i, n)
		if stop >= n {
			break
		}
		i = stop
		seedLanes(means, invs, qt[:], i, k, invFl, corr, idx, top, mask)
	}
	for x, q := range qt {
		seedTail(t, means, invs, q, k+x, l, s, invFl, corr, idx, top, m)
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
func dotRowAVX512(row, t, q []float64, s int) {
	l := len(q)
	j0 := 0
	if nb := s / 32; nb > 0 && l > 0 {
		x := t[0 : 32*nb+l-1] // the blocks read up to x[32nb−1+l−1]
		r := row[0 : 32*nb]
		dotRowBlocks32(&r[0], &q[0], &x[0], l, nb)
		j0 = 32 * nb
	}
	dotRowAVX2(row, t, q, j0, s)
}
