package kernels

import "math"

// The generic dispatch tier: the portable kernels, the default wherever
// AVX2 is missing. The Ref* parity suite certifies them bit-for-bit, as it
// does the avx2 tier.

// rowNextGeneric is RowNext, 4-way unrolled.
func rowNextGeneric(row, t []float64, i, l, s int) {
	if s < 2 {
		return
	}
	tail := t[i+l-1]
	head := t[i-1]
	// Shift to p = j−1: row[p+1] = row[p] + tail·a[p] − head·b[p] with
	// a[p] = t[p+l], b[p] = t[p]. Hoisted sub-slices of exact length s−1
	// let the compiler drop the per-cell bounds checks.
	a := t[l : l+s-1]
	b := t[0 : s-1]
	r := row[0:s]
	p := s - 2
	for ; p >= 3; p -= 4 {
		r0 := r[p] + float64(tail*a[p]) - float64(head*b[p])
		r1 := r[p-1] + float64(tail*a[p-1]) - float64(head*b[p-1])
		r2 := r[p-2] + float64(tail*a[p-2]) - float64(head*b[p-2])
		r3 := r[p-3] + float64(tail*a[p-3]) - float64(head*b[p-3])
		r[p+1] = r0
		r[p] = r1
		r[p-1] = r2
		r[p-2] = r3
	}
	for ; p >= 0; p-- {
		r[p+1] = r[p] + float64(tail*a[p]) - float64(head*b[p])
	}
}

// rowScanGeneric is RowScan over one contiguous range [j0, j1), in
// ascending j: each cell's correlation moves the running best on strict
// improvement, and goes to top's list 0 when its square reaches the
// list's threshold. Groups of four in which no cell does either are
// skipped with one combined test, the avx2 stepper's protocol in Go;
// the cells of the group that stops it, and the tail, run the cell rule.
// The avx2 tier runs it on the groups its stepper stops at, so it is the
// one Go definition of the row scan's cell rule.
func rowScanGeneric(row, means, invs []float64, j0, j1 int, invFl, muA, invA float64, bestCorr float64, bestJ int, top *TopLists) (float64, int) {
	if j1 <= j0 {
		return bestCorr, bestJ
	}
	r := row[j0:j1]
	m := means[j0:j1]
	m = m[:len(r)] // equal-length facts for BCE (panics on violated preconditions)
	v := invs[j0:j1]
	v = v[:len(r)]
	thr := math.Inf(1)
	if top != nil {
		thr = top.Thr[0]
	}
	for x := 0; x < len(r); {
		for ; x+4 <= len(r); x += 4 {
			c0 := (float64(r[x]*invFl) - float64(muA*m[x])) * invA * v[x]
			c1 := (float64(r[x+1]*invFl) - float64(muA*m[x+1])) * invA * v[x+1]
			c2 := (float64(r[x+2]*invFl) - float64(muA*m[x+2])) * invA * v[x+2]
			c3 := (float64(r[x+3]*invFl) - float64(muA*m[x+3])) * invA * v[x+3]
			if c0 > bestCorr || c1 > bestCorr || c2 > bestCorr || c3 > bestCorr ||
				c0*c0 >= thr || c1*c1 >= thr || c2*c2 >= thr || c3*c3 >= thr {
				break
			}
		}
		for end := min(x+4, len(r)); x < end; x++ {
			c := (float64(r[x]*invFl) - float64(muA*m[x])) * invA * v[x]
			if c > bestCorr {
				bestCorr, bestJ = c, j0+x
			}
			if c*c >= thr && top != nil {
				top.Offer(0, int32(j0+x), r[x], c)
				thr = top.Thr[0]
			}
		}
	}
	return bestCorr, bestJ
}

// dotRowGeneric writes cells [j0, s) of DotRow with the sums of eight
// adjacent cells interleaved: one cell's sum is a serial chain, eight
// independent chains overlap. Each chain still adds its terms in
// ascending p from zero, bit-identical to the one-cell loop.
func dotRowGeneric(row, t, q []float64, j0, s int) {
	l := len(q)
	j := j0
	for ; j+8 <= s; j += 8 {
		w := t[j : j+l+7] // cell j+d's term p reads w[p+d]
		var v0, v1, v2, v3, v4, v5, v6, v7 float64
		for p, qv := range q {
			x := w[p : p+8]
			v0 += float64(qv * x[0])
			v1 += float64(qv * x[1])
			v2 += float64(qv * x[2])
			v3 += float64(qv * x[3])
			v4 += float64(qv * x[4])
			v5 += float64(qv * x[5])
			v6 += float64(qv * x[6])
			v7 += float64(qv * x[7])
		}
		r := row[j : j+8]
		r[0], r[1], r[2], r[3] = v0, v1, v2, v3
		r[4], r[5], r[6], r[7] = v4, v5, v6, v7
	}
	for ; j < s; j++ {
		w := t[j : j+l]
		var v float64
		for p, qv := range q {
			v += float64(qv * w[p])
		}
		row[j] = v
	}
}

// colScanGeneric is ColScan, 4-way unrolled with sequential compare-updates.
func colScanGeneric(col, means, invs []float64, iEnd int, invFl, muJ, invJ float64, corr []float64, idx []int32, j int32, bestCorr float64, bestIdx int32) (float64, int32) {
	if iEnd <= 0 {
		return bestCorr, bestIdx
	}
	// Hoisted equal-length sub-slices let the compiler drop the per-cell
	// bounds checks (they panic on violated preconditions, as intended).
	cl := col[0:iEnd]
	m := means[0:iEnd]
	m = m[:len(cl)]
	v := invs[0:iEnd]
	v = v[:len(cl)]
	cr := corr[0:iEnd]
	cr = cr[:len(cl)]
	ix := idx[0:iEnd]
	ix = ix[:len(cl)]
	i := 0
	for ; i+4 <= len(cl); i += 4 {
		c0 := (float64(cl[i]*invFl) - float64(m[i]*muJ)) * v[i] * invJ
		c1 := (float64(cl[i+1]*invFl) - float64(m[i+1]*muJ)) * v[i+1] * invJ
		c2 := (float64(cl[i+2]*invFl) - float64(m[i+2]*muJ)) * v[i+2] * invJ
		c3 := (float64(cl[i+3]*invFl) - float64(m[i+3]*muJ)) * v[i+3] * invJ
		if c0 > cr[i] || (c0 == cr[i] && j < ix[i]) {
			cr[i], ix[i] = c0, j
		}
		if c1 > cr[i+1] || (c1 == cr[i+1] && j < ix[i+1]) {
			cr[i+1], ix[i+1] = c1, j
		}
		if c2 > cr[i+2] || (c2 == cr[i+2] && j < ix[i+2]) {
			cr[i+2], ix[i+2] = c2, j
		}
		if c3 > cr[i+3] || (c3 == cr[i+3] && j < ix[i+3]) {
			cr[i+3], ix[i+3] = c3, j
		}
		// Sequential compare-updates in ascending i keep the first maximum
		// (= smallest neighbor on exact ties), matching the total order.
		if c0 > bestCorr {
			bestCorr, bestIdx = c0, int32(i)
		}
		if c1 > bestCorr {
			bestCorr, bestIdx = c1, int32(i+1)
		}
		if c2 > bestCorr {
			bestCorr, bestIdx = c2, int32(i+2)
		}
		if c3 > bestCorr {
			bestCorr, bestIdx = c3, int32(i+3)
		}
	}
	for ; i < len(cl); i++ {
		c := (float64(cl[i]*invFl) - float64(m[i]*muJ)) * v[i] * invJ
		if c > cr[i] || (c == cr[i] && j < ix[i]) {
			cr[i], ix[i] = c, j
		}
		if c > bestCorr {
			bestCorr, bestIdx = c, int32(i)
		}
	}
	return bestCorr, bestIdx
}

// covScanGeneric is CovScan with the 4-diagonal interleave.
func covScanGeneric(cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32) {
	k := k0
	for ; k+4 <= k1; k += 4 {
		diagQuad(cov, df, dg, nrm, k, s, corr, idx)
	}
	for ; k < k1; k++ {
		diagOne(df, dg, nrm, cov[k], k, s, corr, idx)
	}
}

// diagOne streams one whole diagonal k from its head cell v = cov(0, k).
func diagOne(df, dg, nrm []float64, v float64, k, s int, corr []float64, idx []int32) {
	c := v * nrm[0] * nrm[k]
	update(corr, idx, 0, c, int32(k))
	update(corr, idx, k, c, 0)
	diagOneTail(df, dg, nrm, v, k, s, corr, idx, 0)
}

// diagHeads applies the head cells (0, k+x) of a group of len(c)
// diagonals with correlations c: slot 0 takes their first maximum (the
// smallest j on ties), each slot k+x its own cell.
func diagHeads(c []float64, k int, corr []float64, idx []int32) {
	bc, bj := c[0], int32(k)
	for x, cx := range c {
		if cx > bc {
			bc, bj = cx, int32(k+x)
		}
		update(corr, idx, k+x, cx, 0)
	}
	update(corr, idx, 0, bc, bj)
}

// diagQuad interleaves diagonals k, k+1, k+2, k+3: the four covariance
// chains advance together over their common cell range, then each
// diagonal's leftover tail finishes on the scalar path, resuming from the
// carried chain value.
func diagQuad(cov, df, dg, nrm []float64, k, s int, corr []float64, idx []int32) {
	v0, v1, v2, v3 := cov[k], cov[k+1], cov[k+2], cov[k+3]
	n0 := nrm[0]
	diagHeads([]float64{v0 * n0 * nrm[k], v1 * n0 * nrm[k+1], v2 * n0 * nrm[k+2], v3 * n0 * nrm[k+3]}, k, corr, idx)

	// Common range: every i with all four diagonals still in bounds
	// (i + k+3 ≤ s−1). Every array is hoisted into a sub-slice of exactly
	// the common length so the compiler can prove all indexes in range.
	m := s - k - 4
	{
		fj := df[k:s] // fj[i+x] = df[j+x]
		gj := dg[k:s]
		gj = gj[:len(fj)]
		nj := nrm[k:s]
		nj = nj[:len(fj)]
		fi := df[0 : s-k]
		fi = fi[:len(fj)]
		gi := dg[0 : s-k]
		gi = gi[:len(fj)]
		ni := nrm[0 : s-k]
		ni = ni[:len(fj)]
		ci := corr[0 : s-k]
		ci = ci[:len(fj)]
		ii := idx[0 : s-k]
		ii = ii[:len(fj)]
		cj := corr[k:s]
		cj = cj[:len(fj)]
		ij := idx[k:s]
		ij = ij[:len(fj)]
		for i := 1; i+4 <= len(fj); i++ {
			f, g, n := fi[i], gi[i], ni[i]
			v0 += float64(f*gj[i]) + float64(g*fj[i])
			v1 += float64(f*gj[i+1]) + float64(g*fj[i+1])
			v2 += float64(f*gj[i+2]) + float64(g*fj[i+2])
			v3 += float64(f*gj[i+3]) + float64(g*fj[i+3])
			c0 := v0 * n * nj[i]
			c1 := v1 * n * nj[i+1]
			c2 := v2 * n * nj[i+2]
			c3 := v3 * n * nj[i+3]
			j := int32(i + k)
			// Sequential compare-updates, ascending j: each branch is
			// almost always not-taken (predictable), unlike a pairwise
			// max reduction whose branches are data-random. One compare
			// on the common path: c ≥ cur implies c == cur when c > cur
			// fails (no NaNs reach here), so the tie-break only runs on
			// the rare improving path.
			if c0 >= ci[i] {
				if c0 > ci[i] || j < ii[i] {
					ci[i], ii[i] = c0, j
				}
			}
			if c1 >= ci[i] {
				if c1 > ci[i] || j+1 < ii[i] {
					ci[i], ii[i] = c1, j+1
				}
			}
			if c2 >= ci[i] {
				if c2 > ci[i] || j+2 < ii[i] {
					ci[i], ii[i] = c2, j+2
				}
			}
			if c3 >= ci[i] {
				if c3 > ci[i] || j+3 < ii[i] {
					ci[i], ii[i] = c3, j+3
				}
			}
			a := int32(i)
			if c0 >= cj[i] {
				if c0 > cj[i] || a < ij[i] {
					cj[i], ij[i] = c0, a
				}
			}
			if c1 >= cj[i+1] {
				if c1 > cj[i+1] || a < ij[i+1] {
					cj[i+1], ij[i+1] = c1, a
				}
			}
			if c2 >= cj[i+2] {
				if c2 > cj[i+2] || a < ij[i+2] {
					cj[i+2], ij[i+2] = c2, a
				}
			}
			if c3 >= cj[i+3] {
				if c3 > cj[i+3] || a < ij[i+3] {
					cj[i+3], ij[i+3] = c3, a
				}
			}
		}
	}

	// Tails: diagonals k, k+1, k+2 have 3, 2, 1 cells left past the common
	// range (diagonal k+3 ended exactly at i = m). Each resumes from its
	// carried chain value at the last visited cell. When m = 0 the common
	// loop never ran and the chains resume from the head cells themselves.
	m = max(m, 0)
	diagOneTail(df, dg, nrm, v0, k, s, corr, idx, m)
	diagOneTail(df, dg, nrm, v1, k+1, s, corr, idx, m)
	diagOneTail(df, dg, nrm, v2, k+2, s, corr, idx, m)
}

// diagOneTail finishes diagonal k from cell i0+1 onward, given v = the
// chain value at cell i0 (whose compare has already been applied).
func diagOneTail(df, dg, nrm []float64, v float64, k, s int, corr []float64, idx []int32, i0 int) {
	fj := df[k:s] // fj[i] = df[j], len s−k
	gj := dg[k:s]
	gj = gj[:len(fj)]
	nj := nrm[k:s]
	nj = nj[:len(fj)]
	fi := df[0 : s-k]
	fi = fi[:len(fj)]
	gi := dg[0 : s-k]
	gi = gi[:len(fj)]
	ni := nrm[0 : s-k]
	ni = ni[:len(fj)]
	ci := corr[0 : s-k]
	ci = ci[:len(fj)]
	ii := idx[0 : s-k]
	ii = ii[:len(fj)]
	cj := corr[k:s]
	cj = cj[:len(fj)]
	ij := idx[k:s]
	ij = ij[:len(fj)]
	for i := i0 + 1; i < len(fj); i++ {
		v += float64(fi[i]*gj[i]) + float64(gi[i]*fj[i])
		c := v * ni[i] * nj[i]
		j := int32(i + k)
		if c >= ci[i] {
			if c > ci[i] || j < ii[i] {
				ci[i], ii[i] = c, j
			}
		}
		a := int32(i)
		if c >= cj[i] {
			if c > cj[i] || a < ij[i] {
				cj[i], ij[i] = c, a
			}
		}
	}
}

// seedScanGeneric is SeedScan one diagonal at a time, with hoisted
// bounds; each cell's two list filters are inline and only the offers
// that pass them call TopLists.Offer.
func seedScanGeneric(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32, top *TopLists) {
	invFl := 1 / float64(l)
	for k := k0; k < k1; k++ {
		seedCell(means, invs, head[k], 0, k, invFl, corr, idx, top)
		seedTail(t, means, invs, head[k], k, l, s, invFl, corr, idx, top, 0)
	}
}

// seedCell applies cell (i, i+k) with dot product qt: both profile
// slots under the winner rule, both offers, keyed by the cell's
// correlation, through the list filter.
func seedCell(means, invs []float64, qt float64, i, k int, invFl float64, corr []float64, idx []int32, top *TopLists) {
	j := i + k
	c := (float64(qt*invFl) - float64(means[i]*means[j])) * invs[i] * invs[j]
	update(corr, idx, i, c, int32(j))
	update(corr, idx, j, c, int32(i))
	if c*c >= top.Thr[i] {
		top.Offer(i, int32(j), qt, c)
	}
	if c*c >= top.Thr[j] {
		top.Offer(j, int32(i), qt, c)
	}
}

// seedTail finishes diagonal k from cell i0+1 onward, given qt = the
// chain value at cell i0 (whose cell has already been applied).
func seedTail(t, means, invs []float64, qt float64, k, l, s int, invFl float64, corr []float64, idx []int32, top *TopLists, i0 int) {
	w := t[k+l-1 : s+l-1] // w[i] = t[j+l-1], len s−k
	u := t[k-1 : s-1]
	u = u[:len(w)]
	ta := t[l-1 : l-1+s-k]
	ta = ta[:len(w)]
	tb := t[0 : s-k]
	tb = tb[:len(w)]
	mi := means[0 : s-k]
	mi = mi[:len(w)]
	vi := invs[0 : s-k]
	vi = vi[:len(w)]
	hi := top.Thr[0 : s-k]
	hi = hi[:len(w)]
	mj := means[k:s]
	mj = mj[:len(w)]
	vj := invs[k:s]
	vj = vj[:len(w)]
	hj := top.Thr[k:s]
	hj = hj[:len(w)]
	ci := corr[0 : s-k]
	ci = ci[:len(w)]
	ii := idx[0 : s-k]
	ii = ii[:len(w)]
	cj := corr[k:s]
	cj = cj[:len(w)]
	ij := idx[k:s]
	ij = ij[:len(w)]
	for i := i0 + 1; i < len(w); i++ {
		qt += float64(ta[i]*w[i]) - float64(tb[i-1]*u[i])
		c := (float64(qt*invFl) - float64(mi[i]*mj[i])) * vi[i] * vj[i]
		j := int32(i + k)
		if c >= ci[i] {
			if c > ci[i] || j < ii[i] {
				ci[i], ii[i] = c, j
			}
		}
		a := int32(i)
		if c >= cj[i] {
			if c > cj[i] || a < ij[i] {
				cj[i], ij[i] = c, a
			}
		}
		if c*c >= hi[i] {
			top.Offer(i, j, qt, c)
		}
		if c*c >= hj[i] {
			top.Offer(i+k, a, qt, c)
		}
	}
}
