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
		r0 := r[p] + tail*a[p] - head*b[p]
		r1 := r[p-1] + tail*a[p-1] - head*b[p-1]
		r2 := r[p-2] + tail*a[p-2] - head*b[p-2]
		r3 := r[p-3] + tail*a[p-3] - head*b[p-3]
		r[p+1] = r0
		r[p] = r1
		r[p-1] = r2
		r[p-2] = r3
	}
	for ; p >= 0; p-- {
		r[p+1] = r[p] + tail*a[p] - head*b[p]
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
			c0 := (r[x]*invFl - muA*m[x]) * invA * v[x]
			c1 := (r[x+1]*invFl - muA*m[x+1]) * invA * v[x+1]
			c2 := (r[x+2]*invFl - muA*m[x+2]) * invA * v[x+2]
			c3 := (r[x+3]*invFl - muA*m[x+3]) * invA * v[x+3]
			if c0 > bestCorr || c1 > bestCorr || c2 > bestCorr || c3 > bestCorr ||
				c0*c0 >= thr || c1*c1 >= thr || c2*c2 >= thr || c3*c3 >= thr {
				break
			}
		}
		for end := min(x+4, len(r)); x < end; x++ {
			c := (r[x]*invFl - muA*m[x]) * invA * v[x]
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

// extendRowGeneric is ExtendRow with the per-cell accumulation chains of
// four adjacent cells interleaved. One chain per cell is latency-bound;
// four independent chains overlap. Each cell still accumulates its steps
// in ascending order, so every chain is bit-identical to the one-cell
// loop.
func extendRowGeneric(row, t []float64, i, cur, l int) {
	n := len(t)
	if cur >= l {
		return
	}
	if l-cur == 1 {
		extendRowOne(row, t, i, cur, n)
		return
	}
	q := t[i+cur : i+l] // q[x] = t[i+cur+x], the anchor-side step factors
	full := n - l + 1   // cells [0, full) take every step
	if full < 0 {
		full = 0
	}
	j := 0
	for ; j+4 <= full; j += 4 {
		base := t[j+cur:] // base[x+d] = t[(j+d)+cur+x], cell j+d's step x
		v0 := row[j]
		v1 := row[j+1]
		v2 := row[j+2]
		v3 := row[j+3]
		for x, qv := range q {
			v0 += qv * base[x]
			v1 += qv * base[x+1]
			v2 += qv * base[x+2]
			v3 += qv * base[x+3]
		}
		row[j] = v0
		row[j+1] = v1
		row[j+2] = v2
		row[j+3] = v3
	}
	for ; j < full; j++ {
		w := t[j+cur : j+l]
		v := row[j]
		for x, qv := range q {
			v += qv * w[x]
		}
		row[j] = v
	}
	extendRowRagged(row, t, full, cur, n, q)
}

// dotRowGeneric writes cells [j0, s) of DotRow with the sums of eight
// adjacent cells interleaved: one cell's sum is a serial chain, eight
// independent chains overlap. Each chain still adds its terms in
// ascending p from zero, bit-identical to the one-cell loop.
func dotRowGeneric(row, t []float64, i, l, j0, s int) {
	q := t[i : i+l]
	j := j0
	for ; j+8 <= s; j += 8 {
		w := t[j : j+l+7] // cell j+d's term p reads w[p+d]
		var v0, v1, v2, v3, v4, v5, v6, v7 float64
		for p, qv := range q {
			x := w[p : p+8]
			v0 += qv * x[0]
			v1 += qv * x[1]
			v2 += qv * x[2]
			v3 += qv * x[3]
			v4 += qv * x[4]
			v5 += qv * x[5]
			v6 += qv * x[6]
			v7 += qv * x[7]
		}
		r := row[j : j+8]
		r[0], r[1], r[2], r[3] = v0, v1, v2, v3
		r[4], r[5], r[6], r[7] = v4, v5, v6, v7
	}
	for ; j < s; j++ {
		w := t[j : j+l]
		var v float64
		for p, qv := range q {
			v += qv * w[p]
		}
		row[j] = v
	}
}

// extendRowRagged finishes the cells [full, n−cur) whose step ranges clip
// at the series end (the region is O(l) cells, never the pass cost).
func extendRowRagged(row, t []float64, full, cur, n int, q []float64) {
	for j := full; j < n-cur; j++ {
		w := t[j+cur : n] // len = n−j−cur = the steps this cell still takes
		v := row[j]
		for x, wv := range w {
			v += q[x] * wv
		}
		row[j] = v
	}
}

// extendRowOne is the single-step fast path of ExtendRow (the common case
// on consecutive lengths), 4-way unrolled.
func extendRowOne(row, t []float64, i, cur, n int) {
	tail := t[i+cur]
	w := t[cur:n] // w[j] = t[j+cur], j < n−cur
	r := row[0 : n-cur]
	j := 0
	for ; j+4 <= len(r); j += 4 {
		r0 := r[j] + tail*w[j]
		r1 := r[j+1] + tail*w[j+1]
		r2 := r[j+2] + tail*w[j+2]
		r3 := r[j+3] + tail*w[j+3]
		r[j] = r0
		r[j+1] = r1
		r[j+2] = r2
		r[j+3] = r3
	}
	for ; j < len(r); j++ {
		r[j] += tail * w[j]
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
		c0 := (cl[i]*invFl - m[i]*muJ) * v[i] * invJ
		c1 := (cl[i+1]*invFl - m[i+1]*muJ) * v[i+1] * invJ
		c2 := (cl[i+2]*invFl - m[i+2]*muJ) * v[i+2] * invJ
		c3 := (cl[i+3]*invFl - m[i+3]*muJ) * v[i+3] * invJ
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
		c := (cl[i]*invFl - m[i]*muJ) * v[i] * invJ
		if c > cr[i] || (c == cr[i] && j < ix[i]) {
			cr[i], ix[i] = c, j
		}
		if c > bestCorr {
			bestCorr, bestIdx = c, int32(i)
		}
	}
	return bestCorr, bestIdx
}

// diagScanGeneric is DiagScan with the 4-diagonal interleave.
func diagScanGeneric(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32) {
	invFl := 1 / float64(l)
	k := k0
	for ; k+4 <= k1; k += 4 {
		diagQuad(t, head, means, invs, k, l, s, invFl, corr, idx)
	}
	for ; k < k1; k++ {
		diagOne(t, means, invs, head[k], k, l, s, invFl, corr, idx)
	}
}

// diagOne streams one whole diagonal k from its head cell qt = QT(0, k).
func diagOne(t, means, invs []float64, qt float64, k, l, s int, invFl float64, corr []float64, idx []int32) {
	c := (qt*invFl - means[0]*means[k]) * invs[0] * invs[k]
	update(corr, idx, 0, c, int32(k))
	update(corr, idx, k, c, 0)
	diagOneTail(t, means, invs, qt, k, l, s, invFl, corr, idx, 0)
}

// diagQuad interleaves diagonals k, k+1, k+2, k+3: the four dot-product
// chains advance together over their common cell range, then each
// diagonal's leftover tail finishes on the scalar path, resuming from the
// carried chain value.
func diagQuad(t, head, means, invs []float64, k, l, s int, invFl float64, corr []float64, idx []int32) {
	qt0, qt1, qt2, qt3 := head[k], head[k+1], head[k+2], head[k+3]
	// i = 0 row: the head cells themselves.
	c0 := (qt0*invFl - means[0]*means[k]) * invs[0] * invs[k]
	c1 := (qt1*invFl - means[0]*means[k+1]) * invs[0] * invs[k+1]
	c2 := (qt2*invFl - means[0]*means[k+2]) * invs[0] * invs[k+2]
	c3 := (qt3*invFl - means[0]*means[k+3]) * invs[0] * invs[k+3]
	bc, bj := c0, int32(k)
	if c1 > bc {
		bc, bj = c1, int32(k+1)
	}
	if c2 > bc {
		bc, bj = c2, int32(k+2)
	}
	if c3 > bc {
		bc, bj = c3, int32(k+3)
	}
	update(corr, idx, 0, bc, bj)
	update(corr, idx, k, c0, 0)
	update(corr, idx, k+1, c1, 0)
	update(corr, idx, k+2, c2, 0)
	update(corr, idx, k+3, c3, 0)

	// Common range: every i with all four diagonals still in bounds
	// (i + k+3 ≤ s−1). Every array is hoisted into a sub-slice of exactly
	// the common length so the compiler can prove all indexes in range.
	m := s - k - 4
	{
		w := t[k+l-1 : s+l-1] // w[i+x] = t[(i+x)+k+l-1] = t[j+x+l-1]
		u := t[k-1 : s-1]     // u[i+x] = t[j+x-1]
		u = u[:len(w)]
		ta := t[l-1 : l-1+s-k] // ta[i] = t[i+l-1]
		ta = ta[:len(w)]
		tb := t[0 : s-k] // tb[i-1] = t[i-1]
		tb = tb[:len(w)]
		mi := means[0 : s-k]
		mi = mi[:len(w)]
		vi := invs[0 : s-k]
		vi = vi[:len(w)]
		mj := means[k:s] // mj[i+x] = means[j+x]
		mj = mj[:len(w)]
		vj := invs[k:s]
		vj = vj[:len(w)]
		ci := corr[0 : s-k]
		ci = ci[:len(w)]
		ii := idx[0 : s-k]
		ii = ii[:len(w)]
		cj := corr[k:s]
		cj = cj[:len(w)]
		ij := idx[k:s]
		ij = ij[:len(w)]
		for i := 1; i+4 <= len(w); i++ {
			ha, hb := ta[i], tb[i-1]
			qt0 += ha*w[i] - hb*u[i]
			qt1 += ha*w[i+1] - hb*u[i+1]
			qt2 += ha*w[i+2] - hb*u[i+2]
			qt3 += ha*w[i+3] - hb*u[i+3]
			m0, v0 := mi[i], vi[i]
			c0 := (qt0*invFl - m0*mj[i]) * v0 * vj[i]
			c1 := (qt1*invFl - m0*mj[i+1]) * v0 * vj[i+1]
			c2 := (qt2*invFl - m0*mj[i+2]) * v0 * vj[i+2]
			c3 := (qt3*invFl - m0*mj[i+3]) * v0 * vj[i+3]
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
	if m < 0 {
		m = 0
	}
	diagOneTail(t, means, invs, qt0, k, l, s, invFl, corr, idx, m)
	diagOneTail(t, means, invs, qt1, k+1, l, s, invFl, corr, idx, m)
	diagOneTail(t, means, invs, qt2, k+2, l, s, invFl, corr, idx, m)
}

// diagOneTail finishes diagonal k from cell i0+1 onward, given qt = the
// chain value at cell i0 (whose compare has already been applied).
func diagOneTail(t, means, invs []float64, qt float64, k, l, s int, invFl float64, corr []float64, idx []int32, i0 int) {
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
	mj := means[k:s]
	mj = mj[:len(w)]
	vj := invs[k:s]
	vj = vj[:len(w)]
	ci := corr[0 : s-k]
	ci = ci[:len(w)]
	ii := idx[0 : s-k]
	ii = ii[:len(w)]
	cj := corr[k:s]
	cj = cj[:len(w)]
	ij := idx[k:s]
	ij = ij[:len(w)]
	for i := i0 + 1; i < len(w); i++ {
		qt += ta[i]*w[i] - tb[i-1]*u[i]
		c := (qt*invFl - mi[i]*mj[i]) * vi[i] * vj[i]
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
	c := (qt*invFl - means[i]*means[j]) * invs[i] * invs[j]
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
		qt += ta[i]*w[i] - tb[i-1]*u[i]
		c := (qt*invFl - mi[i]*mj[i]) * vi[i] * vj[i]
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
