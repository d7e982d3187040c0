package kernels

// The generic tier of the float32 carry kernels: loads widened at use,
// float64 arithmetic, one float64→float32 rounding per store.

// extendRow32Ragged finishes the cells [full, n−cur) whose step ranges
// clip at the series end.
func extendRow32Ragged(row, t []float32, full, cur, n int, q []float32) {
	for j := full; j < n-cur; j++ {
		w := t[j+cur : n]
		v := float64(row[j])
		for x, wv := range w {
			v += float64(q[x]) * float64(wv)
		}
		row[j] = float32(v)
	}
}

// diagScan32Generic is DiagScan32 with the 4-diagonal interleave.
func diagScan32Generic(t, head []float32, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32) {
	invFl := 1 / float64(l)
	k := k0
	for ; k+4 <= k1; k += 4 {
		diagQuad32(t, head, means, invs, k, l, s, invFl, corr, idx)
	}
	for ; k < k1; k++ {
		diagOneTail32(t, means, invs, headCorr32(head, means, invs, k, invFl, corr, idx), k, l, s, invFl, corr, idx, 0)
	}
}

// headCorr32 applies diagonal k's head cell (i = 0 row) and returns the
// widened chain value the tail resumes from.
func headCorr32(head []float32, means, invs []float64, k int, invFl float64, corr []float64, idx []int32) float64 {
	qt := float64(head[k])
	c := (qt*invFl - means[0]*means[k]) * invs[0] * invs[k]
	update(corr, idx, 0, c, int32(k))
	update(corr, idx, k, c, 0)
	return qt
}

// diagQuad32 interleaves diagonals k…k+3, mirroring diagQuad with
// float32 loads widened at use.
func diagQuad32(t, head []float32, means, invs []float64, k, l, s int, invFl float64, corr []float64, idx []int32) {
	qt0, qt1, qt2, qt3 := float64(head[k]), float64(head[k+1]), float64(head[k+2]), float64(head[k+3])
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

	m := s - k - 4
	{
		w := t[k+l-1 : s+l-1]
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
		for i := 1; i+4 <= len(w); i++ {
			ha, hb := float64(ta[i]), float64(tb[i-1])
			qt0 += ha*float64(w[i]) - hb*float64(u[i])
			qt1 += ha*float64(w[i+1]) - hb*float64(u[i+1])
			qt2 += ha*float64(w[i+2]) - hb*float64(u[i+2])
			qt3 += ha*float64(w[i+3]) - hb*float64(u[i+3])
			m0, v0 := mi[i], vi[i]
			c0 := (qt0*invFl - m0*mj[i]) * v0 * vj[i]
			c1 := (qt1*invFl - m0*mj[i+1]) * v0 * vj[i+1]
			c2 := (qt2*invFl - m0*mj[i+2]) * v0 * vj[i+2]
			c3 := (qt3*invFl - m0*mj[i+3]) * v0 * vj[i+3]
			j := int32(i + k)
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

	if m < 0 {
		m = 0
	}
	diagOneTail32(t, means, invs, qt0, k, l, s, invFl, corr, idx, m)
	diagOneTail32(t, means, invs, qt1, k+1, l, s, invFl, corr, idx, m)
	diagOneTail32(t, means, invs, qt2, k+2, l, s, invFl, corr, idx, m)
}

// diagOneTail32 finishes diagonal k from cell i0+1 onward, given qt = the
// widened chain value at cell i0 (whose compare has already been applied).
func diagOneTail32(t []float32, means, invs []float64, qt float64, k, l, s int, invFl float64, corr []float64, idx []int32, i0 int) {
	w := t[k+l-1 : s+l-1]
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
		qt += float64(ta[i])*float64(w[i]) - float64(tb[i-1])*float64(u[i])
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
