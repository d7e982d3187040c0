package kernels

import "math"

// This file retains the naive reference implementation of every kernel:
// the defining scalar loop, with the per-cell exclusion/boundary branches
// spelled out and no unrolling or interleaving. Each product is rounded by
// an explicit float64(…) before it meets an add, so no compiler fuses the
// pair into one multiply-add. TestKernelParity asserts
// each optimized routine is bit-identical to its reference on adversarial
// inputs (σ=0 degenerate windows, exclusion zones clipped at the series
// edges, lengths that exercise every unroll remainder). The references are
// compiled into tests only in practice, but live in the package proper so
// ablation benchmarks can measure the optimized/naive gap directly.

// RefRowNext is RowNext as the plain descending loop.
func RefRowNext(row, t []float64, i, l, s int) {
	tail := t[i+l-1]
	head := t[i-1]
	for j := s - 1; j >= 1; j-- {
		row[j] = row[j-1] + float64(tail*t[j+l-1]) - float64(head*t[j-1])
	}
}

// RefArgmaxCorr is ArgmaxCorr as RefRowScan with no list.
func RefArgmaxCorr(row, means, invs []float64, e1, j2, s int, invFl, muA, invA float64, bestCorr float64, bestJ int) (float64, int) {
	return RefRowScan(row, means, invs, e1, j2, s, invFl, muA, invA, bestCorr, bestJ, nil)
}

// RefRowScan is RowScan as the one-range loop with the per-cell exclusion
// test, j ∈ [0, s) skipping e1 ≤ j < j2, that offers every candidate to
// top's list 0 through refOffer (when top is not nil).
func RefRowScan(row, means, invs []float64, e1, j2, s int, invFl, muA, invA float64, bestCorr float64, bestJ int, top *TopLists) (float64, int) {
	for j := 0; j < s; j++ {
		if j >= e1 && j < j2 {
			continue
		}
		c := (float64(row[j]*invFl) - float64(muA*means[j])) * invA * invs[j]
		if c > bestCorr {
			bestCorr, bestJ = c, j
		}
		if top != nil {
			refOffer(top, 0, j, row[j], c)
		}
	}
	return bestCorr, bestJ
}

// RefExtendRow is ExtendRow as the one-pass-per-length-step loop nest
// (each step updates every cell still in range).
func RefExtendRow(row, t []float64, i, cur, l int) {
	n := len(t)
	for ; cur < l; cur++ {
		tail := t[i+cur]
		for j := 0; j < n-cur; j++ {
			row[j] += float64(tail * t[j+cur])
		}
	}
}

// RefDotRow is DotRow as one series.Dot-shaped loop per cell.
func RefDotRow(row, t, q []float64, s int) {
	for j := 0; j < s; j++ {
		var sum float64
		for p := range q {
			sum += float64(q[p] * t[j+p])
		}
		row[j] = sum
	}
}

// RefAdvanceDot is AdvanceDot as the per-step loop.
func RefAdvanceDot(qt float64, t []float64, i, j, p0, p1 int) float64 {
	for p := p0; p < p1; p++ {
		qt += float64(t[i+p] * t[j+p])
	}
	return qt
}

// RefColScan is ColScan as the plain ascending loop: one candidate per
// earlier window, the slot-i total-order update and the slot-j running
// maximum spelled out.
func RefColScan(col, means, invs []float64, iEnd int, invFl, muJ, invJ float64, corr []float64, idx []int32, j int32, bestCorr float64, bestIdx int32) (float64, int32) {
	for i := 0; i < iEnd; i++ {
		c := (float64(col[i]*invFl) - float64(means[i]*muJ)) * invs[i] * invJ
		if c > corr[i] || (c == corr[i] && j < idx[i]) {
			corr[i], idx[i] = c, j
		}
		if c > bestCorr {
			bestCorr, bestIdx = c, int32(i)
		}
	}
	return bestCorr, bestIdx
}

// RefCovScan is CovScan one diagonal at a time: the head cell, then the
// covariance recurrence and the correlation of each cell, both slots
// updated under the total order.
func RefCovScan(cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32) {
	for k := k0; k < k1; k++ {
		v := cov[k]
		for i := 0; i+k < s; i++ {
			j := i + k
			if i > 0 {
				v += float64(df[i]*dg[j]) + float64(dg[i]*df[j])
			}
			c := v * nrm[i] * nrm[j]
			if c > corr[i] || (c == corr[i] && int32(j) < idx[i]) {
				corr[i], idx[i] = c, int32(j)
			}
			if c > corr[j] || (c == corr[j] && int32(i) < idx[j]) {
				corr[j], idx[j] = c, int32(i)
			}
		}
	}
}

// RefSeedScan is SeedScan one diagonal at a time with every offer made:
// each cell updates both profile slots and offers each endpoint to the
// other's list, keyed by the cell's correlation, through refOffer, the
// plain ranked insertion.
func RefSeedScan(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32, top *TopLists) {
	invFl := 1 / float64(l)
	for k := k0; k < k1; k++ {
		qt := head[k]
		for i := 0; i+k < s; i++ {
			j := i + k
			if i > 0 {
				qt += float64(t[i+l-1]*t[j+l-1]) - float64(t[i-1]*t[j-1])
			}
			c := (float64(qt*invFl) - float64(means[i]*means[j])) * invs[i] * invs[j]
			if c > corr[i] || (c == corr[i] && int32(j) < idx[i]) {
				corr[i], idx[i] = c, int32(j)
			}
			if c > corr[j] || (c == corr[j] && int32(i) < idx[j]) {
				corr[j], idx[j] = c, int32(i)
			}
			refOffer(top, i, j, qt, c)
			refOffer(top, j, i, qt, c)
		}
	}
}

// refOffer inserts candidate j into anchor a's list at its rank under
// (q² descending, offset ascending), truncating the list to Cap entries
// and refreshing Thr once it is full; a closed list (Thr = +Inf) takes
// nothing.
func refOffer(top *TopLists, a, j int, qt, q float64) {
	if math.IsInf(top.Thr[a], 1) {
		return
	}
	base, n := a*top.Cap, int(top.Len[a])
	pos := 0
	for pos < n {
		e := top.Q[base+pos]
		if q*q > e*e || (q*q == e*e && int32(j) < top.J[base+pos]) {
			break
		}
		pos++
	}
	if pos == top.Cap {
		return
	}
	if n < top.Cap {
		n++
	}
	for x := n - 1; x > pos; x-- {
		top.J[base+x], top.QT[base+x], top.Q[base+x] = top.J[base+x-1], top.QT[base+x-1], top.Q[base+x-1]
	}
	top.J[base+pos], top.QT[base+pos], top.Q[base+pos] = int32(j), qt, q
	top.Len[a] = int32(n)
	if n == top.Cap {
		last := top.Q[base+n-1]
		top.Thr[a] = last * last
	}
}
