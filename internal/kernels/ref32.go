package kernels

// Naive references for the float32 dot-carry kernels (kernels32.go),
// following the ref.go discipline: the defining scalar loop with the
// rounding points spelled out. TestKernelParity32 asserts the optimized
// routines are bit-identical to these; the float64-vs-float32 drift
// itself is bounded by tolerance tests, not parity.

// RefExtendRow32 is ExtendRow32 as the per-cell loop: each cell sums its
// pending step products in float64 (ascending step order) and rounds once
// per call — the per-call rounding discipline the fused kernel must match.
func RefExtendRow32(row, t []float32, i, cur, l int) {
	n := len(t)
	if cur >= l {
		return
	}
	for j := 0; j < n-cur; j++ {
		v := float64(row[j])
		for p := cur; p < l && j+p < n; p++ {
			v += float64(t[i+p]) * float64(t[j+p])
		}
		row[j] = float32(v)
	}
}

// RefDiagScan32 is DiagScan32 one diagonal at a time: float32 head and
// series widened at use, float64 chain carry, the engine's one
// correlation expression and total-order winner rule.
func RefDiagScan32(t, head []float32, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32) {
	invFl := 1 / float64(l)
	for k := k0; k < k1; k++ {
		qt := float64(head[k])
		c := (qt*invFl - means[0]*means[k]) * invs[0] * invs[k]
		if c > corr[0] || (c == corr[0] && int32(k) < idx[0]) {
			corr[0], idx[0] = c, int32(k)
		}
		if c > corr[k] || (c == corr[k] && 0 < idx[k]) {
			corr[k], idx[k] = c, 0
		}
		for i := 1; i+k < s; i++ {
			j := i + k
			qt += float64(t[i+l-1])*float64(t[j+l-1]) - float64(t[i-1])*float64(t[j-1])
			c := (qt*invFl - means[i]*means[j]) * invs[i] * invs[j]
			if c > corr[i] || (c == corr[i] && int32(j) < idx[i]) {
				corr[i], idx[i] = c, int32(j)
			}
			if c > corr[j] || (c == corr[j] && int32(i) < idx[j]) {
				corr[j], idx[j] = c, int32(i)
			}
		}
	}
}
