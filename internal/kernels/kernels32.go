// Float32 dot-carry kernels (Config.Carry32): the cross-length diagonal
// carry — the head row QT(0, k) and the series samples feeding the
// in-length recurrence — is *stored* in float32, halving the memory
// bandwidth of the arrays the diagonal pass streams, while every
// arithmetic step *accumulates* in float64: loads are widened once, the
// per-cell recurrence and the division-free correlation run in float64
// registers, and only the cross-length store (ExtendRow32) rounds back to
// float32. The moment arrays stay float64 — they feed the correlation,
// not the carry.
//
// Only the diagonal pass and the head extension carry float32 (one
// rounding per cell per length step, drift bounded by the tolerance
// tests). The seed row recurrence stays float64: its rows feed the
// partial-profile reseed whose q̃² ranks drive certification, and the
// rank flips a float32 carry could introduce there would silently void
// the lower-bound certificates.
//
// Under the AVX2 tier, DiagScan32 runs the assembly diagonal stepper with
// widening loads. ExtendRow32 runs one portable body on every tier: its
// fused per-call rounding discipline rules out the multi-pass formulation
// the float64 assembly uses, and with widened loads it is bandwidth-bound
// anyway.
package kernels

// ExtendRow32 is ExtendRow with the row and series stored in float32:
// cell j accumulates every pending step product t[i+p]·t[j+p],
// p ∈ [cur, min(l, n−j)), in one float64 sum and rounds once at the
// store. Fusing changes the float32 result versus repeated one-step
// calls (one rounding per call per cell, not per step) — the reference
// RefExtendRow32 defines exactly this per-call rounding discipline.
//
// Both dispatch tiers run this body. It interleaves the accumulation
// chains of eight adjacent cells, each still summing its steps in
// ascending order; eight chains (vs the four the float64 body uses) pay
// for the widening converts, keeping the convert unit's latency off the
// critical path.
func ExtendRow32(row, t []float32, i, cur, l int) {
	n := len(t)
	if cur >= l {
		return
	}
	q := t[i+cur : i+l]
	full := n - l + 1
	if full < 0 {
		full = 0
	}
	j := 0
	for ; j+8 <= full; j += 8 {
		base := t[j+cur:] // base[x+d] = t[(j+d)+cur+x], cell j+d's step x
		v0 := float64(row[j])
		v1 := float64(row[j+1])
		v2 := float64(row[j+2])
		v3 := float64(row[j+3])
		v4 := float64(row[j+4])
		v5 := float64(row[j+5])
		v6 := float64(row[j+6])
		v7 := float64(row[j+7])
		for x, qv := range q {
			qw := float64(qv)
			v0 += qw * float64(base[x])
			v1 += qw * float64(base[x+1])
			v2 += qw * float64(base[x+2])
			v3 += qw * float64(base[x+3])
			v4 += qw * float64(base[x+4])
			v5 += qw * float64(base[x+5])
			v6 += qw * float64(base[x+6])
			v7 += qw * float64(base[x+7])
		}
		row[j] = float32(v0)
		row[j+1] = float32(v1)
		row[j+2] = float32(v2)
		row[j+3] = float32(v3)
		row[j+4] = float32(v4)
		row[j+5] = float32(v5)
		row[j+6] = float32(v6)
		row[j+7] = float32(v7)
	}
	for ; j < full; j++ {
		w := t[j+cur : j+l]
		v := float64(row[j])
		for x, qv := range q {
			v += float64(qv) * float64(w[x])
		}
		row[j] = float32(v)
	}
	extendRow32Ragged(row, t, full, cur, n, q)
}

// DiagScan32 is DiagScan with the head row and the series stored in
// float32: each diagonal's dot product is seeded from the float32 head
// cell, widened once, and carried along the diagonal in a float64
// register; the correlation expression, the total-order winner rule and
// the diagonal interleave match DiagScan exactly (the accumulators
// corr/idx stay float64/int32). The moment slices must be at length l;
// s = len(t) − l + 1.
func DiagScan32(t, head []float32, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32) {
	switch active {
	case AVX2:
		diagScan32AVX2(t, head, means, invs, k0, k1, l, s, corr, idx)
	default:
		diagScan32Generic(t, head, means, invs, k0, k1, l, s, corr, idx)
	}
}
