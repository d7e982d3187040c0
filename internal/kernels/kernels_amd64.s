//go:build amd64

#include "textflag.h"

// AVX2 kernel routines. Hard rules:
//
//   - No FMA, ever: every multiply-add is a separate VMULPD/VADDPD (or
//     VSUBPD) pair so the rounding matches the portable tiers bit for bit.
//   - No winner-state writes: the scan routines compute correlations and
//     (for the steppers) improvement masks only; the Go callers own the
//     total-order compare-updates. Winner state stays in Go, except in
//     CovScan's avx512 body (avx512_amd64.s).
//   - Every evaluation order mirrors the scalar expression it replaces,
//     lane by lane.

// func rowNextBlocks(r, a, b *float64, tail, head float64, lo, hi int)
// Descending groups of four: r[p+1] = r[p] + tail*a[p] - head*b[p] for
// p = hi … lo; caller guarantees (hi-lo+1) % 4 == 0. Group loads all
// happen before the group store, and descending order keeps later groups
// reading cells no earlier group wrote.
TEXT ·rowNextBlocks(SB), NOSPLIT, $0-56
	MOVQ r+0(FP), R8
	MOVQ a+8(FP), R9
	MOVQ b+16(FP), R10
	VBROADCASTSD tail+24(FP), Y1
	VBROADCASTSD head+32(FP), Y2
	MOVQ lo+40(FP), DX
	MOVQ hi+48(FP), AX

rowloop:
	LEAQ -3(AX), CX
	VMOVUPD (R8)(CX*8), Y3  // r[p-3 : p+1]
	VMOVUPD (R9)(CX*8), Y4  // a[p-3 : p+1]
	VMOVUPD (R10)(CX*8), Y5 // b[p-3 : p+1]
	VMULPD  Y4, Y1, Y4      // tail*a
	VADDPD  Y4, Y3, Y3      // r + tail*a
	VMULPD  Y5, Y2, Y5      // head*b
	VSUBPD  Y5, Y3, Y3      // (r + tail*a) - head*b
	LEAQ -2(AX), CX
	VMOVUPD Y3, (R8)(CX*8)  // r[p-2 : p+2]
	SUBQ $4, AX
	CMPQ AX, DX
	JGE  rowloop

	VZEROUPPER
	RET

// func rowSteps4(r, m, v *float64, invFl, muA, invA, best, thr float64,
//                j0, n int) int
// Walks groups of four cells j = j0, j0+4, ... < n (n - j0 a multiple of
// 4), computing RowScan's correlation in its evaluation order:
//   c = ((r[j]*invFl) - muA*m[j]) * invA * v[j]
// and returns the first group start where any lane has c > best (beats
// the running best) or c*c >= thr (reaches the list's threshold), or n
// when no group triggers. Winner and list state are never written here.
TEXT ·rowSteps4(SB), NOSPLIT, $0-88
	MOVQ r+0(FP), R8
	MOVQ m+8(FP), R9
	MOVQ v+16(FP), R10
	VBROADCASTSD invFl+24(FP), Y1
	VBROADCASTSD muA+32(FP), Y2
	VBROADCASTSD invA+40(FP), Y3
	VBROADCASTSD best+48(FP), Y4
	VBROADCASTSD thr+56(FP), Y5
	MOVQ j0+64(FP), AX
	MOVQ n+72(FP), DX
	CMPQ AX, DX
	JGE  rsdone

rsloop:
	VMULPD  (R8)(AX*8), Y1, Y6  // r*invFl
	VMULPD  (R9)(AX*8), Y2, Y7  // muA*m
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y3, Y6, Y6          // * invA
	VMULPD  (R10)(AX*8), Y6, Y6 // * v -> c lanes
	VMULPD  Y6, Y6, Y7          // c^2
	VCMPPD  $0x0e, Y4, Y6, Y8   // c > best (GT_OS)
	VCMPPD  $0x0d, Y5, Y7, Y9   // c^2 >= thr (GE_OS)
	VORPD   Y9, Y8, Y8
	VMOVMSKPD Y8, CX
	TESTL CX, CX
	JNE  rsdone
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  rsloop

rsdone:
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

// func colSteps4(col, m, v, corr *float64, invFl, muJ, invJ, best float64,
//                i0, n int) int
// Walks groups of four cells i = i0, i0+4, ... < n (n - i0 a multiple of
// 4), computing ColScan's correlation in its evaluation order:
//   c = ((col[i]*invFl) - m[i]*muJ) * v[i] * invJ
// and returns the first group start where any lane has c >= corr[i]
// (reaches its slot) or c > best (beats the running best), or n when no
// group triggers. Winner state is never written here.
TEXT ·colSteps4(SB), NOSPLIT, $0-88
	MOVQ col+0(FP), R8
	MOVQ m+8(FP), R9
	MOVQ v+16(FP), R10
	MOVQ corr+24(FP), R11
	VBROADCASTSD invFl+32(FP), Y1
	VBROADCASTSD muJ+40(FP), Y2
	VBROADCASTSD invJ+48(FP), Y3
	VBROADCASTSD best+56(FP), Y4
	MOVQ i0+64(FP), AX
	MOVQ n+72(FP), DX
	CMPQ AX, DX
	JGE  csdone

csloop:
	VMULPD  (R8)(AX*8), Y1, Y5         // col*invFl
	VMULPD  (R9)(AX*8), Y2, Y6         // m*muJ
	VSUBPD  Y6, Y5, Y5
	VMULPD  (R10)(AX*8), Y5, Y5        // * v
	VMULPD  Y3, Y5, Y5                 // * invJ -> c lanes
	VCMPPD  $0x0d, (R11)(AX*8), Y5, Y6 // c >= corr[i] (GE_OS)
	VCMPPD  $0x0e, Y4, Y5, Y7          // c > best (GT_OS)
	VORPD   Y7, Y6, Y6
	VMOVMSKPD Y6, CX
	TESTL CX, CX
	JNE  csdone
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  csloop

csdone:
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

// func diagSteps4(cov, df, dg, nr, dfj, dgj, nrj, ci, cj *float64,
//                 i0, i1 int) int
// Advances the four interleaved covariance chains over cells i in
// [i0, i1):
//   cov[x] += df[i]*dgj[i+x] + dg[i]*dfj[i+x]
//   c[x]    = (cov[x]*nr[i]) * nrj[i+x]
// and returns at the first i where any lane has c >= ci[i] or
// c >= cj[i+x] (chains already advanced to that cell and stored back),
// or i1 when no cell triggers. Winner state is never written here.
TEXT ·diagSteps4(SB), NOSPLIT, $0-96
	MOVQ df+8(FP), R8
	MOVQ dg+16(FP), R9
	MOVQ nr+24(FP), R10
	MOVQ dfj+32(FP), R11
	MOVQ dgj+40(FP), R12
	MOVQ nrj+48(FP), R13
	MOVQ ci+56(FP), SI
	MOVQ cj+64(FP), BX
	MOVQ i0+72(FP), AX
	MOVQ i1+80(FP), DX
	MOVQ cov+0(FP), CX
	VMOVUPD (CX), Y0 // chain lanes
	CMPQ AX, DX
	JGE  dsdone

dsloop:
	VBROADCASTSD (R8)(AX*8), Y2  // df[i]
	VBROADCASTSD (R9)(AX*8), Y3  // dg[i]
	VMULPD  (R12)(AX*8), Y2, Y4  // df[i]*dgj
	VMULPD  (R11)(AX*8), Y3, Y5  // dg[i]*dfj
	VADDPD  Y5, Y4, Y4
	VADDPD  Y4, Y0, Y0           // cov += df[i]*dgj + dg[i]*dfj
	VBROADCASTSD (R10)(AX*8), Y6 // nr[i]
	VMULPD  Y6, Y0, Y6           // cov*nr[i]
	VMULPD  (R13)(AX*8), Y6, Y6  // * nrj -> c lanes
	VBROADCASTSD (SI)(AX*8), Y7  // ci[i]
	VCMPPD  $0x0d, Y7, Y6, Y8    // c >= ci[i] (GE_OS)
	VCMPPD  $0x0d, (BX)(AX*8), Y6, Y9 // c >= cj[i+x]
	VORPD   Y9, Y8, Y8
	VMOVMSKPD Y8, CX
	TESTL CX, CX
	JNE  dsdone
	INCQ AX
	CMPQ AX, DX
	JLT  dsloop

dsdone:
	MOVQ cov+0(FP), CX
	VMOVUPD Y0, (CX)
	MOVQ AX, ret+88(FP)
	VZEROUPPER
	RET

// func seedSteps4(qt, t, means, invs, corr, thr *float64, k, l int,
//                 invFl float64, i0, n int) (stop, mask int)
// The raw-dot-product diagonal stepper with the partial-profile filter.
// Over cells i in [i0, n), lane x on diagonal k+x (j = i+k+x):
//   qt[x] += t[i+l-1]*t[j+l-1] - t[i-1]*t[j-1]
//   c      = ((qt*invFl) - means[i]*means[j]) * invs[i] * invs[j]
// Returns at the first i where any lane has c >= corr[i], c >= corr[j],
// c*c >= thr[i] or c*c >= thr[j] (chains advanced to that cell and stored
// back; the four conditions' lane masks in bits 0-3, 4-7, 8-11 and 12-15
// of mask), or at n with mask 0. Winner and list state are never written
// here.
TEXT ·seedSteps4(SB), NOSPLIT, $0-104
	MOVQ t+8(FP), R8
	MOVQ l+56(FP), CX
	LEAQ -8(R8)(CX*8), R9 // &t[l-1]
	MOVQ means+16(FP), R10
	MOVQ invs+24(FP), R11
	MOVQ corr+32(FP), R13
	MOVQ thr+40(FP), R14
	VBROADCASTSD invFl+64(FP), Y1
	MOVQ i0+72(FP), AX
	MOVQ n+80(FP), DX
	MOVQ k+48(FP), CX
	ADDQ AX, CX // j = i + k (lane 0)
	MOVQ qt+0(FP), SI
	VMOVUPD (SI), Y0 // chain lanes
	XORQ BX, BX
	CMPQ AX, DX
	JGE  seeddone

seedloop:
	VBROADCASTSD (R9)(AX*8), Y2   // ha = t[i+l-1]
	VBROADCASTSD -8(R8)(AX*8), Y3 // hb = t[i-1]
	VMULPD  (R9)(CX*8), Y2, Y2    // ha*t[j+l-1]
	VMULPD  -8(R8)(CX*8), Y3, Y3  // hb*t[j-1]
	VSUBPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0            // qt += ha*w - hb*u
	VBROADCASTSD (R10)(AX*8), Y5  // mi
	VBROADCASTSD (R11)(AX*8), Y8  // vi
	VMULPD  Y1, Y0, Y4            // qt*invFl
	VMULPD  (R10)(CX*8), Y5, Y7   // mi*mj
	VSUBPD  Y7, Y4, Y4
	VMULPD  Y8, Y4, Y4            // * vi
	VMULPD  (R11)(CX*8), Y4, Y4   // * vj -> c lanes
	VMULPD  Y4, Y4, Y10           // c^2
	VBROADCASTSD (R13)(AX*8), Y12
	VCMPPD  $0x0d, Y12, Y4, Y12          // c >= corr[i] (GE_OS)
	VCMPPD  $0x0d, (R13)(CX*8), Y4, Y13  // c >= corr[j]
	VBROADCASTSD (R14)(AX*8), Y14
	VCMPPD  $0x0d, Y14, Y10, Y14         // c^2 >= thr[i]
	VCMPPD  $0x0d, (R14)(CX*8), Y10, Y15 // c^2 >= thr[j]
	VORPD   Y13, Y12, Y2
	VORPD   Y15, Y14, Y3
	VORPD   Y3, Y2, Y2
	VMOVMSKPD Y2, SI
	TESTL SI, SI
	JNE  seedhit
	INCQ AX
	INCQ CX
	CMPQ AX, DX
	JLT  seedloop
	JMP  seeddone

seedhit:
	VMOVMSKPD Y12, BX
	VMOVMSKPD Y13, SI
	SHLQ $4, SI
	ORQ  SI, BX
	VMOVMSKPD Y14, SI
	SHLQ $8, SI
	ORQ  SI, BX
	VMOVMSKPD Y15, SI
	SHLQ $12, SI
	ORQ  SI, BX

seeddone:
	MOVQ qt+0(FP), SI
	VMOVUPD Y0, (SI)
	MOVQ AX, stop+88(FP)
	MOVQ BX, mask+96(FP)
	VZEROUPPER
	RET

// func dotRowBlocks16(row, q, x *float64, l, nb int)
// Blocks of sixteen cells, four YMM accumulators: for b in [0, nb) and
// c in [0, 16), row[16b+c] = sum over p in [0, l) of q[p]*x[16b+c+p],
// each lane summed from zero in ascending p (a separate multiply and add
// per term, as series.Dot does).
TEXT ·dotRowBlocks16(SB), NOSPLIT, $0-40
	MOVQ row+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ l+24(FP), CX
	MOVQ nb+32(FP), DX
	TESTQ DX, DX
	JLE   dr16done

dr16block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R8, R9 // &x[16b+p]
	XORQ AX, AX // p
	CMPQ AX, CX
	JGE  dr16store

dr16term:
	VBROADCASTSD (SI)(AX*8), Y4 // q[p]
	VMULPD  (R9), Y4, Y5
	VMULPD  32(R9), Y4, Y6
	VMULPD  64(R9), Y4, Y7
	VMULPD  96(R9), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ $8, R9
	INCQ AX
	CMPQ AX, CX
	JLT  dr16term

dr16store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R8
	DECQ DX
	JNZ  dr16block

dr16done:
	VZEROUPPER
	RET
