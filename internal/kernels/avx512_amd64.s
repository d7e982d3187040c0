//go:build amd64

#include "textflag.h"

// AVX-512F kernel routines: the bodies of CovScan (diagRun16), SeedScan
// (seedSteps16) and DotRow (dotRowBlocks32). They keep the rules of
// kernels_amd64.s: no FMA, every lane's evaluation order that of the
// scalar expression it replaces, and no winner-state writes except in
// diagRun16, which applies the winner rule at its stop rows (a second copy
// of kernels.update, kept honest by parity against RefCovScan). Two more
// rules:
//
//   - Every scalar float instruction is VEX-encoded (VMOVSD, VUCOMISD;
//     never MOVSD, UCOMISD): a legacy-SSE instruction that writes an XMM
//     register while the upper ZMM state is dirty pays for it. One legacy
//     MOVSD load in diagRun16's stop handler slowed BenchmarkDiagScan
//     from 0.94 to 3.91 ns/cell on flat and from 0.63 to 0.91 on walk.
//   - Only Z0–Z15 are used, so the closing VZEROUPPER leaves no dirty
//     upper register state behind.

// func diagRun16(cov, df, dg, nr, dfj, dgj, nrj, ci, cj *float64,
//                ii, ij *int32, i0, i1, k int)
// Sixteen covariance chains of diagonals k..k+15, two ZMM vectors of
// eight, over cells i in [i0, i1), lane x in [0, 16):
//   cov[x] += df[i]*dgj[i+x] + dg[i]*dfj[i+x]
//   c[x]    = (cov[x]*nr[i]) * nrj[i+x]
// A row costs 12 vector multiplies and adds, 8 vector loads and 4
// broadcasts before its compares. A row where some lane has c >= ci[i]
// or c >= cj[i+x] is a stop, and the stop applies the winner rule (corr
// descending, neighbor ascending on exact ties) to both sides of the row,
// ci/ii being slot i and cj/ij slot j = i+k+x (the Go caller passes corr,
// idx, corr[k:], idx[k:]):
//   - column: each lane takes slot j when c > cj[i+x], or c == cj[i+x]
//     and i < ij[i+x]; masked stores write c and i;
//   - row: the lanes with c >= ci[i] are reduced to their maximum, the
//     first lane equal to it (the smallest j) is taken with its exact bits
//     (a -0 keeps its sign), and slot i takes it when it is > ci[i], or
//     equal and j < ii[i].
// Row and column slots are disjoint (j > i, as k >= 1), so the two sides
// commute, and the row side equals the ascending-lane sequence of
// compare-updates it replaces. The chains are stored back to cov at i1.
TEXT ·diagRun16(SB), NOSPLIT, $0-112
	MOVQ df+8(FP), R8
	MOVQ dg+16(FP), R9
	MOVQ nr+24(FP), R10
	MOVQ dfj+32(FP), R11
	MOVQ dgj+40(FP), R12
	MOVQ nrj+48(FP), R13
	MOVQ ci+56(FP), SI
	MOVQ cj+64(FP), BX
	MOVQ i0+88(FP), AX
	MOVQ i1+96(FP), DX
	MOVQ cov+0(FP), CX
	VMOVUPD (CX), Z0   // chains of lanes 0-7
	VMOVUPD 64(CX), Z1 // chains of lanes 8-15
	CMPQ AX, DX
	JGE  r16done

r16loop:
	VBROADCASTSD (R8)(AX*8), Z3    // df[i]
	VBROADCASTSD (R9)(AX*8), Z4    // dg[i]
	VMULPD  (R12)(AX*8), Z3, Z8    // df[i]*dgj[i : i+8]
	VMULPD  64(R12)(AX*8), Z3, Z9  // df[i]*dgj[i+8 : i+16]
	VMULPD  (R11)(AX*8), Z4, Z10   // dg[i]*dfj
	VMULPD  64(R11)(AX*8), Z4, Z11
	VADDPD  Z10, Z8, Z8
	VADDPD  Z11, Z9, Z9
	VADDPD  Z8, Z0, Z0             // cov += df[i]*dgj + dg[i]*dfj
	VADDPD  Z9, Z1, Z1
	VBROADCASTSD (R10)(AX*8), Z5   // nr[i]
	VMULPD  Z5, Z0, Z8             // cov*nr[i]
	VMULPD  Z5, Z1, Z9
	VMULPD  (R13)(AX*8), Z8, Z8    // * nrj -> c lanes
	VMULPD  64(R13)(AX*8), Z9, Z9
	VBROADCASTSD (SI)(AX*8), Z7    // ci[i]
	VCMPPD  $0x0d, Z7, Z8, K1           // c >= ci[i] (GE_OS)
	VCMPPD  $0x0d, (BX)(AX*8), Z8, K2   // c >= cj[i+x]
	VCMPPD  $0x0d, Z7, Z9, K3
	VCMPPD  $0x0d, 64(BX)(AX*8), Z9, K4
	KORW    K2, K1, K1
	KORW    K4, K3, K3
	KORTESTW K3, K1
	JNE     r16stop

r16next:
	INCQ AX
	CMPQ AX, DX
	JLT  r16loop

r16done:
	MOVQ cov+0(FP), CX
	VMOVUPD Z0, (CX)
	VMOVUPD Z1, 64(CX)
	VZEROUPPER
	RET

r16stop:
	// CX, DI and R14 are scratch here.
	// Column side. K1/K3: lanes 0-7/8-15 with c > cj; K2/K4 with c == cj;
	// K5: all sixteen lanes with i < ij (K6 its upper half).
	MOVQ ij+80(FP), R14
	VPBROADCASTD AX, Z12                // i as sixteen int32
	VCMPPD  $0x1e, (BX)(AX*8), Z8, K1   // GT_OQ
	VCMPPD  $0x00, (BX)(AX*8), Z8, K2   // EQ_OQ
	VCMPPD  $0x1e, 64(BX)(AX*8), Z9, K3
	VCMPPD  $0x00, 64(BX)(AX*8), Z9, K4
	VPCMPD  $1, (R14)(AX*4), Z12, K5    // i < ij[i+x] (LT, signed)
	KSHIFTRW $8, K5, K6
	KANDW   K5, K2, K2
	KANDW   K6, K4, K4
	KORW    K2, K1, K1
	KORW    K4, K3, K3
	VMOVUPD Z8, K1, (BX)(AX*8)
	VMOVUPD Z9, K3, 64(BX)(AX*8)
	KSHIFTLW $8, K3, K4
	KORW    K4, K1, K4
	VMOVDQU32 Z12, K4, (R14)(AX*4)

	// Row side. K1/K3: the lanes with c >= ci[i]; every other lane is
	// below slot i and sits out of the reduction at ci[i] itself.
	VCMPPD  $0x0d, Z7, Z8, K1
	VCMPPD  $0x0d, Z7, Z9, K3
	KSHIFTLW $8, K3, K4
	KORTESTW K4, K1
	JEQ     r16next
	VMOVAPD Z7, Z10
	VMOVAPD Z7, Z11
	VMOVAPD Z8, K1, Z10
	VMOVAPD Z9, K3, Z11
	VMAXPD  Z11, Z10, Z10
	VSHUFF64X2 $0x4e, Z10, Z10, Z11 // swap 256-bit halves
	VMAXPD  Z11, Z10, Z10
	VSHUFF64X2 $0xb1, Z10, Z10, Z11 // swap 128-bit pairs
	VMAXPD  Z11, Z10, Z10
	VPERMILPD $0x55, Z10, Z11       // swap within 128 bits
	VMAXPD  Z11, Z10, Z10           // the maximum, in every lane
	VCMPPD  $0x00, Z10, Z8, K1, K5  // candidates equal to it
	VCMPPD  $0x00, Z10, Z9, K3, K6
	KSHIFTLW $8, K6, K6
	KORW    K6, K5, K5
	KMOVW   K5, CX
	BSFL    CX, CX                  // x of the first: the smallest j
	VPBROADCASTQ CX, Z11
	VPERMI2PD Z9, Z8, Z11           // lane x's exact bits
	ADDQ    AX, CX
	ADDQ    k+104(FP), CX           // j = i+k+x
	MOVQ    ii+72(FP), R14
	VCMPPD  $0x1e, Z7, Z11, K1      // > ci[i]
	KORTESTW K1, K1
	JNE     r16row
	MOVLQSX (R14)(AX*4), DI         // equal: the smaller neighbor wins
	CMPQ    CX, DI
	JGE     r16next

r16row:
	VMOVSD  X11, (SI)(AX*8)
	MOVL    CX, (R14)(AX*4)
	JMP     r16next

// func seedSteps16(qt, t, means, invs, corr, thr *float64, k, l int,
//                  invFl float64, i0, n int) (stop int, mask uint64)
// seedSteps4 at sixteen lanes, two ZMM vectors of eight chains qt[0..15]
// of diagonals k..k+15. Over cells i in [i0, n), lane x on diagonal k+x
// (j = i+k+x):
//   qt[x] += t[i+l-1]*t[j+l-1] - t[i-1]*t[j-1]
//   c      = ((qt*invFl) - means[i]*means[j]) * invs[i] * invs[j]
// Returns at the first i where any lane has c >= corr[i], c >= corr[j],
// c*c >= thr[i] or c*c >= thr[j] (chains advanced to that cell and stored
// back; the four conditions' lane masks in bits 0-15, 16-31, 32-47 and
// 48-63 of mask), or at n with mask 0. A row costs 20 vector multiplies,
// adds and subtracts (18 for the raw recurrence and its correlation, and
// the two squares) and 8 compares.
// The loop tests the complement: each half's four NGE_US compares are
// chained through the write mask, so a lane bit survives only where no
// condition holds, and a row runs on when all sixteen survive. Winner and
// list state are never written here.
TEXT ·seedSteps16(SB), NOSPLIT, $0-104
	MOVQ t+8(FP), R8
	MOVQ l+56(FP), CX
	LEAQ -8(R8)(CX*8), R9 // &t[l-1]
	MOVQ means+16(FP), R10
	MOVQ invs+24(FP), R11
	MOVQ corr+32(FP), R13
	MOVQ thr+40(FP), R14
	VBROADCASTSD invFl+64(FP), Z2
	MOVQ i0+72(FP), AX
	MOVQ n+80(FP), DX
	MOVQ k+48(FP), CX
	ADDQ AX, CX // j = i + k (lane 0)
	MOVQ qt+0(FP), SI
	VMOVUPD (SI), Z0   // chains of lanes 0-7
	VMOVUPD 64(SI), Z1 // chains of lanes 8-15
	XORQ BX, BX
	CMPQ AX, DX
	JGE  s16done

s16loop:
	VBROADCASTSD (R9)(AX*8), Z3   // ha = t[i+l-1]
	VBROADCASTSD -8(R8)(AX*8), Z4 // hb = t[i-1]
	VMULPD  (R9)(CX*8), Z3, Z8    // ha*t[j+l-1]
	VMULPD  64(R9)(CX*8), Z3, Z9
	VMULPD  -8(R8)(CX*8), Z4, Z10 // hb*t[j-1]
	VMULPD  56(R8)(CX*8), Z4, Z11
	VSUBPD  Z10, Z8, Z8
	VSUBPD  Z11, Z9, Z9
	VADDPD  Z8, Z0, Z0            // qt += ha*w - hb*u
	VADDPD  Z9, Z1, Z1
	VBROADCASTSD (R10)(AX*8), Z5  // mi
	VBROADCASTSD (R11)(AX*8), Z6  // vi
	VMULPD  Z2, Z0, Z8            // qt*invFl
	VMULPD  Z2, Z1, Z9
	VMULPD  (R10)(CX*8), Z5, Z10  // mi*mj
	VMULPD  64(R10)(CX*8), Z5, Z11
	VSUBPD  Z10, Z8, Z8
	VSUBPD  Z11, Z9, Z9
	VMULPD  Z6, Z8, Z8            // * vi
	VMULPD  Z6, Z9, Z9
	VMULPD  (R11)(CX*8), Z8, Z8   // * vj -> c lanes
	VMULPD  64(R11)(CX*8), Z9, Z9
	VMULPD  Z8, Z8, Z10           // c^2
	VMULPD  Z9, Z9, Z11
	VBROADCASTSD (R13)(AX*8), Z14 // corr[i]
	VBROADCASTSD (R14)(AX*8), Z15 // thr[i]
	VCMPPD  $0x09, Z14, Z8, K1                  // c < corr[i] (NGE_US)
	VCMPPD  $0x09, (R13)(CX*8), Z8, K1, K1      // and c < corr[j]
	VCMPPD  $0x09, Z15, Z10, K1, K1             // and c^2 < thr[i]
	VCMPPD  $0x09, (R14)(CX*8), Z10, K1, K1     // and c^2 < thr[j]
	VCMPPD  $0x09, Z14, Z9, K2
	VCMPPD  $0x09, 64(R13)(CX*8), Z9, K2, K2
	VCMPPD  $0x09, Z15, Z11, K2, K2
	VCMPPD  $0x09, 64(R14)(CX*8), Z11, K2, K2
	KUNPCKBW K1, K2, K1 // lanes 0-7 low, 8-15 high
	KORTESTW K1, K1     // CF: all sixteen lanes pass
	JCC     s16hit
	INCQ AX
	INCQ CX
	CMPQ AX, DX
	JLT  s16loop
	JMP  s16done

s16hit:
	VCMPPD  $0x0d, Z14, Z8, K1 // c >= corr[i] (GE_OS)
	VCMPPD  $0x0d, Z14, Z9, K2
	KUNPCKBW K1, K2, K1
	KMOVW   K1, BX
	VCMPPD  $0x0d, (R13)(CX*8), Z8, K1 // c >= corr[j]
	VCMPPD  $0x0d, 64(R13)(CX*8), Z9, K2
	KUNPCKBW K1, K2, K1
	KMOVW   K1, SI
	SHLQ    $16, SI
	ORQ     SI, BX
	VCMPPD  $0x0d, Z15, Z10, K1 // c^2 >= thr[i]
	VCMPPD  $0x0d, Z15, Z11, K2
	KUNPCKBW K1, K2, K1
	KMOVW   K1, SI
	SHLQ    $32, SI
	ORQ     SI, BX
	VCMPPD  $0x0d, (R14)(CX*8), Z10, K1 // c^2 >= thr[j]
	VCMPPD  $0x0d, 64(R14)(CX*8), Z11, K2
	KUNPCKBW K1, K2, K1
	KMOVW   K1, SI
	SHLQ    $48, SI
	ORQ     SI, BX

s16done:
	MOVQ qt+0(FP), SI
	VMOVUPD Z0, (SI)
	VMOVUPD Z1, 64(SI)
	MOVQ AX, stop+88(FP)
	MOVQ BX, mask+96(FP)
	VZEROUPPER
	RET

// func dotRowBlocks32(row, q, x *float64, l, nb int)
// dotRowBlocks16 at thirty-two cells per block, four ZMM accumulators:
// for b in [0, nb) and c in [0, 32), row[32b+c] = sum over p in [0, l)
// of q[p]*x[32b+c+p], each lane summed from zero in ascending p.
TEXT ·dotRowBlocks32(SB), NOSPLIT, $0-40
	MOVQ row+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ l+24(FP), CX
	MOVQ nb+32(FP), DX
	TESTQ DX, DX
	JLE   dr32done

dr32block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ R8, R9 // &x[32b+p]
	XORQ AX, AX // p
	CMPQ AX, CX
	JGE  dr32store

dr32term:
	VBROADCASTSD (SI)(AX*8), Z4 // q[p]
	VMULPD  (R9), Z4, Z5
	VMULPD  64(R9), Z4, Z6
	VMULPD  128(R9), Z4, Z7
	VMULPD  192(R9), Z4, Z8
	VADDPD  Z5, Z0, Z0
	VADDPD  Z6, Z1, Z1
	VADDPD  Z7, Z2, Z2
	VADDPD  Z8, Z3, Z3
	ADDQ $8, R9
	INCQ AX
	CMPQ AX, CX
	JLT  dr32term

dr32store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, R8
	DECQ DX
	JNZ  dr32block

dr32done:
	VZEROUPPER
	RET
