//go:build amd64

#include "textflag.h"

// AVX-512F kernel routines, under the rules of kernels_amd64.s: no FMA,
// no winner-state writes, every lane's evaluation order that of the
// scalar expression it replaces. Only Z0–Z15 are used, so the closing
// VZEROUPPER leaves no dirty upper register state behind.

// func diagSteps16(qt, w, u, ta, tb, mi, vi, mj, vj, ci, cj *float64,
//                  invFl float64, i0, n int) (stop, mask int)
// diagSteps4 over sixteen diagonal chains, two ZMM vectors of eight:
// over cells i in [i0, n), lane x in [0, 16)
//   qt[x] += ta[i]*w[i+x] - tb[i-1]*u[i+x]
//   c[x]   = ((qt[x]*invFl) - mi[i]*mj[i+x]) * vi[i] * vj[i+x]
// Returns at the first i where any lane has c >= ci[i] or c >= cj[i+x]
// (chains advanced to that cell and stored back; bit x of mask set for
// each such lane), or at n with mask 0. Winner state is never written.
TEXT ·diagSteps16(SB), NOSPLIT, $0-128
	MOVQ w+8(FP), R8
	MOVQ u+16(FP), R9
	MOVQ ta+24(FP), R10
	MOVQ tb+32(FP), R11
	MOVQ mi+40(FP), R12
	MOVQ vi+48(FP), R13
	MOVQ mj+56(FP), R14
	MOVQ vj+64(FP), DI
	MOVQ ci+72(FP), SI
	MOVQ cj+80(FP), BX
	VBROADCASTSD invFl+88(FP), Z2
	MOVQ i0+96(FP), AX
	MOVQ n+104(FP), DX
	MOVQ qt+0(FP), CX
	VMOVUPD (CX), Z0   // chains of lanes 0-7
	VMOVUPD 64(CX), Z1 // chains of lanes 8-15
	XORQ CX, CX
	CMPQ AX, DX
	JGE  d16done

d16loop:
	VBROADCASTSD (R10)(AX*8), Z3   // ha = ta[i]
	VBROADCASTSD -8(R11)(AX*8), Z4 // hb = tb[i-1]
	VMULPD  (R8)(AX*8), Z3, Z8     // ha*w[i : i+8]
	VMULPD  64(R8)(AX*8), Z3, Z9   // ha*w[i+8 : i+16]
	VMULPD  (R9)(AX*8), Z4, Z10    // hb*u
	VMULPD  64(R9)(AX*8), Z4, Z11
	VSUBPD  Z10, Z8, Z8
	VSUBPD  Z11, Z9, Z9
	VADDPD  Z8, Z0, Z0             // qt += ha*w - hb*u
	VADDPD  Z9, Z1, Z1
	VBROADCASTSD (R12)(AX*8), Z5   // m0 = mi[i]
	VMULPD  (R14)(AX*8), Z5, Z10   // m0*mj
	VMULPD  64(R14)(AX*8), Z5, Z11
	VMULPD  Z2, Z0, Z8             // qt*invFl
	VMULPD  Z2, Z1, Z9
	VSUBPD  Z10, Z8, Z8
	VSUBPD  Z11, Z9, Z9
	VBROADCASTSD (R13)(AX*8), Z6   // v0 = vi[i]
	VMULPD  Z6, Z8, Z8             // * v0
	VMULPD  Z6, Z9, Z9
	VMULPD  (DI)(AX*8), Z8, Z8     // * vj -> c lanes
	VMULPD  64(DI)(AX*8), Z9, Z9
	VBROADCASTSD (SI)(AX*8), Z7    // ci[i]
	VCMPPD  $0x0d, Z7, Z8, K1           // c >= ci[i] (GE_OS)
	VCMPPD  $0x0d, (BX)(AX*8), Z8, K2   // c >= cj[i+x]
	VCMPPD  $0x0d, Z7, Z9, K3
	VCMPPD  $0x0d, 64(BX)(AX*8), Z9, K4
	KORW    K2, K1, K1
	KORW    K4, K3, K3
	KORTESTW K3, K1
	JNE     d16hit
	INCQ AX
	CMPQ AX, DX
	JLT  d16loop
	JMP  d16done

d16hit:
	KMOVW K1, CX
	KMOVW K3, R10
	SHLL $8, R10
	ORL  R10, CX

d16done:
	MOVQ qt+0(FP), R10
	VMOVUPD Z0, (R10)
	VMOVUPD Z1, 64(R10)
	MOVQ AX, stop+112(FP)
	MOVQ CX, mask+120(FP)
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
