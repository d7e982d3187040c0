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
