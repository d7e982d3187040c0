//go:build amd64

package kernels

// cpuid executes the CPUID instruction for (leaf, subleaf).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended control register that reports which
// vector register state the OS saves on context switch.
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether this CPU and OS support AVX2: the CPU must
// advertise AVX (leaf 1 ECX bit 28) and AVX2 (leaf 7 EBX bit 5), and the
// OS must save XMM+YMM state (OSXSAVE set, XCR0 bits 1–2).
var hasAVX2 = detectAVX2()

// hasAVX512 reports whether the avx512 tier can run: AVX2 as above (the
// tier's other kernels are the avx2 bodies), AVX-512F (leaf 7 EBX bit 16),
// and OS support for the opmask and full ZMM state (XCR0 bits 5–7).
var hasAVX512 = hasAVX2 && detectAVX512()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM (bit 1) and YMM (bit 2) state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// detectAVX512 assumes detectAVX2 succeeded, so leaf 7 and XGETBV exist.
func detectAVX512() bool {
	xcr0, _ := xgetbv0()
	if xcr0&0xe6 != 0xe6 { // XMM, YMM (bits 1–2), opmask, ZMM_Hi256, Hi16_ZMM (bits 5–7)
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}
