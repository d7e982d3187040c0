package kernels

import (
	"fmt"
	"os"
)

// Variant identifies one dispatch tier of the kernel layer.
type Variant int

const (
	// Generic is the portable tier: unrolled, bounds-check-free Go bodies
	// that run on every architecture.
	Generic Variant = iota
	// AVX2 is the amd64 assembly tier (4 float64 lanes, no FMA).
	AVX2
	// AVX512 is AVX2 with three AVX-512F bodies, no FMA: CovScan and
	// SeedScan advance 16 diagonals per step, DotRow sums 32 cells per
	// block. Every other kernel runs its avx2 body.
	AVX512
)

func (v Variant) String() string {
	switch v {
	case Generic:
		return "generic"
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// active is the tier every kernel entry point dispatches on. It is chosen
// once at init (highest available tier, overridable via VALMOD_KERNELS)
// and only tests change it afterwards; all tiers are bit-identical, so a
// racy read could at worst pick a stale — equally correct — tier.
var active = defaultVariant()

// Active reports the tier kernels currently dispatch to.
func Active() Variant { return active }

// Available lists the tiers this process can run, in ascending order.
// Parity tests iterate it so every reachable dispatch path is certified.
func Available() []Variant {
	vs := []Variant{Generic}
	if hasAVX2 {
		vs = append(vs, AVX2)
	}
	if hasAVX512 {
		vs = append(vs, AVX512)
	}
	return vs
}

// SetVariant forces the dispatch tier. It fails if the tier needs CPU
// features this machine lacks. Intended for tests and benchmarks; the
// production override is the VALMOD_KERNELS environment variable.
func SetVariant(v Variant) error {
	switch v {
	case Generic:
	case AVX2:
		if !hasAVX2 {
			return fmt.Errorf("kernels: avx2 variant not available on this CPU")
		}
	case AVX512:
		if !hasAVX512 {
			return fmt.Errorf("kernels: avx512 variant not available on this CPU")
		}
	default:
		return fmt.Errorf("kernels: unknown variant %d", int(v))
	}
	active = v
	return nil
}

// defaultVariant picks the startup tier: VALMOD_KERNELS=generic|avx2|avx512
// if set (falling back with a warning to the highest tier the hardware
// supports when it can't honor the choice), otherwise that highest tier.
func defaultVariant() Variant {
	switch env := os.Getenv("VALMOD_KERNELS"); env {
	case "":
	case "generic":
		return Generic
	case "avx2":
		if hasAVX2 {
			return AVX2
		}
		fmt.Fprintln(os.Stderr, "valmod: VALMOD_KERNELS=avx2 but CPU lacks AVX2; using generic")
		return Generic
	case "avx512":
		if hasAVX512 {
			return AVX512
		}
		v := highestVariant()
		fmt.Fprintf(os.Stderr, "valmod: VALMOD_KERNELS=avx512 but CPU lacks AVX-512F; using %v\n", v)
		return v
	default:
		fmt.Fprintf(os.Stderr, "valmod: unknown VALMOD_KERNELS=%q (want generic|avx2|avx512); using default\n", env)
	}
	return highestVariant()
}

// highestVariant is the last tier Available lists.
func highestVariant() Variant {
	vs := Available()
	return vs[len(vs)-1]
}
