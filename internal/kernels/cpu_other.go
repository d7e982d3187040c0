//go:build !amd64

package kernels

// Non-amd64 builds have no assembly tier.
const (
	hasAVX2   = false
	hasAVX512 = false
)
