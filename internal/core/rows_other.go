//go:build !amd64

package core

// directRowK (see rows_amd64.go) is the generic tier's own fit off amd64.
// Generic is the only tier there, so no other tier has to take the same
// side of the cutover, and each row takes the cheaper body for it.
const directRowK = 5
