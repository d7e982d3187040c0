package core

// directRowK is the cutover between the two from-scratch rows (rows.go):
// the direct row is taken while its counted work s·ℓ is below
// directRowK·size·log₂size. It is the FFT correlator's cost per unit of
// size·log₂size (a packed DotsPair row, the recompute path's) over
// DotRow's cost per multiply-add. On amd64 it is fitted on the avx2 tier,
// like cost.go's constants, and shared by the generic, avx2 and avx512
// tiers, whose outputs must agree bit for bit; ARCHITECTURE.md records
// the fit.
const directRowK = 25
