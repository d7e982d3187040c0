//go:build !amd64

package kernels

// Non-amd64 builds never select the AVX2 or AVX512 tier (hasAVX2 and
// hasAVX512 are false), but the dispatchers still reference these names;
// delegate to the generic bodies.

func rowNextAVX2(row, t []float64, i, l, s int) {
	rowNextGeneric(row, t, i, l, s)
}

func rowScanAVX2(row, means, invs []float64, j0, j1 int, invFl, muA, invA float64, bestCorr float64, bestJ int, top *TopLists) (float64, int) {
	return rowScanGeneric(row, means, invs, j0, j1, invFl, muA, invA, bestCorr, bestJ, top)
}

func colScanAVX2(col, means, invs []float64, iEnd int, invFl, muJ, invJ float64, corr []float64, idx []int32, j int32, bestCorr float64, bestIdx int32) (float64, int32) {
	return colScanGeneric(col, means, invs, iEnd, invFl, muJ, invJ, corr, idx, j, bestCorr, bestIdx)
}

func covScanAVX2(cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32) {
	covScanGeneric(cov, df, dg, nrm, k0, k1, s, corr, idx)
}

func seedScanAVX2(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32, top *TopLists) {
	seedScanGeneric(t, head, means, invs, k0, k1, l, s, corr, idx, top)
}

func covScanAVX512(cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32) {
	covScanGeneric(cov, df, dg, nrm, k0, k1, s, corr, idx)
}

func seedScanAVX512(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32, top *TopLists) {
	seedScanGeneric(t, head, means, invs, k0, k1, l, s, corr, idx, top)
}

func dotRowAVX2(row, t, q []float64, j0, s int) {
	dotRowGeneric(row, t, q, j0, s)
}

func dotRowAVX512(row, t, q []float64, s int) {
	dotRowGeneric(row, t, q, 0, s)
}
