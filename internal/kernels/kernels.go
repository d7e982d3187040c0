// Package kernels holds the engine's arithmetic hot loops — the STOMP row
// recurrence, the branch-free correlation row scan (the nearest neighbor
// and the partial-profile refill of one row in one pass), the direct
// dot-product row, the streaming column scan, the diagonal pass of the
// incremental cross-length engine, and the seed sweep that fuses a
// diagonal pass with the partial-profile selection — consolidated from the
// per-file copies that used to live in internal/core, internal/stomp and
// the hot-row path.
//
// Two recurrences run here. RowNext, RowScan, ColScan, SeedScan and
// AdvanceDot work on raw dot products QT(i, j), because the pruned
// machinery keeps them: AdvanceDot carries a retained entry's QT across
// lengths and the lower bound reads it. The incremental pass's diagonal
// scan (CovScan) works on SCAMP's mean-centred covariance instead, whose
// per-cell update needs no means and no 1/ℓ: two products and two adds
// advance a cell, two multiplies give its correlation.
//
// Every routine here is paired with a naive reference implementation in
// ref.go that spells out the defining loop, and TestKernelParity asserts
// every dispatch tier is bit-identical to it (including σ=0 degenerate
// windows and exclusion zones clipped at the series edges). Because every
// plan of the engine — pruned, from-scratch full, incremental, streaming —
// calls the same kernels, arithmetic identity across plans is enforced by
// construction: there is exactly one expression for each recurrence and
// one for the division-free correlation compare of each path.
//
// # Dispatch tiers
//
// Each kernel dispatches to one of three tiers, selected once at process
// start (see dispatch.go; VALMOD_KERNELS forces a tier):
//
//   - generic — the portable Go bodies: unrolled loops with hoisted
//     bounds and interleaved diagonal chains in the diagonal passes.
//   - avx2 — amd64 assembly (runtime CPUID-detected), four float64 lanes
//     per vector. The assembly never uses FMA: fused multiply-adds round
//     differently from the separate multiply and add the portable tier
//     performs, and bit-identity across tiers is a hard contract. Its
//     scans (RowScan, ColScan, CovScan, SeedScan) share one stop
//     protocol: the assembly computes correlations and returns only where
//     a lane could change winner or list state, and Go applies the
//     compare-updates and list offers there.
//   - avx512 — avx2 plus three AVX-512F bodies (runtime CPUID- and
//     XCR0-detected), again without FMA: a CovScan that advances sixteen
//     diagonals per step in two eight-lane ZMM chains over a group's whole
//     common range in one call, applying the winner updates of each row
//     where a lane reaches a slot in the assembly itself; a SeedScan that
//     advances sixteen diagonals per step in the same two chains but keeps
//     the avx2 stop protocol, since nearly every stop carries a list offer
//     for Go; and a DotRow of thirty-two cells per block. Every other
//     kernel runs its avx2 body.
//
// Winner state stays in Go, except in CovScan's avx512 body: there the
// winner rule has a second copy, in assembly, that only parity against
// RefCovScan keeps honest (TestKernelParityCovScan rescans warmed slots
// so that every lane must win exact ties).
//
// Every tier must produce bit-identical outputs. For pure arithmetic
// (RowNext, DotRow) that holds lane-by-lane because each output cell's
// operations run in the same order in every tier. For the winner scans
// (RowScan, ColScan, CovScan, SeedScan) it holds because winner
// selection is a maximum under the strict total order (correlation
// descending, neighbor offset ascending on exact ties), which is
// associative and commutative — any tier may reorder candidate visits, but
// every reordering reduces to the same argmax. The candidate lists of
// SeedScan and RowScan are the best entries under another strict order
// (c² descending, offset ascending, c the cell's correlation), likewise
// independent of visiting order. AdvanceDot is the
// one kernel with a single serial floating-point accumulation chain and
// no slack to reorder, so every tier shares the one scalar loop.
//
// # Optimization rules the kernels follow
//
//   - Exclusion zones are handled by splitting each per-cell scan into the
//     two branch-free j-ranges [0, lo] and [hi, s) instead of testing
//     every cell against the zone.
//   - Loops are unrolled with slice bounds hoisted into sub-slices, so the
//     compiler can eliminate per-cell bounds checks.
//   - The diagonal passes interleave independent diagonals per sweep: each
//     diagonal's recurrence is a serial dependency chain, so interleaving
//     independent chains is what actually feeds the multiply units.
//   - No fused multiply-adds where a bit contract holds. Go may fuse
//     x·y + z into one instruction on some architectures (arm64 does), and
//     the fused form rounds once where the assembly and the other tiers
//     round twice. Every portable body and reference rounds each product
//     with an explicit float64(…) conversion before it meets an add, which
//     forbids the fusion; series.Dot and the moments in internal/series do
//     the same. CI cross-compiles for arm64 and fails on any fused
//     instruction from a non-test file of this package or internal/series
//     (scripts/check_no_fma.sh).
package kernels

import "math"

// RowNext advances a STOMP dot-product row in place from anchor i−1 to
// anchor i at length l: row[j] = row[j−1] + t[i+l−1]·t[j+l−1] −
// t[i−1]·t[j−1] for j = s−1 … 1, reading row[j−1] before it is
// overwritten (descending order). row[0] is left untouched — the caller
// owns the j=0 boundary (an O(l) dot product or a symmetry lookup).
func RowNext(row, t []float64, i, l, s int) {
	switch active {
	case AVX2, AVX512:
		rowNextAVX2(row, t, i, l, s)
	default:
		rowNextGeneric(row, t, i, l, s)
	}
}

// ArgmaxCorr returns the argmax over j ∈ [0, e1) ∪ [j2, s) of the
// division-free correlation
//
//	corr(j) = (row[j]·invFl − muA·means[j]) · invA · invs[j]
//
// — the raw-dot-product correlation expression of the engine, shared
// bit-for-bit with ColScan and SeedScan (invFl = 1/ℓ, computed once per
// scan) — under strict
// improvement (the first maximum in ascending j wins — exactly the tie
// behavior of the scalar scan it replaces; an incoming bestCorr/bestJ seed
// survives exact ties). A degenerate candidate (invs[j] = 0) contributes
// corr 0, the √(2l)-distance convention. bestCorr/bestJ seed the running
// maximum (pass −Inf, −1 to start fresh). The two half-open ranges are the
// branch-free split of the exclusion zone, clipped here to [0, s): anchor
// i with exclusion half-width excl passes e1 = i−excl+1 and j2 = i+excl.
// It is RowScan with no list.
func ArgmaxCorr(row, means, invs []float64, e1, j2, s int, invFl, muA, invA float64, bestCorr float64, bestJ int) (float64, int) {
	return RowScan(row, means, invs, e1, j2, s, invFl, muA, invA, bestCorr, bestJ, nil)
}

// RowScan is ArgmaxCorr fused with a recompute's partial-profile refill:
// in the same pass, every candidate j is offered to top's list 0 (a
// one-anchor list) with its dot product row[j] and the key corr(j), the
// correlation the lower bound ranks by (see TopLists). Only the
// candidates whose c² reaches the list's threshold Thr call
// TopLists.Offer, and Thr is re-read after each offer. A nil top scans
// for the maximum alone. Each range is visited in ascending j on every
// tier, so the running best and the list both match the plain loop
// (RefRowScan) bit for bit.
func RowScan(row, means, invs []float64, e1, j2, s int, invFl, muA, invA float64, bestCorr float64, bestJ int, top *TopLists) (float64, int) {
	e1 = min(max(e1, 0), s)
	j2 = min(max(j2, e1), s)
	switch active {
	case AVX2, AVX512:
		bestCorr, bestJ = rowScanAVX2(row, means, invs, 0, e1, invFl, muA, invA, bestCorr, bestJ, top)
		return rowScanAVX2(row, means, invs, j2, s, invFl, muA, invA, bestCorr, bestJ, top)
	default:
		bestCorr, bestJ = rowScanGeneric(row, means, invs, 0, e1, invFl, muA, invA, bestCorr, bestJ, top)
		return rowScanGeneric(row, means, invs, j2, s, invFl, muA, invA, bestCorr, bestJ, top)
	}
}

// ExtendRow advances anchor i's dot-product row across every pending
// length step: cell j accumulates t[i+p]·t[j+p] for p ∈ [cur, min(l, n−j))
// in ascending p order, one pass per step, as RefExtendRow spells out. A
// row that starts as a DotRow at length cur therefore ends as the DotRow
// at length l. Cells at j ≥ n−cur receive no step and are not touched.
// row must have at least n−cur valid cells when cur < l. No pass of the
// engine runs it; it is one plain loop on every tier.
func ExtendRow(row, t []float64, i, cur, l int) {
	n := len(t)
	for p := cur; p < l; p++ {
		a := t[i+p]
		x := t[p:n]
		r := row[:len(x)]
		for j, v := range x {
			r[j] += float64(a * v)
		}
	}
}

// DotRow writes the dot products of the query q against the windows of t
// of its length: row[j] = Σ_{p<len(q)} q[p]·t[j+p] for j ∈ [0, s), each
// cell summed from zero in ascending p. With q = t[i:i+l] it is anchor i's
// row at length l, the series.Dot of the two windows bit for bit. It
// costs s·len(q) multiply-adds, where a row through the FFT correlator
// costs O(n log n) at any length, so it is the cheaper row at short
// lengths (the engine's cutover is in internal/core). The tiers
// interleave independent cells, never the terms of one cell, so every
// tier writes the same bits.
func DotRow(row, t, q []float64, s int) {
	switch active {
	case AVX512:
		dotRowAVX512(row, t, q, s)
	case AVX2:
		dotRowAVX2(row, t, q, 0, s)
	default:
		dotRowGeneric(row, t, q, 0, s)
	}
}

// AdvanceDot adds Σ t[i+p]·t[j+p] for p ∈ [p0, p1) to qt, in ascending p
// order — the fused form of one product per length step, carrying a
// retained entry's dot product across every pending length step at once.
//
// AdvanceDot is one serial floating-point accumulation chain: any
// reassociation (lane splitting, pairwise trees) changes the rounding, so
// every dispatch tier shares this scalar loop. The callers amortize it —
// one call per retained entry, ranges of a few steps — so it is never the
// pass bottleneck the vectorized kernels are.
func AdvanceDot(qt float64, t []float64, i, j, p0, p1 int) float64 {
	if p1 <= p0 {
		return qt
	}
	a := t[i+p0 : i+p1]
	b := t[j+p0 : j+p1]
	b = b[:len(a)] // same width by construction; the fact feeds BCE
	for x, av := range a {
		qt += float64(av * b[x])
	}
	return qt
}

// ColScan is the streaming right-append pass: window j of length l has
// just been appended and col[i] = QT(i, j) holds its dot products against
// every earlier window (the column AppendColumn produced). The scan visits
// the non-trivial candidates i ∈ [0, iEnd) (iEnd = j − excl + 1 clamped at
// 0), computes the engine's division-free correlation
//
//	c = (col[i]·invFl − means[i]·muJ) · invs[i] · invJ
//
// (anchor-side factors first — the same association SeedScan uses for a
// cell (i, j) with i < j), improves slot i with candidate (c, j) under the
// strict total order (corr descending, neighbor ascending on exact ties),
// and returns the running best candidate for slot j itself — seeded by
// bestCorr/bestIdx (pass −Inf, −1 to start fresh), scanned in ascending i
// under strict improvement, so exact ties keep the smallest neighbor
// exactly as the total order demands. A degenerate endpoint (invs or invJ
// zero) contributes correlation 0, the √(2l)-distance convention.
func ColScan(col, means, invs []float64, iEnd int, invFl, muJ, invJ float64, corr []float64, idx []int32, j int32, bestCorr float64, bestIdx int32) (float64, int32) {
	switch active {
	case AVX2, AVX512:
		return colScanAVX2(col, means, invs, iEnd, invFl, muJ, invJ, corr, idx, j, bestCorr, bestIdx)
	default:
		return colScanGeneric(col, means, invs, iEnd, invFl, muJ, invJ, corr, idx, j, bestCorr, bestIdx)
	}
}

// CovScan is the diagonal pass of the length-l self-join on SCAMP's
// mean-centred covariance recurrence (Zimmerman et al., "Matrix Profile
// XIV", SoCC 2019). It streams diagonals [k0, k1) of s windows: each
// diagonal starts from its head cell cov[k] = cov(0, k) and advances with
//
//	cov(i, j) = cov(i−1, j−1) + (df[i]·dg[j] + dg[i]·df[j])
//
// (the two products, their sum, then the add into cov), and every cell's
// correlation c = (cov·nrm[i])·nrm[j] updates the running best of both
// endpoints in corr/idx under the strict total order (corr descending,
// neighbor offset ascending on exact ties). CovInputs prepares df, dg,
// nrm and the head. Independent diagonals are interleaved per sweep —
// independent recurrence chains — which the total order renders
// bit-identical to the one-diagonal reference (RefCovScan) whatever the
// interleave width each dispatch tier picks.
func CovScan(cov, df, dg, nrm []float64, k0, k1, s int, corr []float64, idx []int32) {
	switch active {
	case AVX512:
		covScanAVX512(cov, df, dg, nrm, k0, k1, s, corr, idx)
	case AVX2:
		covScanAVX2(cov, df, dg, nrm, k0, k1, s, corr, idx)
	default:
		covScanGeneric(cov, df, dg, nrm, k0, k1, s, corr, idx)
	}
}

// CovInputs prepares CovScan's inputs at length l for the s = len(df)
// windows of t. The windows are centred on means that step with the data,
// a₀ = a0 and aᵢ = aᵢ₋₁ + (t[i+l−1] − t[i−1])/l, which is what keeps the
// recurrence exact; then, for i ≥ 1,
//
//	df[i] = (t[i+l−1] − t[i−1])·0.5
//	dg[i] = (t[i+l−1] − aᵢ) + (t[i−1] − aᵢ₋₁)
//
// (both 0 at i = 0), nrm[i] = invs[i]·(1/√l), so that c is the Pearson
// correlation (invs[i] = 1/σᵢ, 0 for σ = 0, which keeps c = 0), and the
// head cov[k] −= aₖ·w. With cov the dot row of the query q = t[0:l] − a₀
// against t and w = Σq, the head becomes cov(0, k) = Σ q[p]·(t[k+p] − aₖ).
func CovInputs(t, cov, df, dg, nrm, invs []float64, a0, w float64, l int) {
	s := len(df)
	fl := float64(l)
	isl := 1 / math.Sqrt(fl)
	dg = dg[:s]
	nrm = nrm[:s]
	cov = cov[:s]
	a := a0
	df[0], dg[0] = 0, 0
	cov[0] -= float64(a * w)
	nrm[0] = invs[0] * isl
	for i := 1; i < s; i++ {
		in, out := t[i+l-1], t[i-1]
		prev := a
		a += (in - out) / fl
		df[i] = (in - out) * 0.5
		dg[i] = (in - a) + (out - prev)
		nrm[i] = invs[i] * isl
		cov[i] -= float64(a * w)
	}
}

// DiagScan is the diagonal pass from a raw head row: head[k] = QT(0, k),
// the window means and invs[i] = 1/σᵢ at length l, s = len(t) − l + 1. It
// centres the windows on means[0] and the data's steps (CovInputs, with
// cov(0, k) = QT(0, k) − l·a₀·aₖ) and runs CovScan over diagonals
// [k0, k1). It allocates its inputs; the engine prepares its own and
// calls CovScan.
func DiagScan(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32) {
	cov := make([]float64, 4*s)
	copy(cov, head[:s])
	df, dg, nrm := cov[s:2*s], cov[2*s:3*s], cov[3*s:]
	CovInputs(t, cov[:s], df, dg, nrm, invs, means[0], float64(l)*means[0], l)
	CovScan(cov[:s], df, dg, nrm, k0, k1, s, corr, idx)
}

// SeedScan is a diagonal pass on raw dot products fused with the seed of
// VALMOD's partial distance profiles. Each diagonal starts from its head
// cell head[k] = QT(0, k) and advances with the in-length recurrence
// QT(i, j) = QT(i−1, j−1) + t[i+l−1]·t[j+l−1] − t[i−1]·t[j−1]; each cell's
// correlation c = (QT·invFl − means[i]·means[j])·invs[i]·invs[j] updates
// both profile slots under the total order, and the cell (i, j = i+k)
// offers candidate j to anchor i and candidate i to anchor j, both keyed
// by c, with QT as the entry's dot product. The
// lower bound ranks an anchor's candidates by q̃² = (ℓ·σ_anchor·c)², an
// order c² shares (see package lb). top keeps each anchor's best offers
// (see TopLists.Offer). Only offers whose c² reaches an anchor's current
// threshold Thr, or cells that reach a profile slot, leave the dispatch
// tier's filter; the winner and list rules are total orders, so the
// result is independent of visiting order and of the tier.
func SeedScan(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32, top *TopLists) {
	switch active {
	case AVX512:
		seedScanAVX512(t, head, means, invs, k0, k1, l, s, corr, idx, top)
	case AVX2:
		seedScanAVX2(t, head, means, invs, k0, k1, l, s, corr, idx, top)
	default:
		seedScanGeneric(t, head, means, invs, k0, k1, l, s, corr, idx, top)
	}
}

// TopLists is the partial profiles' candidate selection — SeedScan's
// per-worker lists and a recompute's one-anchor refill list (RowScan)
// alike: per anchor, the best Cap candidates offered so far under the
// strict total order (key² descending, candidate offset ascending). Both
// scans key a candidate by the pair's correlation c, so the order is the
// lower bound's (q̃² descending) without its per-anchor factor. Anchor a's
// entries sit at [a·Cap, a·Cap+Len[a]) of J, QT and Q, best first. The
// list contents are a pure function of the set of offers, never of their
// order.
type TopLists struct {
	Cap int
	Len []int32
	// Thr[a] is the key² of anchor a's last entry once its list is full
	// and −1 before: an offer keyed below it cannot enter. A caller sets
	// +Inf to close a list: no offer for it passes a scan's filter or
	// enters it (the seed sweep closes the lists of σ = 0 anchors, which
	// keep no entries).
	Thr []float64
	J   []int32
	QT  []float64 // the pair's dot product
	Q   []float64 // the rank key c
}

// NewTopLists returns empty lists of capacity c ≥ 1 for s anchors.
func NewTopLists(s, c int) *TopLists {
	tl := &TopLists{
		Cap: c,
		Len: make([]int32, s),
		Thr: make([]float64, s),
		J:   make([]int32, s*c),
		QT:  make([]float64, s*c),
		Q:   make([]float64, s*c),
	}
	tl.Reset(s)
	return tl
}

// Reset empties the lists of anchors [0, s), so one set of lists serves
// every length with at most as many anchors as it was built for.
func (tl *TopLists) Reset(s int) {
	clear(tl.Len[:s])
	for a := range tl.Thr[:s] {
		tl.Thr[a] = -1
	}
}

// Offer inserts candidate j (dot product qt, key q) into anchor a's list
// when it ranks among the best Cap offered so far; the last entry of a
// full list falls off. It is the single definition of the list rule.
func (tl *TopLists) Offer(a int, j int32, qt, q float64) {
	q2 := q * q
	if q2 < tl.Thr[a] {
		return
	}
	n, c := int(tl.Len[a]), tl.Cap
	base := a * c
	js := tl.J[base : base+c]
	qts := tl.QT[base : base+c]
	qts = qts[:len(js)]
	qs := tl.Q[base : base+c]
	qs = qs[:len(js)]
	x := n
	if n == c {
		if q2 == tl.Thr[a] && j > js[c-1] {
			return
		}
		x = c - 1
	} else {
		tl.Len[a] = int32(n + 1)
	}
	for ; x > 0; x-- {
		e2 := qs[x-1] * qs[x-1]
		if e2 > q2 || (e2 == q2 && js[x-1] < j) {
			break
		}
		js[x], qts[x], qs[x] = js[x-1], qts[x-1], qs[x-1]
	}
	js[x], qts[x], qs[x] = j, qt, q
	if int(tl.Len[a]) == c {
		tl.Thr[a] = qs[c-1] * qs[c-1]
	}
}

// Merge offers every entry of o's list for anchor a to tl's: afterwards
// tl holds the best Cap of both lists' candidates (disjoint sets, as the
// per-worker lists of one sweep are).
func (tl *TopLists) Merge(o *TopLists, a int) {
	base := a * o.Cap
	for x := base; x < base+int(o.Len[a]); x++ {
		tl.Offer(a, o.J[x], o.QT[x], o.Q[x])
	}
}

// update applies one candidate (c, j) to slot i of corr/idx under the
// total order. It is the Go definition of the winner rule; diagRun16
// (avx512_amd64.s) applies the same rule in assembly.
func update(corr []float64, idx []int32, i int, c float64, j int32) {
	if c > corr[i] || (c == corr[i] && j < idx[i]) {
		corr[i], idx[i] = c, j
	}
}
