// Package lb implements the VALMOD lower-bounding distance: a bound on the
// z-normalized Euclidean distance between two subsequences at length ℓ+k
// computable from (a) full knowledge of one subsequence (the anchor, whose
// distance profile is being extended) and (b) only the length-ℓ statistics
// of the other (the candidate), retained from the ℓmin phase.
//
// # Derivation
//
// Let A = T[i : i+L+k] (anchor, fully known) and B = T[j : j+L+k]
// (candidate; only QT_L = Σ_{t<L} a_t·b_t, μ_{B,L}, σ_{B,L} known).
// With â the z-normalization of A at length L+k, the squared distance is
// d² = 2(L+k)(1−ρ), so a lower bound on d needs an upper bound on the
// correlation ρ = (1/(L+k))·Σ_t â_t·b̂_t.
//
// Parameterize the unknown full-length moments of B by α = σ_{B,L}/σ_B and
// β = (μ_{B,L}−μ_B)/σ_B, so that b̂_t = α·b̃_t + β on the known head
// (b̃ = B's head z-normalized at length L). Then
//
//	Σ_{t<L} â_t·b̂_t = α·Q̃ + β·S_head,
//	Q̃ = q̃/σ_A,  q̃ = (QT_L − μ_{B,L}·S_{A,L})/σ_{B,L},
//	S_head = (S_{A,L} − L·μ_A)/σ_A,
//
// and Cauchy–Schwarz bounds the unknown tail by
// sqrt(E_tail)·sqrt(L+k − L(α²+β²)) with E_tail = Σ_{t≥L} â_t².
// Maximizing over (α, β) (a second Cauchy–Schwarz over the disk
// α²+β² ≤ (L+k)/L) yields the closed form
//
//	ρ ≤ ρmax = min(1, sqrt( (Q̃² + S_head² + L·E_tail) / (L·(L+k)) ))
//	LB = sqrt( 2(L+k)·(1 − ρmax) )  ≤  d.
//
// # Rank preservation
//
// For a fixed anchor and target length, S_head and E_tail are shared by all
// candidates, and Q̃² = q̃²/σ_A² orders candidates identically for every k
// because q̃ is k-independent. Sorting candidates by q̃² descending therefore
// equals sorting by LB ascending at every length — the property the demo
// paper states ("the same rank will be preserved along all the lower bound
// updates") and the one that lets VALMOD keep only the p most-promising
// entries per distance profile.
//
// Since S_{A,L} = L·μ_{A,L}, the candidate term is the base-length
// correlation scaled by anchor-only factors:
//
//	q̃ = L·σ_{A,L}·ρ_L,  ρ_L = (QT_L/L − μ_{A,L}·μ_{B,L}) / (σ_{A,L}·σ_{B,L}),
//
// so ρ_L² orders an anchor's candidates as q̃² does. The engine ranks its
// partial profiles by ρ_L, the correlation every one of its scans already
// computes, and scales only the one key it bounds with back to q̃
// (internal/core/anchors, Store.Set).
//
// The bound decides which anchors certify, so its bits are a contract:
// every product that meets an add is rounded with an explicit float64(…),
// which keeps a compiler from fusing the two into one multiply-add on
// machines that have one (scripts/check_no_fma.sh).
package lb

import (
	"math"

	"github.com/seriesmining/valmod/internal/series"
)

// QTilde returns the k-independent candidate term q̃ of the lower bound:
// q̃ = (QT_L − μ_{B,L}·S_{A,L})/σ_{B,L}, where qtL is the length-L dot
// product between anchor and candidate, sumA the anchor head sum Σ_{t<L} a_t
// and muB/sdB the candidate's length-L moments. A degenerate candidate
// (σ_{B,L} = 0) contributes q̃ = 0, which the derivation shows is the exact
// collapse of the head term, not a special case.
func QTilde(qtL, sumA, muB, sdB float64) float64 {
	if sdB == 0 {
		return 0
	}
	return (qtL - float64(muB*sumA)) / sdB
}

// AnchorTerms holds the candidate-independent pieces of the bound for one
// anchor at one target length L+k. Building it costs O(1) given series
// cumulative statistics.
type AnchorTerms struct {
	L      int     // base length (where candidate stats were frozen)
	K      int     // extension, target length is L+K
	SigmaA float64 // anchor σ at length L+K
	SHead  float64 // (S_{A,L} − L·μ_A)/σ_A
	ETail  float64 // Σ_{t=L}^{L+K−1} â_t²
	valid  bool
}

// NewAnchorTerms computes the anchor-side terms for anchor offset i, base
// length l and target length l+k, from the series' cumulative statistics.
// A degenerate anchor (σ = 0 at the target length) yields terms whose
// Bound is always 0 (trivially valid).
func NewAnchorTerms(st *series.Stats, i, l, k int) AnchorTerms {
	muA, sdA := st.MeanStd(i, l+k)
	t := AnchorTerms{L: l, K: k, SigmaA: sdA}
	if sdA == 0 {
		return t
	}
	sumAL := st.Sum(i, l)
	t.SHead = (sumAL - float64(float64(l)*muA)) / sdA
	if k > 0 {
		sTail := st.Sum(i+l, k)
		ssTail := st.SumSq(i+l, k)
		et := (ssTail - float64(2*muA*sTail) + float64(float64(k)*muA*muA)) / (sdA * sdA)
		if et < 0 {
			et = 0
		}
		t.ETail = et
	}
	t.valid = true
	return t
}

// Bound returns the lower bound on the z-normalized distance at length
// L+K between the anchor described by t and a candidate with the given q̃.
func (t AnchorTerms) Bound(qTilde float64) float64 {
	if !t.valid {
		return 0
	}
	lf := float64(t.L)
	lk := float64(t.L + t.K)
	qHat := qTilde / t.SigmaA
	num := float64(qHat*qHat) + float64(t.SHead*t.SHead) + float64(lf*t.ETail)
	rhoMax := math.Sqrt(num / (lf * lk))
	if rhoMax > 1 {
		rhoMax = 1
	}
	return math.Sqrt(2 * lk * (1 - rhoMax))
}
