package stomp

// The right-append path of the diagonal traversal: where
// ExtendDiagonalHead carries dot-product state across *lengths*, AppendColumn
// carries it across *time*. A growing series gains one window per appended
// point (once n ≥ m), and the new window's dot products against every
// earlier window — the new last column QT(·, j) of the self-join — follow
// from the previous last column with the STOMP right-append recurrence
//
//	QT(i, j) = QT(i−1, j−1) + t[i+m−1]·t[j+m−1] − t[i−1]·t[j−1]
//
// (one fused multiply-add pair per cell; QT is symmetric, so this is
// kernels.RowNext with the anchor and candidate roles swapped). Only the
// head cell QT(0, j) needs a direct O(m) dot product. VALMOD's streaming
// append engine (internal/core) runs one such column per appended point
// per length — no prefix recompute, ever.

import (
	"fmt"

	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/series"
)

// AppendColumn advances the last-column state of a growing series to its
// newest window. t must already contain the appended point(s) up to and
// including window j = len(t) − m; col must hold the previous last column
// QT(i, j−1) in its first j cells (empty when j = 0). The returned slice
// (col, grown in place when capacity allows) holds QT(i, j) for i ∈ [0, j]
// — including the self-dot QT(j, j), which seeds the next append's
// recurrence.
func AppendColumn(col, t []float64, m int) ([]float64, error) {
	if err := validate(len(t), m); err != nil {
		return nil, err
	}
	j := len(t) - m
	if len(col) < j {
		return nil, fmt.Errorf("%w: append column has %d cells, need %d at m=%d", ErrBadLength, len(col), j, m)
	}
	col = append(col[:j], 0)
	if j == 0 {
		col[0] = series.Dot(t[0:m], t[0:m])
		return col, nil
	}
	// kernels.RowNext streams the recurrence downward (descending i reads
	// col[i−1] before overwriting it); the head cell is the one direct dot.
	kernels.RowNext(col, t, j, m, j+1)
	col[0] = series.Dot(t[0:m], t[j:j+m])
	return col, nil
}
