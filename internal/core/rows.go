package core

// Dot-product rows computed from scratch. The pruned pass's recomputes and
// run heads, the head rows of the seed sweep and the incremental pass, and
// the heads of the stream's eviction repair runs all need some anchor i's
// full row QT(i, j), j < s, at one length ℓ. There are two exact ways to
// get it:
//
//   - kernels.DotRow sums each cell directly, s·ℓ multiply-adds, bit for
//     bit series.Dot of the two windows;
//   - the FFT correlator computes the row in O(size·log₂size), size being
//     the series' padded transform length, whatever ℓ is.
//
// rowSource picks between them with one rule (direct) that reads only
// the geometry (n, ℓ, ℓmax) and the build's cutover constant directRowK
// (rows_amd64.go, rows_other.go), never the kernel tier or the worker
// count, so on one architecture every output bit stays a function of the
// input alone.

import (
	"math/bits"
	"sync"

	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/series"
)

// rowSource computes the from-scratch rows of one series. The FFT
// correlator is built by the first row that needs it, so a run whose
// lengths all take the direct row never transforms the series.
type rowSource struct {
	t    []float64
	lmax int
	size int // the correlator's padded transform length

	once sync.Once
	corr *fft.Correlator // nil until the first FFT row
}

func newRowSource(t []float64, lmax int) *rowSource {
	return &rowSource{t: t, lmax: lmax, size: fft.NextPowerOfTwo(len(t) + lmax - 1)}
}

// direct reports whether rows at length l take kernels.DotRow rather
// than the FFT. The counts are int64: s·ℓ reaches n²/4, past a 32-bit int
// at n ≈ 92 000.
func (rs *rowSource) direct(l int) bool {
	s := int64(len(rs.t) - l + 1)
	return s*int64(l) < directRowK*int64(rs.size)*int64(bits.TrailingZeros(uint(rs.size)))
}

// release returns the correlator's buffers, if one was built. Every
// rowWorker cloned from it must be released first.
func (rs *rowSource) release() {
	if rs.corr != nil {
		rs.corr.Release()
		rs.corr = nil
	}
}

// rowWorker is one goroutine's handle on a rowSource. An FFT row needs
// correlator scratch of its own, so a handle that runs concurrently with
// others (clone) takes a clone of the shared spectrum at its first FFT
// row; a handle that runs alone uses the source's correlator.
type rowWorker struct {
	src   *rowSource
	clone bool
	corr  *fft.Correlator // nil until this handle's first FFT row
}

func (w *rowWorker) correlator() *fft.Correlator {
	if w.corr == nil {
		rs := w.src
		rs.once.Do(func() { rs.corr = fft.NewCorrelator(rs.t, rs.lmax) })
		w.corr = rs.corr
		if w.clone {
			w.corr = rs.corr.Clone()
		}
	}
	return w.corr
}

// row writes anchor i's dot-product row at length l, QT(i, j) for j < s,
// into dst (at least s cells) and returns dst[:s].
func (w *rowWorker) row(dst []float64, i, l int) []float64 {
	t := w.src.t
	if !w.src.direct(l) {
		return w.correlator().Dots(t[i:i+l], dst)
	}
	s := len(t) - l + 1
	kernels.DotRow(dst, t, i, l, s)
	return dst[:s]
}

// runRows hands scan the rows of the contiguous anchor run
// [i0, i0+count) at length l, in ascending anchor order: one from-scratch
// row (row) for i0, then each following row from the one before in O(s)
// with the STOMP recurrence (kernels.RowNext) plus one O(l) dot for its
// j = 0 cell. Every row lives in dst (at least s cells) and is valid
// until scan returns. The pruned pass's recompute runs and the stream's
// eviction repairs both resolve their runs here.
func (w *rowWorker) runRows(dst []float64, i0, count, l int, scan func(i int, row []float64)) {
	t := w.src.t
	s := len(t) - l + 1
	row := w.row(dst, i0, l)
	for i := i0; i < i0+count; i++ {
		if i > i0 {
			kernels.RowNext(row, t, i, l, s)
			row[0] = series.Dot(t[i:i+l], t[0:l])
		}
		scan(i, row)
	}
}

// rowPair is row for anchors i1 and i2; the FFT packs both queries into
// one transform each way.
func (w *rowWorker) rowPair(dst1, dst2 []float64, i1, i2, l int) ([]float64, []float64) {
	if w.src.direct(l) {
		return w.row(dst1, i1, l), w.row(dst2, i2, l)
	}
	t := w.src.t
	return w.correlator().DotsPair(t[i1:i1+l], t[i2:i2+l], dst1, dst2)
}

// release returns a cloned correlator's scratch.
func (w *rowWorker) release() {
	if w.clone && w.corr != nil {
		w.corr.Release()
	}
	w.corr = nil
}
