package bcsr

import (
	"fmt"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
)

// Dec is the decomposed fixed-block format (BCSR-DEC or BCSD-DEC): the
// input matrix split into a blocked submatrix holding only completely
// dense (unpadded) aligned blocks and a CSR submatrix holding the
// remainder elements (Section II.B, k = 2). Both components store their
// column indices as I.
type Dec[T floats.Float, I idx.Index] struct {
	blocked *Mat[T, I]
	rem     *csr.Mat[T, I]
}

// Decomposed is the paper's baseline BCSR-DEC instantiation: 4-byte
// column indices in both components.
type Decomposed[T floats.Float] = Dec[T, int32]

// NewDecomposed converts a finalized coordinate matrix to BCSR-DEC.
func NewDecomposed[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) *Decomposed[T] {
	return NewShapeDecomposed[T, int32](m, blocks.RectShape(r, c), impl)
}

// NewDecomposedCompact converts a finalized coordinate matrix to
// BCSR-DEC with the narrowest column-index type the matrix width
// permits.
func NewDecomposedCompact[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) formats.Instance[T] {
	return NewShapeDecomposedCompact(m, blocks.RectShape(r, c), impl)
}

// NewShapeDecomposed converts a finalized coordinate matrix to the
// decomposed format of shape s, with column indices stored as I in both
// the blocked part and the CSR remainder.
func NewShapeDecomposed[T floats.Float, I idx.Index](m *mat.COO[T], s blocks.Shape, impl blocks.Impl) *Dec[T, I] {
	if !m.Finalized() {
		panic("bcsr: matrix must be finalized")
	}
	full, rem := SplitShape(m, s)
	d := &Dec[T, I]{
		blocked: NewShape[T, I](full, s, impl),
		rem:     csr.FromCOOIx[T, I](rem, impl),
	}
	if p := d.blocked.Padding(); p != 0 {
		panic(fmt.Sprintf("bcsr: decomposed blocked part has %d padding zeros", p))
	}
	return d
}

// NewShapeDecomposedCompact is NewShapeDecomposed with the narrowest
// column-index type the matrix width permits.
func NewShapeDecomposedCompact[T floats.Float](m *mat.COO[T], s blocks.Shape, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewShapeDecomposed[T, uint8](m, s, impl)
	case idx.W16:
		return NewShapeDecomposed[T, uint16](m, s, impl)
	default:
		return NewShapeDecomposed[T, int32](m, s, impl)
	}
}

// SplitFullBlocks partitions the entries of m into a matrix containing
// exactly the completely dense aligned r x c blocks and a matrix with
// everything else. Both results are finalized.
func SplitFullBlocks[T floats.Float](m *mat.COO[T], r, c int) (full, rem *mat.COO[T]) {
	return SplitShape(m, blocks.RectShape(r, c))
}

// SplitShape partitions the entries of m into a matrix containing exactly
// the completely dense interior blocks of shape s and a matrix with
// everything else. Both results are finalized. It is the extraction step
// of the decomposed formats, exported for the multi-pattern
// decomposition.
func SplitShape[T floats.Float](m *mat.COO[T], s blocks.Shape) (full, rem *mat.COO[T]) {
	entries := m.Entries()
	rows, cols := m.Rows(), m.Cols()
	l := layoutOf(s)
	elems := l.Elems()

	fullM := mat.New[T](rows, cols)
	remM := mat.New[T](rows, cols)

	// Process one block row at a time: count entries per block, then
	// route each entry by whether its block is full.
	counts := make(map[int32]int)
	for lo := 0; lo < len(entries); {
		br := int(entries[lo].Row) / l.R
		hi := lo
		for hi < len(entries) && int(entries[hi].Row)/l.R == br {
			hi++
		}
		interiorRows := (br+1)*l.R <= rows
		clear(counts)
		for _, e := range entries[lo:hi] {
			counts[l.start(e.Row, e.Col, br)]++
		}
		for _, e := range entries[lo:hi] {
			st := l.start(e.Row, e.Col, br)
			if interiorRows && counts[st] == elems && l.interior(st, cols) {
				fullM.Add(e.Row, e.Col, e.Val)
			} else {
				remM.Add(e.Row, e.Col, e.Val)
			}
		}
		lo = hi
	}
	fullM.Finalize()
	remM.Finalize()
	return fullM, remM
}

// Blocked returns the blocked component.
func (d *Dec[T, I]) Blocked() *Mat[T, I] { return d.blocked }

// Remainder returns the CSR remainder component.
func (d *Dec[T, I]) Remainder() *csr.Mat[T, I] { return d.rem }

// Shape returns the block shape of the blocked component.
func (d *Dec[T, I]) Shape() blocks.Shape { return d.blocked.Shape() }

// Name implements formats.Instance.
func (d *Dec[T, I]) Name() string { return d.blocked.name("-DEC") }

// Rows implements formats.Instance.
func (d *Dec[T, I]) Rows() int { return d.blocked.Rows() }

// Cols implements formats.Instance.
func (d *Dec[T, I]) Cols() int { return d.blocked.Cols() }

// NNZ implements formats.Instance.
func (d *Dec[T, I]) NNZ() int64 { return d.blocked.NNZ() + d.rem.NNZ() }

// StoredScalars implements formats.Instance; a decomposition stores no
// padding, so this equals NNZ.
func (d *Dec[T, I]) StoredScalars() int64 {
	return d.blocked.StoredScalars() + d.rem.StoredScalars()
}

// MatrixBytes implements formats.Instance.
func (d *Dec[T, I]) MatrixBytes() int64 {
	return d.blocked.MatrixBytes() + d.rem.MatrixBytes()
}

// Components implements formats.Instance: one component per submatrix, in
// multiplication order (blocked first, CSR remainder second), matching the
// k-term sums of equations (2) and (3).
func (d *Dec[T, I]) Components() []formats.Component {
	return append(d.blocked.Components(), d.rem.Components()...)
}

// RowAlign implements formats.Instance.
func (d *Dec[T, I]) RowAlign() int { return d.blocked.RowAlign() }

// RowWeights implements formats.Instance.
func (d *Dec[T, I]) RowWeights() []int64 {
	w := d.blocked.RowWeights()
	for r, rw := range d.rem.RowWeights() {
		w[r] += rw
	}
	return w
}

// Mul implements formats.Instance.
func (d *Dec[T, I]) Mul(x, y []T) {
	formats.CheckDims[T](d, x, y)
	floats.Fill(y, 0)
	d.MulRange(x, y, 0, d.Rows())
}

// MulRange implements formats.Instance: both components accumulate into
// the same output range, performing the partial-result accumulation of the
// decomposed method.
func (d *Dec[T, I]) MulRange(x, y []T, r0, r1 int) {
	d.blocked.MulRange(x, y, r0, r1)
	d.rem.MulRange(x, y, r0, r1)
}

// MulRangeMulti implements formats.Instance: both components accumulate
// into the same output panel in the MulRange order. Each component's
// multi kernel uses per-row local accumulators with a single add into
// y per panel column, so the component-accumulation order — and hence
// the bits — match k sequential MulRange calls.
func (d *Dec[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	d.blocked.MulRangeMulti(x, y, k, r0, r1)
	d.rem.MulRangeMulti(x, y, k, r0, r1)
}

var (
	_ formats.Instance[float64] = (*Decomposed[float64])(nil)
	_ formats.Instance[float64] = (*Dec[float64, uint16])(nil)
	_ formats.Instance[float64] = (*Dec[float64, uint8])(nil)
)

// WithImpl implements formats.Instance.
func (d *Dec[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	return &Dec[T, I]{
		blocked: d.blocked.WithImpl(impl).(*Mat[T, I]),
		rem:     d.rem.WithImpl(impl).(*csr.Mat[T, I]),
	}
}
