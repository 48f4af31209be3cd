// Package bcsr implements the paper's fixed-block formats with one
// shape-driven storage, build and multiply path: BCSR (Im & Yelick [8])
// with aligned r x c blocks, BCSD with aligned diagonal blocks of length
// b (Section II.A), and their decomposed variants BCSR-DEC and BCSD-DEC.
// Package bcsd is the diagonal entry point to this implementation.
//
// A block of shape R x C belongs to a block row of R matrix rows starting
// at a multiple of R. In its row i the block covers the C columns from
// start+i*shift, where shift is 0 for a rectangular shape and 1 for a
// diagonal one (a diagonal shape is R=b, C=1): so a BCSR block is the
// aligned r x c tile starting at a multiple of c, and a BCSD block holds
// the elements (i+k, j+k), k in [0,b). Every block position holding at
// least one nonzero is stored in full, with zero padding for the missing
// positions. Three arrays hold the matrix: bval (block values, row-major
// within each block), bcol (starting column of each block) and browPtr
// (4-byte pointers to the first block of each block row).
//
// A block spans C+(R-1)*shift columns. Blocks whose span leaves
// [0, cols) — a rectangular block overhanging the right edge, a diagonal
// starting left of column 0 or ending right of the last column — cannot
// use the unrolled kernels (they would read x out of bounds); they are
// kept in a small side structure and multiplied by a clipped path, which
// also serves the bottom block row when it is shorter than R rows.
//
// The interior block start columns are stored as 4-byte integers in the
// paper's baseline and as uint16/uint8 in the compressed variants
// (NewCompact); the rare edge-block arrays (which may hold negative
// diagonal starts) and the block-row pointers always stay 4-byte.
package bcsr

import (
	"fmt"
	"slices"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/kernels"
	"blockspmv/internal/mat"
)

// layout is a block shape with its anchoring: in its row i a block
// covers the C columns from start+i*shift.
type layout struct {
	blocks.Shape
	shift int // 0 for rectangular shapes, 1 for diagonal ones
	span  int // C + (R-1)*shift: the columns one block touches
}

func layoutOf(s blocks.Shape) layout {
	l := layout{Shape: s}
	if s.Kind == blocks.Diag {
		l.shift = 1
	}
	l.span = s.C + (s.R-1)*l.shift
	return l
}

// start returns the start column of the block holding entry (row, col)
// of block row br.
func (l layout) start(row, col int32, br int) int32 {
	return (col - (row-int32(br*l.R))*int32(l.shift)) / int32(l.C) * int32(l.C)
}

// window returns the rows [i0, i1) of a block starting at column s that
// meet [0, cols), and how many leading columns n of each such row lie
// inside. A rectangular block is stored only when it starts inside the
// matrix, so all its rows count and only the right edge clips; a diagonal
// block has one column per row, so it clips by rows alone.
func (l layout) window(s, cols int) (i0, i1, n int) {
	if l.shift == 0 {
		return 0, l.R, min(l.C, cols-s)
	}
	return max(0, -s), min(l.R, cols-s), 1
}

// interior reports whether a block starting at column s lies inside a
// matrix of cols columns.
func (l layout) interior(s int32, cols int) bool {
	return s >= 0 && int(s)+l.span <= cols
}

// Mat is a sparse matrix in a fixed-block format (BCSR or BCSD) with
// interior block start columns stored as I.
type Mat[T floats.Float, I idx.Index] struct {
	rows, cols int
	lay        layout
	impl       blocks.Impl
	kernel     kernels.BlockRowKernelIx[T, I]

	browPtr []int32 // len nBlockRows+1; indexes bcol/bval-block
	bcol    []I     // starting column of each interior block
	bval    []T     // len(bcol) * R * C

	// Edge blocks (start < 0 or start+span > cols), multiplied clipped.
	edgeBRow []int32
	edgeCol  []int32 // may be negative for diagonal shapes
	edgeVal  []T

	nnz int64
}

// Matrix is the paper's baseline BCSR instantiation: 4-byte block start
// columns.
type Matrix[T floats.Float] = Mat[T, int32]

// New converts a finalized coordinate matrix to BCSR with r x c blocks and
// the given kernel implementation class. It panics if the shape has more
// than blocks.MaxBlockElems elements (no kernel exists) or the matrix is
// not finalized.
func New[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) *Matrix[T] {
	return NewShape[T, int32](m, blocks.RectShape(r, c), impl)
}

// NewCompact converts a finalized coordinate matrix to BCSR with the
// narrowest block-start-column type the matrix width permits.
func NewCompact[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) formats.Instance[T] {
	return NewShapeCompact(m, blocks.RectShape(r, c), impl)
}

// NewShape converts a finalized coordinate matrix to the fixed-block
// format of shape s — BCSR for a rectangular shape, BCSD for a diagonal
// one — with block start columns stored as I. The caller must ensure
// every interior start column fits I; NewShapeCompact selects a fitting
// type automatically.
func NewShape[T floats.Float, I idx.Index](m *mat.COO[T], s blocks.Shape, impl blocks.Impl) *Mat[T, I] {
	if err := s.Check(); err != nil {
		panic(err)
	}
	if !m.Finalized() {
		panic("bcsr: matrix must be finalized")
	}
	a := &Mat[T, I]{
		rows: m.Rows(), cols: m.Cols(), lay: layoutOf(s), impl: impl,
		kernel: kernelFor[T, I](s, impl),
		nnz:    int64(m.NNZ()),
	}
	a.build(m.Entries())
	return a
}

// NewShapeCompact is NewShape with the narrowest block-start-column type
// the matrix width permits.
func NewShapeCompact[T floats.Float](m *mat.COO[T], s blocks.Shape, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewShape[T, uint8](m, s, impl)
	case idx.W16:
		return NewShape[T, uint16](m, s, impl)
	default:
		return NewShape[T, int32](m, s, impl)
	}
}

// kernelFor returns the unrolled kernel of the shape, or the loop-based
// one when the shape is outside the generated set.
func kernelFor[T floats.Float, I idx.Index](s blocks.Shape, impl blocks.Impl) kernels.BlockRowKernelIx[T, I] {
	if k := kernels.ForShapeIx[T, I](s, impl); k != nil {
		return k
	}
	return kernels.GenericIx[T, I](s)
}

func (a *Mat[T, I]) build(entries []mat.Entry[T]) {
	l := a.lay
	elems := l.Elems()
	nBlockRows := (a.rows + l.R - 1) / l.R
	a.browPtr = make([]int32, nBlockRows+1)

	// Entries are row-major sorted; process one block row at a time.
	var starts []int32 // distinct block start columns of the current block row
	for lo := 0; lo < len(entries); {
		br := int(entries[lo].Row) / l.R
		hi := lo
		for hi < len(entries) && int(entries[hi].Row)/l.R == br {
			hi++
		}
		inRow := entries[lo:hi]

		starts = starts[:0]
		for _, e := range inRow {
			starts = append(starts, l.start(e.Row, e.Col, br))
		}
		slices.Sort(starts)
		starts = slices.Compact(starts)

		// Interior blocks form the sorted middle: leading negative
		// diagonal starts and trailing overhangs go to the edge arrays.
		first := 0
		for first < len(starts) && starts[first] < 0 {
			first++
		}
		last := len(starts)
		for last > first && !l.interior(starts[last-1], a.cols) {
			last--
		}
		interior := starts[first:last]

		base := len(a.bcol)
		for _, s := range interior {
			a.bcol = append(a.bcol, I(s))
		}
		a.bval = append(a.bval, make([]T, len(interior)*elems)...)
		edgeBase := len(a.edgeCol)
		for j, s := range starts {
			if j < first || j >= last {
				a.edgeBRow = append(a.edgeBRow, int32(br))
				a.edgeCol = append(a.edgeCol, s)
				a.edgeVal = append(a.edgeVal, make([]T, elems)...)
			}
		}
		a.browPtr[br+1] = int32(len(a.bcol))

		// Fill values.
		for _, e := range inRow {
			i := int(e.Row) - br*l.R
			s := l.start(e.Row, e.Col, br)
			slot := i*l.C + int(e.Col) - i*l.shift - int(s)
			if l.interior(s, a.cols) {
				bi, ok := slices.BinarySearch(interior, s)
				if !ok {
					panic("bcsr: interior block lookup failed")
				}
				a.bval[(base+bi)*elems+slot] = e.Val
			} else {
				ei := slices.Index(a.edgeCol[edgeBase:], s)
				if ei < 0 {
					panic("bcsr: edge block lookup failed")
				}
				a.edgeVal[(edgeBase+ei)*elems+slot] = e.Val
			}
		}
		lo = hi
	}
	// browPtr entries for empty block rows: carry forward.
	for br := 0; br < nBlockRows; br++ {
		if a.browPtr[br+1] < a.browPtr[br] {
			a.browPtr[br+1] = a.browPtr[br]
		}
	}
}

// Shape returns the block shape.
func (a *Mat[T, I]) Shape() blocks.Shape { return a.lay.Shape }

// Blocks returns the total number of stored blocks including edge blocks.
func (a *Mat[T, I]) Blocks() int64 { return int64(len(a.bcol) + len(a.edgeBRow)) }

// Padding returns the number of explicit zeros stored.
func (a *Mat[T, I]) Padding() int64 { return a.StoredScalars() - a.nnz }

// Name implements formats.Instance.
func (a *Mat[T, I]) Name() string { return a.name("") }

// name renders the format name, e.g. "BCSR(2x3)", "BCSD-DEC(d4)/ix16/simd";
// dec is the variant tag inserted after the family.
func (a *Mat[T, I]) name(dec string) string {
	family := "BCSR"
	if a.lay.Kind == blocks.Diag {
		family = "BCSD"
	}
	n := fmt.Sprintf("%s%s(%s)", family, dec, a.lay.Shape) + idx.Of[I]().Suffix()
	if a.impl == blocks.Vector {
		n += "/simd"
	}
	return n
}

// Rows implements formats.Instance.
func (a *Mat[T, I]) Rows() int { return a.rows }

// Cols implements formats.Instance.
func (a *Mat[T, I]) Cols() int { return a.cols }

// NNZ implements formats.Instance.
func (a *Mat[T, I]) NNZ() int64 { return a.nnz }

// StoredScalars implements formats.Instance.
func (a *Mat[T, I]) StoredScalars() int64 {
	return int64(len(a.bval) + len(a.edgeVal))
}

// MatrixBytes implements formats.Instance.
func (a *Mat[T, I]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return a.StoredScalars()*s +
		int64(len(a.bcol))*int64(idx.Bytes[I]()) +
		int64(len(a.edgeCol)+len(a.edgeBRow)+len(a.browPtr))*4
}

// Components implements formats.Instance.
func (a *Mat[T, I]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   a.Shape(),
		Impl:    a.impl,
		Blocks:  a.Blocks(),
		WSBytes: a.MatrixBytes(),
	}}
}

// RowAlign implements formats.Instance.
func (a *Mat[T, I]) RowAlign() int { return a.lay.R }

// RowWeights implements formats.Instance: every block contributes C
// stored scalars to each of the R rows it covers. A bottom-edge block
// row's ghost rows have their scalars redistributed over its real rows so
// that the weights sum exactly to StoredScalars.
func (a *Mat[T, I]) RowWeights() []int64 {
	r := a.lay.R
	w := make([]int64, a.rows)
	nBlockRows := (a.rows + r - 1) / r
	nBlocks := make([]int64, nBlockRows)
	for br := 0; br < nBlockRows; br++ {
		nBlocks[br] = int64(a.browPtr[br+1] - a.browPtr[br])
	}
	for _, br := range a.edgeBRow {
		nBlocks[br]++
	}
	for br := 0; br < nBlockRows; br++ {
		rowStart := br * r
		nReal := min(r, a.rows-rowStart)
		total := nBlocks[br] * int64(a.lay.Elems())
		per, extra := total/int64(nReal), total%int64(nReal)
		for i := 0; i < nReal; i++ {
			w[rowStart+i] = per
			if int64(i) < extra {
				w[rowStart+i]++
			}
		}
	}
	return w
}

// Mul implements formats.Instance.
func (a *Mat[T, I]) Mul(x, y []T) {
	formats.CheckDims[T](a, x, y)
	floats.Fill(y, 0)
	a.MulRange(x, y, 0, a.rows)
}

// checkRange panics unless [r0, r1) starts and ends on block-row
// boundaries (or at the last row). The panic is built out of line so the
// check inlines into the multiply.
func (a *Mat[T, I]) checkRange(op string, r0, r1 int) {
	if r := a.lay.R; r0%r != 0 || (r1%r != 0 && r1 != a.rows) {
		misaligned(op, r0, r1, r)
	}
}

func misaligned(op string, r0, r1, r int) {
	panic(fmt.Sprintf("bcsr: %s [%d,%d) not aligned to block height %d", op, r0, r1, r))
}

// MulRange implements formats.Instance.
func (a *Mat[T, I]) MulRange(x, y []T, r0, r1 int) {
	a.checkRange("MulRange", r0, r1)
	r, elems := a.lay.R, a.lay.Elems()
	br0, br1 := r0/r, (r1+r-1)/r
	for br := br0; br < br1; br++ {
		lo, hi := int(a.browPtr[br]), int(a.browPtr[br+1])
		if lo == hi {
			continue
		}
		bvals := a.bval[lo*elems : hi*elems]
		bcols := a.bcol[lo:hi]
		rowStart := br * r
		if rowStart+r <= a.rows {
			a.kernel(bvals, bcols, x, y[rowStart:rowStart+r])
			continue
		}
		// Bottom-edge block row: the kernel would write r rows but fewer
		// exist. At most one block row per matrix takes this path;
		// routing it through the kernel would need a scratch output that
		// escapes to the heap and costs an allocation on every call.
		for b, s := range bcols {
			a.clipped(bvals[b*elems:(b+1)*elems], int(s), rowStart, x, y)
		}
	}
	for ei, br := range a.edgeBRow {
		if int(br) >= br0 && int(br) < br1 {
			a.clipped(a.edgeVal[ei*elems:(ei+1)*elems], int(a.edgeCol[ei]), int(br)*r, x, y)
		}
	}
}

// MulRangeMulti implements formats.Instance: the generated multi-RHS
// kernel streams each interior block row once across the k-wide panel,
// and the bottom-edge block row and edge blocks take clippedMulti,
// keeping every panel column bit-identical to a single-vector MulRange.
func (a *Mat[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if k == 0 {
		return
	}
	a.checkRange("MulRangeMulti", r0, r1)
	kern := kernels.ForShapeMultiIx[T, I](a.lay.Shape, a.impl, k)
	if kern == nil {
		kern = kernels.GenericMultiIx[T, I](a.lay.Shape)
	}
	r, elems := a.lay.R, a.lay.Elems()
	br0, br1 := r0/r, (r1+r-1)/r
	for br := br0; br < br1; br++ {
		lo, hi := int(a.browPtr[br]), int(a.browPtr[br+1])
		if lo == hi {
			continue
		}
		bvals := a.bval[lo*elems : hi*elems]
		bcols := a.bcol[lo:hi]
		rowStart := br * r
		if rowStart+r <= a.rows {
			kern(bvals, bcols, x, y[rowStart*k:(rowStart+r)*k], k)
			continue
		}
		for b, s := range bcols {
			a.clippedMulti(bvals[b*elems:(b+1)*elems], int(s), rowStart, x, y, k)
		}
	}
	for ei, br := range a.edgeBRow {
		if int(br) >= br0 && int(br) < br1 {
			a.clippedMulti(a.edgeVal[ei*elems:(ei+1)*elems], int(a.edgeCol[ei]), int(br)*r, x, y, k)
		}
	}
}

// clipped multiplies one block with values v and start column start,
// whose first row is rowStart, against x, skipping rows past the matrix
// bottom and columns outside [0, cols). Each row sums into a local
// accumulator added to y once, the order of the unrolled kernels.
func (a *Mat[T, I]) clipped(v []T, start, rowStart int, x, y []T) {
	l := a.lay
	i0, i1, n := l.window(start, a.cols)
	i1 = min(i1, a.rows-rowStart)
	if n == 1 {
		// One column per row (every diagonal and R x 1 block): the
		// product is the row's whole sum, and skipping the column loop
		// keeps edge-heavy diagonal matrices as fast as a direct update.
		for i := i0; i < i1; i++ {
			y[rowStart+i] += v[i*l.C] * x[start+i*l.shift]
		}
		return
	}
	for i := i0; i < i1; i++ {
		first := start + i*l.shift
		acc := v[i*l.C] * x[first]
		for j := 1; j < n; j++ {
			acc += v[i*l.C+j] * x[first+j]
		}
		y[rowStart+i] += acc
	}
}

// clippedMulti is clipped against the k-wide row-major panel x, with
// one local accumulator per row and panel column.
func (a *Mat[T, I]) clippedMulti(v []T, start, rowStart int, x, y []T, k int) {
	l := a.lay
	i0, i1, n := l.window(start, a.cols)
	for i := i0; i < min(i1, a.rows-rowStart); i++ {
		first := start + i*l.shift
		for p := 0; p < k; p++ {
			acc := v[i*l.C] * x[first*k+p]
			for j := 1; j < n; j++ {
				acc += v[i*l.C+j] * x[(first+j)*k+p]
			}
			y[(rowStart+i)*k+p] += acc
		}
	}
}

var (
	_ formats.Instance[float32] = (*Matrix[float32])(nil)
	_ formats.Instance[float32] = (*Mat[float32, uint16])(nil)
	_ formats.Instance[float32] = (*Mat[float32, uint8])(nil)
)

// WithImpl implements formats.Instance: a view over the same arrays with
// a different kernel implementation class.
func (a *Mat[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	b.kernel = kernelFor[T, I](b.lay.Shape, impl)
	return &b
}
