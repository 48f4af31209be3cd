// Package bcsr implements the Blocked Compressed Sparse Row format (Im &
// Yelick [8]) and its decomposed variant BCSR-DEC.
//
// BCSR stores fixed r x c blocks aligned at r row- and c column-boundaries:
// a block always starts at (i, j) with i%r == 0 and j%c == 0. Every aligned
// block position holding at least one nonzero is stored in full, with zero
// padding for the missing positions. Three arrays hold the matrix: bval
// (block values, row-major within each block), bcol (4-byte starting column
// of each block) and browPtr (4-byte pointers to the first block of each
// block row).
//
// Blocks whose column span overhangs the right matrix edge cannot use the
// unrolled kernels (they would read x out of bounds); they are kept in a
// small side structure and multiplied by a clipped path. Block rows at the
// bottom edge shorter than r rows are handled with an on-stack scratch
// output.
//
// The interior block start columns are stored as 4-byte integers in the
// paper's baseline and as uint16/uint8 in the compressed variants
// (NewCompact); the rare edge-block arrays and the block-row pointers
// always stay 4-byte.
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

// Mat is a sparse matrix in BCSR format with fixed r x c blocks and
// interior block start columns stored as I.
type Mat[T floats.Float, I idx.Index] struct {
	rows, cols int
	r, c       int
	impl       blocks.Impl
	kernel     kernels.BlockRowKernelIx[T, I]

	browPtr []int32 // len nBlockRows+1; indexes bcol/bval-block
	bcol    []I     // absolute starting column of each interior block
	bval    []T     // len(bcol) * r * c

	// Right-edge blocks (start column + c > cols), multiplied clipped.
	edgeBRow []int32
	edgeCol  []int32
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
	return NewIx[T, int32](m, r, c, impl)
}

// NewIx is New with block start columns stored as I. The caller must
// ensure every interior start column fits I; NewCompact selects a
// fitting type automatically.
func NewIx[T floats.Float, I idx.Index](m *mat.COO[T], r, c int, impl blocks.Impl) *Mat[T, I] {
	shape := blocks.RectShape(r, c)
	if !shape.Valid() && !shape.IsUnit() {
		panic(fmt.Sprintf("bcsr: unsupported shape %dx%d", r, c))
	}
	if !m.Finalized() {
		panic("bcsr: matrix must be finalized")
	}
	a := &Mat[T, I]{
		rows: m.Rows(), cols: m.Cols(), r: r, c: c, impl: impl,
		kernel: kernels.RectIx[T, I](r, c, impl),
		nnz:    int64(m.NNZ()),
	}
	if a.kernel == nil {
		a.kernel = kernels.RectGenericIx[T, I](r, c)
	}
	a.build(m.Entries())
	return a
}

// NewCompact converts a finalized coordinate matrix to BCSR with the
// narrowest block-start-column type the matrix width permits.
func NewCompact[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewIx[T, uint8](m, r, c, impl)
	case idx.W16:
		return NewIx[T, uint16](m, r, c, impl)
	default:
		return NewIx[T, int32](m, r, c, impl)
	}
}

func (a *Mat[T, I]) build(entries []mat.Entry[T]) {
	r, c := a.r, a.c
	elems := r * c
	nBlockRows := (a.rows + r - 1) / r
	a.browPtr = make([]int32, nBlockRows+1)

	// Entries are row-major sorted; process one block row at a time.
	type span struct{ lo, hi int }
	brSpan := func(start int) (int, span) {
		br := int(entries[start].Row) / r
		hi := start
		for hi < len(entries) && int(entries[hi].Row)/r == br {
			hi++
		}
		return br, span{start, hi}
	}

	var cols []int32 // distinct block start columns of the current block row
	for start := 0; start < len(entries); {
		br, sp := brSpan(start)
		start = sp.hi

		cols = cols[:0]
		for i := sp.lo; i < sp.hi; i++ {
			cols = append(cols, entries[i].Col/int32(c)*int32(c))
		}
		slices.Sort(cols)
		cols = slices.Compact(cols)

		// Split into interior and edge blocks; cols is sorted, so any edge
		// block (there can be at most one: the last aligned position) is
		// at the tail.
		nInterior := len(cols)
		for nInterior > 0 && int(cols[nInterior-1])+c > a.cols {
			nInterior--
		}
		interior := cols[:nInterior]

		base := len(a.bcol)
		for _, v := range interior {
			a.bcol = append(a.bcol, I(v))
		}
		a.bval = append(a.bval, make([]T, len(interior)*elems)...)
		for _, ec := range cols[nInterior:] {
			a.edgeBRow = append(a.edgeBRow, int32(br))
			a.edgeCol = append(a.edgeCol, ec)
			a.edgeVal = append(a.edgeVal, make([]T, elems)...)
		}
		a.browPtr[br+1] = int32(len(a.bcol))

		// Fill values.
		for i := sp.lo; i < sp.hi; i++ {
			e := entries[i]
			startCol := e.Col / int32(c) * int32(c)
			pos := (int(e.Row)%r)*c + int(e.Col-startCol)
			if int(startCol)+c <= a.cols {
				bi, ok := slices.BinarySearch(interior, startCol)
				if !ok {
					panic("bcsr: interior block lookup failed")
				}
				a.bval[(base+bi)*elems+pos] = e.Val
			} else {
				ei, ok := searchInt32From(a.edgeCol, a.edgeBRow, int32(br), startCol)
				if !ok {
					panic("bcsr: edge block lookup failed")
				}
				a.edgeVal[ei*elems+pos] = e.Val
			}
		}
	}
	// browPtr entries for empty block rows: carry forward.
	for br := 0; br < nBlockRows; br++ {
		if a.browPtr[br+1] < a.browPtr[br] {
			a.browPtr[br+1] = a.browPtr[br]
		}
	}
}

// Shape returns the block shape.
func (a *Mat[T, I]) Shape() blocks.Shape { return blocks.RectShape(a.r, a.c) }

// Blocks returns the total number of stored blocks including edge blocks.
func (a *Mat[T, I]) Blocks() int64 { return int64(len(a.bcol) + len(a.edgeBRow)) }

// Padding returns the number of explicit zeros stored.
func (a *Mat[T, I]) Padding() int64 { return a.StoredScalars() - a.nnz }

// Name implements formats.Instance.
func (a *Mat[T, I]) Name() string {
	n := fmt.Sprintf("BCSR(%dx%d)", a.r, a.c) + idx.Of[I]().Suffix()
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
func (a *Mat[T, I]) RowAlign() int { return a.r }

// RowWeights implements formats.Instance: every block contributes c stored
// scalars to each of the r rows it covers. A bottom-edge block row's ghost
// rows have their scalars redistributed over its real rows so that the
// weights sum exactly to StoredScalars.
func (a *Mat[T, I]) RowWeights() []int64 {
	w := make([]int64, a.rows)
	nBlockRows := (a.rows + a.r - 1) / a.r
	nBlocks := make([]int64, nBlockRows)
	for br := 0; br < nBlockRows; br++ {
		nBlocks[br] = int64(a.browPtr[br+1] - a.browPtr[br])
	}
	for _, br := range a.edgeBRow {
		nBlocks[br]++
	}
	for br := 0; br < nBlockRows; br++ {
		rowStart := br * a.r
		nReal := min(a.r, a.rows-rowStart)
		total := nBlocks[br] * int64(a.r*a.c)
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

// MulRange implements formats.Instance.
func (a *Mat[T, I]) MulRange(x, y []T, r0, r1 int) {
	r, c := a.r, a.c
	if r0%r != 0 || (r1%r != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("bcsr: MulRange [%d,%d) not aligned to block height %d", r0, r1, r))
	}
	elems := r * c
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
		} else {
			// Bottom-edge block row: the kernel would write r rows but
			// fewer exist, so compute the surviving rows directly. At most
			// one block row per matrix takes this path; routing it through
			// the kernel would need a scratch output that escapes to the
			// heap and costs an allocation on every MulRange call.
			for k := range bcols {
				col := int(bcols[k])
				v := bvals[k*elems : (k+1)*elems]
				for bi := 0; rowStart+bi < a.rows; bi++ {
					var acc T
					for bj := 0; bj < c; bj++ {
						acc += v[bi*c+bj] * x[col+bj]
					}
					y[rowStart+bi] += acc
				}
			}
		}
	}
	// Clipped path for right-edge blocks in range.
	for ei, br := range a.edgeBRow {
		if int(br) < br0 || int(br) >= br1 {
			continue
		}
		col := int(a.edgeCol[ei])
		v := a.edgeVal[ei*elems : (ei+1)*elems]
		rowStart := int(br) * r
		for bi := 0; bi < r && rowStart+bi < a.rows; bi++ {
			var acc T
			for bj := 0; bj < c && col+bj < a.cols; bj++ {
				acc += v[bi*c+bj] * x[col+bj]
			}
			y[rowStart+bi] += acc
		}
	}
}

// MulRangeMulti implements formats.Instance: the generated multi-RHS
// kernel streams each interior block row once across the k-wide panel,
// and the bottom/right edge paths mirror MulRange's clipped loops with
// a per-column local accumulator, keeping every panel column
// bit-identical to a single-vector MulRange.
func (a *Mat[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if k == 0 {
		return
	}
	r, c := a.r, a.c
	if r0%r != 0 || (r1%r != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("bcsr: MulRangeMulti [%d,%d) not aligned to block height %d", r0, r1, r))
	}
	kern := kernels.RectMultiIx[T, I](r, c, a.impl, k)
	if kern == nil {
		kern = kernels.RectGenericMultiIx[T, I](r, c)
	}
	elems := r * c
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
		} else {
			// Bottom-edge block row, clipped as in MulRange.
			for b := range bcols {
				col := int(bcols[b])
				v := bvals[b*elems : (b+1)*elems]
				for bi := 0; rowStart+bi < a.rows; bi++ {
					for l := 0; l < k; l++ {
						var acc T
						for bj := 0; bj < c; bj++ {
							acc += v[bi*c+bj] * x[(col+bj)*k+l]
						}
						y[(rowStart+bi)*k+l] += acc
					}
				}
			}
		}
	}
	// Clipped path for right-edge blocks in range.
	for ei, br := range a.edgeBRow {
		if int(br) < br0 || int(br) >= br1 {
			continue
		}
		col := int(a.edgeCol[ei])
		v := a.edgeVal[ei*elems : (ei+1)*elems]
		rowStart := int(br) * r
		for bi := 0; bi < r && rowStart+bi < a.rows; bi++ {
			for l := 0; l < k; l++ {
				var acc T
				for bj := 0; bj < c && col+bj < a.cols; bj++ {
					acc += v[bi*c+bj] * x[(col+bj)*k+l]
				}
				y[(rowStart+bi)*k+l] += acc
			}
		}
	}
}

var (
	_ formats.Instance[float32] = (*Matrix[float32])(nil)
	_ formats.Instance[float32] = (*Mat[float32, uint16])(nil)
	_ formats.Instance[float32] = (*Mat[float32, uint8])(nil)
)

// searchInt32From finds the edge block with block row br and start column
// col by scanning backwards (edge blocks of the current block row are
// always at the tail during construction).
func searchInt32From(cols, brows []int32, br, col int32) (int, bool) {
	for i := len(cols) - 1; i >= 0 && brows[i] == br; i-- {
		if cols[i] == col {
			return i, true
		}
	}
	return 0, false
}

// WithImpl implements formats.Instance: a view over the same arrays with
// a different kernel implementation class.
func (a *Mat[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	b.kernel = kernels.RectIx[T, I](b.r, b.c, impl)
	if b.kernel == nil {
		b.kernel = kernels.RectGenericIx[T, I](b.r, b.c)
	}
	return &b
}
