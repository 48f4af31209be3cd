// Package ubcsr implements an Unaligned BCSR variant (Vuduc & Moon [17]).
//
// BCSR's alignment restriction — every r x c block starts at a row and
// column that are multiples of r and c — simplifies construction and
// helps vectorization, but can multiply the padding when the natural
// block structure sits at unaligned offsets (Section II.A, Fig. 1). UBCSR
// relaxes the restriction. This implementation relaxes the *column*
// anchor: within each block row, blocks are packed greedily starting at
// the first uncovered nonzero column, so a dense c-wide run is always
// covered by a single block regardless of its offset. Rows remain grouped
// at multiples of r, which keeps the multiply structure and the
// multithreaded row partitioning identical to BCSR. (The full UBCSR of
// [17] also splits the matrix into row-shifted submatrices; the column
// relaxation captures the bulk of the padding reduction and is the part
// the alignment ablation measures.)
package ubcsr

import (
	"fmt"
	"slices"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/kernels"
	"blockspmv/internal/mat"
)

// Matrix is a sparse matrix in column-unaligned BCSR format.
type Matrix[T floats.Float] struct {
	rows, cols int
	r, c       int
	impl       blocks.Impl
	kernel     kernels.BlockRowKernel[T]

	browPtr []int32
	bcol    []int32 // arbitrary (not c-aligned) starting columns
	bval    []T

	edgeBRow []int32
	edgeCol  []int32
	edgeVal  []T

	nnz int64
}

// New converts a finalized coordinate matrix to unaligned BCSR with r x c
// blocks.
func New[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) *Matrix[T] {
	shape := blocks.RectShape(r, c)
	if !shape.Valid() && !shape.IsUnit() {
		panic(fmt.Sprintf("ubcsr: unsupported shape %dx%d", r, c))
	}
	if !m.Finalized() {
		panic("ubcsr: matrix must be finalized")
	}
	a := &Matrix[T]{
		rows: m.Rows(), cols: m.Cols(), r: r, c: c, impl: impl,
		kernel: kernels.Rect[T](r, c, impl),
		nnz:    int64(m.NNZ()),
	}
	if a.kernel == nil {
		a.kernel = kernels.RectGeneric[T](r, c)
	}
	a.build(m.Entries())
	return a
}

// anchorsFor greedily packs the sorted distinct columns of a block row
// into c-wide blocks: each block is anchored at the first column not
// covered by the previous block.
func anchorsFor(cols []int32, c int) []int32 {
	var anchors []int32
	next := int32(-1)
	for _, col := range cols {
		if col >= next {
			anchors = append(anchors, col)
			next = col + int32(c)
		}
	}
	return anchors
}

func (a *Matrix[T]) build(entries []mat.Entry[T]) {
	r, c := a.r, a.c
	elems := r * c
	nBlockRows := (a.rows + r - 1) / r
	a.browPtr = make([]int32, nBlockRows+1)

	var cols []int32
	for start := 0; start < len(entries); {
		br := int(entries[start].Row) / r
		end := start
		for end < len(entries) && int(entries[end].Row)/r == br {
			end++
		}

		cols = cols[:0]
		for i := start; i < end; i++ {
			cols = append(cols, entries[i].Col)
		}
		slices.Sort(cols)
		cols = slices.Compact(cols)
		anchors := anchorsFor(cols, c)

		// Interior anchors first (greedy packing keeps them sorted, so an
		// overhanging anchor — at most the last one — sits at the tail).
		nInterior := len(anchors)
		for nInterior > 0 && int(anchors[nInterior-1])+c > a.cols {
			nInterior--
		}
		interior := anchors[:nInterior]

		base := len(a.bcol)
		a.bcol = append(a.bcol, interior...)
		a.bval = append(a.bval, make([]T, len(interior)*elems)...)
		edgeBase := len(a.edgeCol)
		for _, ec := range anchors[nInterior:] {
			a.edgeBRow = append(a.edgeBRow, int32(br))
			a.edgeCol = append(a.edgeCol, ec)
			a.edgeVal = append(a.edgeVal, make([]T, elems)...)
		}
		a.browPtr[br+1] = int32(len(a.bcol))

		for i := start; i < end; i++ {
			e := entries[i]
			ai, ok := anchorOf(anchors, e.Col, c)
			if !ok {
				panic("ubcsr: column not covered by any anchor")
			}
			anchor := anchors[ai]
			pos := (int(e.Row)%r)*c + int(e.Col-anchor)
			if ai < nInterior {
				a.bval[(base+ai)*elems+pos] = e.Val
			} else {
				a.edgeVal[(edgeBase+ai-nInterior)*elems+pos] = e.Val
			}
		}
		start = end
	}
	for br := 0; br < nBlockRows; br++ {
		if a.browPtr[br+1] < a.browPtr[br] {
			a.browPtr[br+1] = a.browPtr[br]
		}
	}
}

// anchorOf finds the anchor covering col: the greatest anchor <= col,
// valid iff col < anchor+c.
func anchorOf(anchors []int32, col int32, c int) (int, bool) {
	lo, hi := 0, len(anchors)
	for lo < hi {
		mid := (lo + hi) / 2
		if anchors[mid] <= col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	i := lo - 1
	return i, col < anchors[i]+int32(c)
}

// Shape returns the block shape.
func (a *Matrix[T]) Shape() blocks.Shape { return blocks.RectShape(a.r, a.c) }

// Blocks returns the total number of stored blocks.
func (a *Matrix[T]) Blocks() int64 { return int64(len(a.bcol) + len(a.edgeBRow)) }

// Padding returns the number of explicit zeros stored.
func (a *Matrix[T]) Padding() int64 { return a.StoredScalars() - a.nnz }

// Name implements formats.Instance.
func (a *Matrix[T]) Name() string {
	n := fmt.Sprintf("UBCSR(%dx%d)", a.r, a.c)
	if a.impl == blocks.Vector {
		n += "/simd"
	}
	return n
}

// Rows implements formats.Instance.
func (a *Matrix[T]) Rows() int { return a.rows }

// Cols implements formats.Instance.
func (a *Matrix[T]) Cols() int { return a.cols }

// NNZ implements formats.Instance.
func (a *Matrix[T]) NNZ() int64 { return a.nnz }

// StoredScalars implements formats.Instance.
func (a *Matrix[T]) StoredScalars() int64 { return int64(len(a.bval) + len(a.edgeVal)) }

// MatrixBytes implements formats.Instance.
func (a *Matrix[T]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return a.StoredScalars()*s +
		int64(len(a.bcol)+len(a.edgeCol)+len(a.edgeBRow)+len(a.browPtr))*4
}

// Components implements formats.Instance.
func (a *Matrix[T]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   a.Shape(),
		Impl:    a.impl,
		Blocks:  a.Blocks(),
		WSBytes: a.MatrixBytes(),
	}}
}

// RowAlign implements formats.Instance.
func (a *Matrix[T]) RowAlign() int { return a.r }

// RowWeights implements formats.Instance.
func (a *Matrix[T]) RowWeights() []int64 {
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
func (a *Matrix[T]) Mul(x, y []T) {
	formats.CheckDims[T](a, x, y)
	floats.Fill(y, 0)
	a.MulRange(x, y, 0, a.rows)
}

// MulRange implements formats.Instance.
func (a *Matrix[T]) MulRange(x, y []T, r0, r1 int) {
	r, c := a.r, a.c
	if r0%r != 0 || (r1%r != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("ubcsr: MulRange [%d,%d) not aligned to block height %d", r0, r1, r))
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
			// Bottom-edge block row: compute the surviving rows directly
			// rather than through the kernel, whose scratch output would
			// escape to the heap and allocate on every MulRange call.
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

// MulRangeMulti implements formats.Instance, mirroring MulRange with
// the generated multi-RHS kernel on interior block rows and per-column
// clipped loops on the edges; every panel column is bit-identical to a
// single-vector MulRange.
func (a *Matrix[T]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if k == 0 {
		return
	}
	r, c := a.r, a.c
	if r0%r != 0 || (r1%r != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("ubcsr: MulRangeMulti [%d,%d) not aligned to block height %d", r0, r1, r))
	}
	kern := kernels.RectMultiIx[T, int32](r, c, a.impl, k)
	if kern == nil {
		kern = kernels.RectGenericMultiIx[T, int32](r, c)
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

var _ formats.Instance[float64] = (*Matrix[float64])(nil)

// WithImpl implements formats.Instance: a view over the same arrays with
// a different kernel implementation class.
func (a *Matrix[T]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	b.kernel = kernels.Rect[T](b.r, b.c, impl)
	if b.kernel == nil {
		b.kernel = kernels.RectGeneric[T](b.r, b.c)
	}
	return &b
}
