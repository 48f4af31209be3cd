// Package bcsd implements the Blocked Compressed Sparse Diagonal format
// and its decomposed variant BCSD-DEC.
//
// BCSD is analogous to BCSR but exploits small dense diagonal sub-blocks: a
// block of size b holds the elements (i+k, j+k), k in [0,b), and must start
// at a row i with i%b == 0. The alignment splits the matrix into row
// segments of height b; brow_ptr points to the first block of each segment,
// bcol stores each block's starting column and bval the block values.
// Missing elements are padded with zeros (Section II.A).
//
// Diagonal blocks may start left of column 0 or end right of the last
// column (an element (i, j) with j < i%b lies on such a diagonal). These
// boundary blocks are stored in a clipped side structure, like the
// right-edge blocks of package bcsr.
//
// Interior block start columns are non-negative and bounded by cols-b,
// so the compressed variants (NewCompact) can store them as uint16 or
// uint8; the boundary arrays (which may hold negative starts) and the
// segment pointers always stay 4-byte.
package bcsd

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

// Mat is a sparse matrix in BCSD format with diagonal blocks of size b
// and interior block start columns stored as I.
type Mat[T floats.Float, I idx.Index] struct {
	rows, cols int
	b          int
	impl       blocks.Impl
	kernel     kernels.BlockRowKernelIx[T, I]

	browPtr []int32 // len nSegments+1; indexes bcol/bval-block
	bcol    []I     // starting column of each interior block
	bval    []T     // len(bcol) * b

	// Boundary blocks (start < 0 or start+b > cols), multiplied clipped.
	edgeSeg []int32
	edgeCol []int32 // may be negative
	edgeVal []T

	nnz int64
}

// Matrix is the paper's baseline BCSD instantiation: 4-byte block start
// columns.
type Matrix[T floats.Float] = Mat[T, int32]

// New converts a finalized coordinate matrix to BCSD with diagonal blocks
// of size b.
func New[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) *Matrix[T] {
	return NewIx[T, int32](m, b, impl)
}

// NewIx is New with block start columns stored as I. The caller must
// ensure every interior start column fits I; NewCompact selects a
// fitting type automatically.
func NewIx[T floats.Float, I idx.Index](m *mat.COO[T], b int, impl blocks.Impl) *Mat[T, I] {
	if !blocks.DiagShape(b).Valid() {
		panic(fmt.Sprintf("bcsd: unsupported diagonal size %d", b))
	}
	if !m.Finalized() {
		panic("bcsd: matrix must be finalized")
	}
	a := &Mat[T, I]{
		rows: m.Rows(), cols: m.Cols(), b: b, impl: impl,
		kernel: kernels.DiagIx[T, I](b, impl),
		nnz:    int64(m.NNZ()),
	}
	if a.kernel == nil {
		a.kernel = kernels.DiagGenericIx[T, I](b)
	}
	a.build(m.Entries())
	return a
}

// NewCompact converts a finalized coordinate matrix to BCSD with the
// narrowest block-start-column type the matrix width permits.
func NewCompact[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewIx[T, uint8](m, b, impl)
	case idx.W16:
		return NewIx[T, uint16](m, b, impl)
	default:
		return NewIx[T, int32](m, b, impl)
	}
}

func (a *Mat[T, I]) build(entries []mat.Entry[T]) {
	b := a.b
	nSegments := (a.rows + b - 1) / b
	a.browPtr = make([]int32, nSegments+1)

	var starts []int32
	for lo := 0; lo < len(entries); {
		seg := int(entries[lo].Row) / b
		hi := lo
		for hi < len(entries) && int(entries[hi].Row)/b == seg {
			hi++
		}

		starts = starts[:0]
		for i := lo; i < hi; i++ {
			e := entries[i]
			starts = append(starts, e.Col-(e.Row-int32(seg*b)))
		}
		slices.Sort(starts)
		starts = slices.Compact(starts)

		// Interior blocks form the sorted middle: start >= 0 and
		// start+b <= cols. Leading negatives and trailing overhangs go to
		// the edge structure.
		first := 0
		for first < len(starts) && starts[first] < 0 {
			first++
		}
		last := len(starts)
		for last > first && int(starts[last-1])+b > a.cols {
			last--
		}
		interior := starts[first:last]

		base := len(a.bcol)
		for _, v := range interior {
			a.bcol = append(a.bcol, I(v))
		}
		a.bval = append(a.bval, make([]T, len(interior)*b)...)
		edgeBase := len(a.edgeCol)
		for _, s := range starts[:first] {
			a.edgeSeg = append(a.edgeSeg, int32(seg))
			a.edgeCol = append(a.edgeCol, s)
			a.edgeVal = append(a.edgeVal, make([]T, b)...)
		}
		for _, s := range starts[last:] {
			a.edgeSeg = append(a.edgeSeg, int32(seg))
			a.edgeCol = append(a.edgeCol, s)
			a.edgeVal = append(a.edgeVal, make([]T, b)...)
		}
		a.browPtr[seg+1] = int32(len(a.bcol))

		for i := lo; i < hi; i++ {
			e := entries[i]
			k := int(e.Row) - seg*b
			start := e.Col - int32(k)
			if start >= 0 && int(start)+b <= a.cols {
				bi, ok := slices.BinarySearch(interior, start)
				if !ok {
					panic("bcsd: interior block lookup failed")
				}
				a.bval[(base+bi)*b+k] = e.Val
			} else {
				found := false
				for ei := edgeBase; ei < len(a.edgeCol); ei++ {
					if a.edgeCol[ei] == start {
						a.edgeVal[ei*b+k] = e.Val
						found = true
						break
					}
				}
				if !found {
					panic("bcsd: edge block lookup failed")
				}
			}
		}
		lo = hi
	}
	for seg := 0; seg < nSegments; seg++ {
		if a.browPtr[seg+1] < a.browPtr[seg] {
			a.browPtr[seg+1] = a.browPtr[seg]
		}
	}
}

// Shape returns the diagonal block shape.
func (a *Mat[T, I]) Shape() blocks.Shape { return blocks.DiagShape(a.b) }

// Blocks returns the total number of stored blocks including boundary
// blocks.
func (a *Mat[T, I]) Blocks() int64 { return int64(len(a.bcol) + len(a.edgeSeg)) }

// Padding returns the number of explicit zeros stored.
func (a *Mat[T, I]) Padding() int64 { return a.StoredScalars() - a.nnz }

// Name implements formats.Instance.
func (a *Mat[T, I]) Name() string {
	n := fmt.Sprintf("BCSD(d%d)", a.b) + idx.Of[I]().Suffix()
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
func (a *Mat[T, I]) StoredScalars() int64 { return int64(len(a.bval) + len(a.edgeVal)) }

// MatrixBytes implements formats.Instance.
func (a *Mat[T, I]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return a.StoredScalars()*s +
		int64(len(a.bcol))*int64(idx.Bytes[I]()) +
		int64(len(a.edgeCol)+len(a.edgeSeg)+len(a.browPtr))*4
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
func (a *Mat[T, I]) RowAlign() int { return a.b }

// RowWeights implements formats.Instance: each diagonal block stores one
// scalar in every row of its segment. A bottom-edge segment's ghost rows
// have their scalars redistributed over its real rows so that the weights
// sum exactly to StoredScalars.
func (a *Mat[T, I]) RowWeights() []int64 {
	w := make([]int64, a.rows)
	nSegments := (a.rows + a.b - 1) / a.b
	nBlocks := make([]int64, nSegments)
	for seg := 0; seg < nSegments; seg++ {
		nBlocks[seg] = int64(a.browPtr[seg+1] - a.browPtr[seg])
	}
	for _, seg := range a.edgeSeg {
		nBlocks[seg]++
	}
	for seg := 0; seg < nSegments; seg++ {
		rowStart := seg * a.b
		nReal := min(a.b, a.rows-rowStart)
		total := nBlocks[seg] * int64(a.b)
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
	b := a.b
	if r0%b != 0 || (r1%b != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("bcsd: MulRange [%d,%d) not aligned to segment size %d", r0, r1, b))
	}
	seg0, seg1 := r0/b, (r1+b-1)/b
	for seg := seg0; seg < seg1; seg++ {
		lo, hi := int(a.browPtr[seg]), int(a.browPtr[seg+1])
		if lo == hi {
			continue
		}
		bvals := a.bval[lo*b : hi*b]
		bcols := a.bcol[lo:hi]
		rowStart := seg * b
		if rowStart+b <= a.rows {
			a.kernel(bvals, bcols, x, y[rowStart:rowStart+b])
		} else {
			// Bottom-edge segment: compute the surviving rows directly
			// rather than through the kernel, whose scratch output would
			// escape to the heap and allocate on every MulRange call.
			for k := range bcols {
				col := int(bcols[k])
				v := bvals[k*b : (k+1)*b]
				for bi := 0; rowStart+bi < a.rows; bi++ {
					y[rowStart+bi] += v[bi] * x[col+bi]
				}
			}
		}
	}
	for ei, seg := range a.edgeSeg {
		if int(seg) < seg0 || int(seg) >= seg1 {
			continue
		}
		start := int(a.edgeCol[ei])
		v := a.edgeVal[ei*b : (ei+1)*b]
		rowStart := int(seg) * b
		for k := 0; k < b && rowStart+k < a.rows; k++ {
			col := start + k
			if col < 0 || col >= a.cols {
				continue
			}
			y[rowStart+k] += v[k] * x[col]
		}
	}
}

// MulRangeMulti implements formats.Instance: the generated multi-RHS
// diagonal kernel streams each interior segment once across the k-wide
// panel; bottom-edge segments and boundary blocks mirror MulRange's
// clipped loops per panel column, keeping every column bit-identical to
// a single-vector MulRange.
func (a *Mat[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if k == 0 {
		return
	}
	b := a.b
	if r0%b != 0 || (r1%b != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("bcsd: MulRangeMulti [%d,%d) not aligned to segment size %d", r0, r1, b))
	}
	kern := kernels.DiagMultiIx[T, I](b, a.impl, k)
	if kern == nil {
		kern = kernels.DiagGenericMultiIx[T, I](b)
	}
	seg0, seg1 := r0/b, (r1+b-1)/b
	for seg := seg0; seg < seg1; seg++ {
		lo, hi := int(a.browPtr[seg]), int(a.browPtr[seg+1])
		if lo == hi {
			continue
		}
		bvals := a.bval[lo*b : hi*b]
		bcols := a.bcol[lo:hi]
		rowStart := seg * b
		if rowStart+b <= a.rows {
			kern(bvals, bcols, x, y[rowStart*k:(rowStart+b)*k], k)
		} else {
			// Bottom-edge segment, clipped as in MulRange.
			for bk := range bcols {
				col := int(bcols[bk])
				v := bvals[bk*b : (bk+1)*b]
				for bi := 0; rowStart+bi < a.rows; bi++ {
					for l := 0; l < k; l++ {
						y[(rowStart+bi)*k+l] += v[bi] * x[(col+bi)*k+l]
					}
				}
			}
		}
	}
	for ei, seg := range a.edgeSeg {
		if int(seg) < seg0 || int(seg) >= seg1 {
			continue
		}
		start := int(a.edgeCol[ei])
		v := a.edgeVal[ei*b : (ei+1)*b]
		rowStart := int(seg) * b
		for d := 0; d < b && rowStart+d < a.rows; d++ {
			col := start + d
			if col < 0 || col >= a.cols {
				continue
			}
			for l := 0; l < k; l++ {
				y[(rowStart+d)*k+l] += v[d] * x[col*k+l]
			}
		}
	}
}

var (
	_ formats.Instance[float64] = (*Matrix[float64])(nil)
	_ formats.Instance[float64] = (*Mat[float64, uint16])(nil)
	_ formats.Instance[float64] = (*Mat[float64, uint8])(nil)
)

// WithImpl implements formats.Instance: a view over the same arrays with
// a different kernel implementation class.
func (a *Mat[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	b.kernel = kernels.DiagIx[T, I](b.b, impl)
	if b.kernel == nil {
		b.kernel = kernels.DiagGenericIx[T, I](b.b)
	}
	return &b
}
