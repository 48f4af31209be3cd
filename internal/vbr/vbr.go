// Package vbr implements the Variable Block Row format of SPARSKIT
// (Saad [13]), the two-dimensional variable-block format Section II
// describes. The paper surveys VBR but does not evaluate it (its extra
// indexing makes it uncompetitive, like 1D-VBL); this library goes one
// step further and makes VBR a modelled candidate by choosing its block
// boundaries with the cost-model-driven aggregation of
// internal/partition.
//
// VBR partitions the rows and the columns; every block that contains at
// least one nonzero is stored as a fully dense column-major tile (zeros
// are filled in), as SPARSKIT does. Two partition choices are provided:
// New groups consecutive rows/columns with identical sparsity patterns
// (the classic run-detection heuristic — every stored block is dense, no
// fill), and NewDP uses the Ahrens & Boman dynamic program to minimize
// the exact streamed footprint, trading a little fill for much smaller
// index arrays on shared-sparsity matrices.
package vbr

import (
	"fmt"
	"slices"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/partition"
)

// Matrix is a sparse matrix in VBR format.
type Matrix[T floats.Float] struct {
	rows, cols int
	rpntr      []int32 // block-row boundaries, len nBlockRows+1
	cpntr      []int32 // block-column boundaries, len nBlockCols+1
	browPtr    []int32 // first block of each block row, len nBlockRows+1
	bcolInd    []int32 // block-column index per block
	valPtr     []int32 // offset of each block in val, len nBlocks+1
	val        []T

	nnz  int64
	dp   bool // partition chosen by the cost-model DP, not run detection
	impl blocks.Impl
}

// New converts a finalized coordinate matrix to VBR using the
// run-detection heuristic partition (identical-pattern row and column
// groups): every stored block is completely dense, no fill.
func New[T floats.Float](m *mat.COO[T], impl blocks.Impl) *Matrix[T] {
	if !m.Finalized() {
		panic("vbr: matrix must be finalized")
	}
	return fromPartition(m, partition.Identity(mat.PatternOf(m)), impl, false)
}

// NewDP converts a finalized coordinate matrix to VBR using the
// cost-model-driven partition of partition.AggregateVBR, which minimizes
// the exact streamed footprint and is never worse than New's heuristic.
func NewDP[T floats.Float](m *mat.COO[T], impl blocks.Impl) *Matrix[T] {
	if !m.Finalized() {
		panic("vbr: matrix must be finalized")
	}
	pt := partition.AggregateVBR(mat.PatternOf(m), floats.SizeOf[T]())
	a := fromPartition(m, pt, impl, true)
	return a
}

// NewPartitioned converts a finalized coordinate matrix to VBR using a
// caller-supplied partition, validating it first. Blocks containing any
// nonzero are stored fully dense with zero fill, so any valid partition
// produces a correct matrix; partition.VBRStats prices the result
// exactly before construction.
func NewPartitioned[T floats.Float](m *mat.COO[T], pt partition.VBRPartition, impl blocks.Impl) (*Matrix[T], error) {
	if !m.Finalized() {
		return nil, fmt.Errorf("vbr: matrix must be finalized")
	}
	if err := pt.Validate(m.Rows(), m.Cols()); err != nil {
		return nil, err
	}
	return fromPartition(m, pt, impl, true), nil
}

// fromPartition builds the VBR arrays for a valid partition. Every block
// with at least one nonzero is stored fully dense (column-major), with
// zero fill where the pattern has no entry.
func fromPartition[T floats.Float](m *mat.COO[T], pt partition.VBRPartition, impl blocks.Impl, dp bool) *Matrix[T] {
	rpntr, cpntr := pt.Rpntr, pt.Cpntr
	a := &Matrix[T]{
		rows: m.Rows(), cols: m.Cols(),
		rpntr: rpntr, cpntr: cpntr,
		nnz: int64(m.NNZ()), dp: dp, impl: impl,
	}

	// Map each column to its block column.
	colBlock := make([]int32, m.Cols())
	for bj := 0; bj+1 < len(cpntr); bj++ {
		for c := cpntr[bj]; c < cpntr[bj+1]; c++ {
			colBlock[c] = int32(bj)
		}
	}

	nBlockRows := len(rpntr) - 1
	nBlockCols := len(cpntr) - 1
	a.browPtr = make([]int32, nBlockRows+1)
	a.valPtr = append(a.valPtr, 0)

	mark := make([]int32, nBlockCols)
	for i := range mark {
		mark[i] = -1
	}

	entries := m.Entries()
	lo := 0
	for bi := 0; bi < nBlockRows; bi++ {
		rowEnd := rpntr[bi+1]
		hi := lo
		for hi < len(entries) && entries[hi].Row < rowEnd {
			hi++
		}
		// Distinct block columns touched by any row of this block row.
		var bcols []int32
		for i := lo; i < hi; i++ {
			bj := colBlock[entries[i].Col]
			if mark[bj] != int32(bi) {
				mark[bj] = int32(bi)
				bcols = append(bcols, bj)
			}
		}
		slices.Sort(bcols)

		blockBase := len(a.bcolInd)
		a.bcolInd = append(a.bcolInd, bcols...)
		brHeight := int(rpntr[bi+1] - rpntr[bi])
		for _, bj := range bcols {
			bw := int(cpntr[bj+1] - cpntr[bj])
			a.valPtr = append(a.valPtr, a.valPtr[len(a.valPtr)-1]+int32(brHeight*bw))
		}
		a.val = append(a.val, make([]T, int(a.valPtr[len(a.valPtr)-1])-len(a.val))...)

		// Fill values column-major within each block (SPARSKIT layout).
		for i := lo; i < hi; i++ {
			e := entries[i]
			bj := colBlock[e.Col]
			k, ok := slices.BinarySearch(bcols, bj)
			if !ok {
				panic(fmt.Sprintf("vbr: block (%d,%d) missing from block-column union", bi, bj))
			}
			localR := int(e.Row - rpntr[bi])
			localC := int(e.Col - cpntr[bj])
			off := int(a.valPtr[blockBase+k]) + localC*brHeight + localR
			a.val[off] = e.Val
		}
		a.browPtr[bi+1] = int32(len(a.bcolInd))
		lo = hi
	}
	return a
}

// Blocks returns the number of stored dense blocks.
func (a *Matrix[T]) Blocks() int64 { return int64(len(a.bcolInd)) }

// BlockRows returns the number of block rows in the partition.
func (a *Matrix[T]) BlockRows() int { return len(a.rpntr) - 1 }

// BlockCols returns the number of block columns in the partition.
func (a *Matrix[T]) BlockCols() int { return len(a.cpntr) - 1 }

// Name implements formats.Instance.
func (a *Matrix[T]) Name() string {
	n := "VBR"
	if a.dp {
		n += "-DP"
	}
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

// StoredScalars implements formats.Instance: the dense-block scalars
// including any zero fill a DP partition introduced (the run-detection
// partition stores exactly NNZ).
func (a *Matrix[T]) StoredScalars() int64 { return int64(len(a.val)) }

// MatrixBytes implements formats.Instance.
func (a *Matrix[T]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return int64(len(a.val))*s +
		int64(len(a.rpntr)+len(a.cpntr)+len(a.browPtr)+len(a.bcolInd)+len(a.valPtr))*4
}

// Components implements formats.Instance. Variable-size blocks have no
// fixed shape, so the component reports the degenerate 1x1 shape with
// Blocks equal to the stored scalars — the per-scalar normalization the
// profiling layer uses for the VBR kernel variant, mirroring how CSR is
// modelled as 1x1 blocking with nb = nnz.
func (a *Matrix[T]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   blocks.RectShape(1, 1),
		Impl:    a.impl,
		Blocks:  a.StoredScalars(),
		WSBytes: a.MatrixBytes(),
		Variant: blocks.VBR,
	}}
}

// RowAlign implements formats.Instance. VBR row ranges must respect the
// partition, which is data-dependent; the executor treats VBR as
// unsplittable by returning the full row count (floored at 1 so an empty
// matrix still reports a valid alignment).
func (a *Matrix[T]) RowAlign() int { return max(a.rows, 1) }

// RowWeights implements formats.Instance.
func (a *Matrix[T]) RowWeights() []int64 {
	w := make([]int64, a.rows)
	for bi := 0; bi+1 < len(a.rpntr); bi++ {
		var scalars int64
		for k := a.browPtr[bi]; k < a.browPtr[bi+1]; k++ {
			scalars += int64(a.valPtr[k+1] - a.valPtr[k])
		}
		h := int64(a.rpntr[bi+1] - a.rpntr[bi])
		if h == 0 {
			continue
		}
		// Distribute the block row's scalars exactly across its rows so
		// that the weights sum to StoredScalars.
		per, extra := scalars/h, scalars%h
		for i, r := int64(0), a.rpntr[bi]; r < a.rpntr[bi+1]; i, r = i+1, r+1 {
			w[r] = per
			if i < extra {
				w[r]++
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

// MulRange implements formats.Instance. Only the full range is supported
// (see RowAlign).
func (a *Matrix[T]) MulRange(x, y []T, r0, r1 int) {
	if r0 != 0 || r1 != a.rows {
		panic("vbr: MulRange supports only the full row range")
	}
	for bi := 0; bi+1 < len(a.rpntr); bi++ {
		rowStart := int(a.rpntr[bi])
		h := int(a.rpntr[bi+1]) - rowStart
		for k := a.browPtr[bi]; k < a.browPtr[bi+1]; k++ {
			bj := a.bcolInd[k]
			colStart := int(a.cpntr[bj])
			w := int(a.cpntr[bj+1]) - colStart
			block := a.val[a.valPtr[k]:a.valPtr[k+1]]
			// Column-major block: block[c*h+r].
			for c := 0; c < w; c++ {
				xv := x[colStart+c]
				col := block[c*h : c*h+h]
				for r := 0; r < h; r++ {
					y[rowStart+r] += col[r] * xv
				}
			}
		}
	}
}

// MulRangeMulti implements formats.Instance. Only the full range is
// supported (see RowAlign). Like MulRange, blocks accumulate term by
// term directly into the output panel; for each panel column the
// per-element order matches MulRange bit for bit.
func (a *Matrix[T]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if r0 != 0 || r1 != a.rows {
		panic("vbr: MulRangeMulti supports only the full row range")
	}
	if k == 0 {
		return
	}
	for bi := 0; bi+1 < len(a.rpntr); bi++ {
		rowStart := int(a.rpntr[bi])
		h := int(a.rpntr[bi+1]) - rowStart
		for blk := a.browPtr[bi]; blk < a.browPtr[bi+1]; blk++ {
			bj := a.bcolInd[blk]
			colStart := int(a.cpntr[bj])
			w := int(a.cpntr[bj+1]) - colStart
			block := a.val[a.valPtr[blk]:a.valPtr[blk+1]]
			for c := 0; c < w; c++ {
				col := block[c*h : c*h+h]
				for l := 0; l < k; l++ {
					xv := x[(colStart+c)*k+l]
					for r := 0; r < h; r++ {
						y[(rowStart+r)*k+l] += col[r] * xv
					}
				}
			}
		}
	}
}

var _ formats.Instance[float64] = (*Matrix[float64])(nil)

// WithImpl implements formats.Instance. VBR has a single kernel; the
// class only affects the instance name.
func (a *Matrix[T]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	return &b
}
