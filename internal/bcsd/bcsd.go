// Package bcsd is the diagonal entry point to the fixed-block formats of
// package bcsr: the Blocked Compressed Sparse Diagonal format and its
// decomposed variant BCSD-DEC.
//
// BCSD is analogous to BCSR but exploits small dense diagonal sub-blocks: a
// block of size b holds the elements (i+k, j+k), k in [0,b), and must start
// at a row i with i%b == 0. The alignment splits the matrix into row
// segments of height b; brow_ptr points to the first block of each segment,
// bcol stores each block's starting column and bval the block values.
// Missing elements are padded with zeros (Section II.A).
//
// A diagonal block is the b x 1 block shape whose column shifts by one per
// row, so package bcsr stores, builds and multiplies it with the same code
// as a rectangular block; the constructors here pass it a diagonal shape.
// Diagonal blocks starting left of column 0 or ending right of the last
// column go to bcsr's clipped edge arrays.
package bcsd

import (
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
)

// Matrix is the paper's baseline BCSD instantiation: 4-byte block start
// columns.
type Matrix[T floats.Float] = bcsr.Mat[T, int32]

// Decomposed is the paper's baseline BCSD-DEC instantiation: 4-byte
// column indices in both components.
type Decomposed[T floats.Float] = bcsr.Dec[T, int32]

// New converts a finalized coordinate matrix to BCSD with diagonal blocks
// of size b. It panics if b is outside 2..blocks.MaxBlockElems or the
// matrix is not finalized.
func New[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) *Matrix[T] {
	return bcsr.NewShape[T, int32](m, blocks.DiagShape(b), impl)
}

// NewCompact converts a finalized coordinate matrix to BCSD with the
// narrowest block-start-column type the matrix width permits.
func NewCompact[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) formats.Instance[T] {
	return bcsr.NewShapeCompact(m, blocks.DiagShape(b), impl)
}

// NewDecomposed converts a finalized coordinate matrix to BCSD-DEC with
// diagonal blocks of size b.
func NewDecomposed[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) *Decomposed[T] {
	return bcsr.NewShapeDecomposed[T, int32](m, blocks.DiagShape(b), impl)
}

// NewDecomposedCompact converts a finalized coordinate matrix to
// BCSD-DEC with the narrowest column-index type the matrix width
// permits.
func NewDecomposedCompact[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) formats.Instance[T] {
	return bcsr.NewShapeDecomposedCompact(m, blocks.DiagShape(b), impl)
}

// SplitFullBlocks partitions the entries of m into a matrix containing
// exactly the completely dense aligned diagonal blocks of size b and a
// matrix with everything else. Both results are finalized.
func SplitFullBlocks[T floats.Float](m *mat.COO[T], b int) (full, rem *mat.COO[T]) {
	return bcsr.SplitShape(m, blocks.DiagShape(b))
}
