// Package kernels provides the block-specific multiplication routines for
// every fixed block shape the paper evaluates (rectangular r x c with
// r*c <= 8 and diagonal b <= 8), each in a Scalar and a lane-structured
// Vector ("SIMD") variant, for both precisions via generics. The block
// kernels are additionally generic over the column-index storage width
// (int32/uint16/uint8, see internal/idx), and a third kernel family
// decodes the variable-width delta units of the CSR-DU format.
//
// The unrolled kernels are generated by genkernels (see the generate
// directive below) and checked in; this file holds the kernel types, the
// generic fallback kernels and lookup helpers.
package kernels

//go:generate go run ./genkernels

import (
	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/idx"
)

// BlockRowKernelIx multiplies every block of one block row (or row
// segment, for diagonal shapes) against x and accumulates into the block
// row's output rows y, reading column indices stored as type I.
//
// For a rectangular r x c shape: bval holds len(bcol) blocks of r*c values
// in row-major order, bcol holds each block's absolute starting column, and
// y is the r-element slice of output rows. For a diagonal shape of length
// b: block i covers elements (k, bcol[i]+k), k in [0,b), and y has b
// elements. Kernels assume every block is interior, i.e. its column span
// lies fully inside x; callers route boundary blocks through the clipped
// paths of their format package.
type BlockRowKernelIx[T floats.Float, I idx.Index] func(bval []T, bcol []I, x, y []T)

// BlockRowKernel is the paper's baseline instantiation of
// BlockRowKernelIx: column indices stored as int32.
type BlockRowKernel[T floats.Float] = BlockRowKernelIx[T, int32]

// DeltaUnitKernel consumes one CSR-DU delta unit: val holds the unit's
// values, stream its raw delta bytes (len(val) deltas of one fixed
// width), col the absolute column preceding the unit's first delta. It
// returns the unit's contribution to the row dot product and the final
// absolute column, which seeds the next unit of the row.
type DeltaUnitKernel[T floats.Float] func(val []T, stream []byte, x []T, col int32) (T, int32)

// BlockRowMultiKernelIx is the multi-RHS form of BlockRowKernelIx: x is
// a row-major panel of k right-hand sides (x[j*k+l] is element j of RHS
// l) and y the block row's output slab (y[i*k+l]). Per panel column the
// accumulation order matches the single-vector kernel of the same impl,
// so a multi kernel applied to a k-wide panel is bit-identical to k
// single-vector calls.
type BlockRowMultiKernelIx[T floats.Float, I idx.Index] func(bval []T, bcol []I, x, y []T, k int)

// BlockRowMultiKernel is BlockRowMultiKernelIx with int32 indices.
type BlockRowMultiKernel[T floats.Float] = BlockRowMultiKernelIx[T, int32]

// DeltaUnitMultiKernel is the multi-RHS form of DeltaUnitKernel: it
// decodes the same delta unit but gathers from panel column l of a
// k-wide row-major x panel, returning that column's dot contribution
// and the final absolute column.
type DeltaUnitMultiKernel[T floats.Float] func(val []T, stream []byte, x []T, col int32, k, l int) (T, int32)

// SellSliceKernelIx multiplies one SELL-C-σ slice: val and col hold
// width column-major groups of C lanes (element j of lane i lives at
// val[j*C+i]). The kernel keeps one accumulator chain per lane and
// scatters lane i's dot product into y[perm[i]], accumulating; perm is
// the slice's lane-to-original-row map and may be shorter than C when
// the matrix ends mid-slice (phantom lanes are computed but not
// scattered). Padded tail entries (val 0, col 0) append exact-zero
// terms. Per lane the j-ascending single-accumulator order of the
// Scalar variant matches the scalar CSR kernel, so the scattered result
// stays bit-identical to CSR row by row.
type SellSliceKernelIx[T floats.Float, I idx.Index] func(val []T, col []I, width int, x, y []T, perm []int32)

// SellSliceMultiKernelIx is the multi-RHS form of SellSliceKernelIx: x
// and y are row-major panels of k right-hand sides and lane i's column-l
// dot product accumulates into y[perm[i]*k+l]. Per panel column the
// accumulation order matches the single-vector kernel of the same impl.
type SellSliceMultiKernelIx[T floats.Float, I idx.Index] func(val []T, col []I, width int, x, y []T, perm []int32, k int)

// Rect returns the unrolled block-row kernel for the r x c rectangular
// shape with int32 indices, or nil if the shape is not in the generated
// set.
func Rect[T floats.Float](r, c int, impl blocks.Impl) BlockRowKernel[T] {
	return RectIx[T, int32](r, c, impl)
}

// ForShape returns the generated unrolled kernel for the shape and
// implementation class with int32 indices, or nil if the shape is outside
// the generated set.
func ForShape[T floats.Float](s blocks.Shape, impl blocks.Impl) BlockRowKernel[T] {
	return ForShapeIx[T, int32](s, impl)
}

// ForShapeIx is ForShape for any index storage width.
func ForShapeIx[T floats.Float, I idx.Index](s blocks.Shape, impl blocks.Impl) BlockRowKernelIx[T, I] {
	if s.Kind == blocks.Diag {
		return DiagIx[T, I](s.R, impl)
	}
	return RectIx[T, I](s.R, s.C, impl)
}

// ForShapeMultiIx returns the generated multi-RHS kernel for the shape,
// implementation class and panel width k, or nil if the shape is
// outside the generated set.
func ForShapeMultiIx[T floats.Float, I idx.Index](s blocks.Shape, impl blocks.Impl, k int) BlockRowMultiKernelIx[T, I] {
	if s.Kind == blocks.Diag {
		return DiagMultiIx[T, I](s.R, impl, k)
	}
	return RectMultiIx[T, I](s.R, s.C, impl, k)
}

// RectGenericIx returns a loop-based (non-unrolled) kernel for an
// arbitrary r x c shape and index width. It exists as the correctness
// baseline for the generated kernels and as the comparison point of the
// kernel-dispatch ablation (BenchmarkAblationDispatch).
func RectGenericIx[T floats.Float, I idx.Index](r, c int) BlockRowKernelIx[T, I] {
	e := r * c
	return func(bval []T, bcol []I, x, y []T) {
		for i, col := range bcol {
			v := bval[i*e : i*e+e]
			for bi := 0; bi < r; bi++ {
				var acc T
				for bj := 0; bj < c; bj++ {
					acc += v[bi*c+bj] * x[int(col)+bj]
				}
				y[bi] += acc
			}
		}
	}
}

// RectGeneric is RectGenericIx with int32 indices.
func RectGeneric[T floats.Float](r, c int) BlockRowKernel[T] {
	return RectGenericIx[T, int32](r, c)
}

// DiagGenericIx returns a loop-based kernel for an arbitrary diagonal
// length b and index width, the correctness baseline for the generated
// diagonal kernels.
func DiagGenericIx[T floats.Float, I idx.Index](b int) BlockRowKernelIx[T, I] {
	return func(bval []T, bcol []I, x, y []T) {
		for i, col := range bcol {
			v := bval[i*b : i*b+b]
			for k := 0; k < b; k++ {
				y[k] += v[k] * x[int(col)+k]
			}
		}
	}
}

// GenericIx returns the loop-based kernel for any valid shape and index
// width.
func GenericIx[T floats.Float, I idx.Index](s blocks.Shape) BlockRowKernelIx[T, I] {
	if s.Kind == blocks.Diag {
		return DiagGenericIx[T, I](s.R)
	}
	return RectGenericIx[T, I](s.R, s.C)
}

// Generic returns the loop-based kernel for any valid shape with int32
// indices.
func Generic[T floats.Float](s blocks.Shape) BlockRowKernel[T] {
	return GenericIx[T, int32](s)
}

// DeltaUnitGeneric returns a loop-based decoder for delta units of any
// byte width, the correctness baseline for the generated DeltaUnit
// kernels.
func DeltaUnitGeneric[T floats.Float](width int) DeltaUnitKernel[T] {
	return func(val []T, stream []byte, x []T, col int32) (T, int32) {
		var acc T
		for i, v := range val {
			var d int32
			for k := width - 1; k >= 0; k-- {
				d = d<<8 | int32(stream[i*width+k])
			}
			col += d
			acc += v * x[col]
		}
		return acc, col
	}
}

// RectGenericMultiIx returns a loop-based multi-RHS kernel for an
// arbitrary r x c shape, the correctness baseline for the generated
// multi kernels. Per panel column it reproduces RectGenericIx's
// accumulation order.
func RectGenericMultiIx[T floats.Float, I idx.Index](r, c int) BlockRowMultiKernelIx[T, I] {
	e := r * c
	return func(bval []T, bcol []I, x, y []T, k int) {
		for l := 0; l < k; l++ {
			for i, col := range bcol {
				v := bval[i*e : i*e+e]
				for bi := 0; bi < r; bi++ {
					var acc T
					for bj := 0; bj < c; bj++ {
						acc += v[bi*c+bj] * x[(int(col)+bj)*k+l]
					}
					y[bi*k+l] += acc
				}
			}
		}
	}
}

// DiagGenericMultiIx returns a loop-based multi-RHS kernel for an
// arbitrary diagonal length b, the correctness baseline for the
// generated multi diagonal kernels.
func DiagGenericMultiIx[T floats.Float, I idx.Index](b int) BlockRowMultiKernelIx[T, I] {
	return func(bval []T, bcol []I, x, y []T, k int) {
		for l := 0; l < k; l++ {
			for i, col := range bcol {
				v := bval[i*b : i*b+b]
				for d := 0; d < b; d++ {
					y[d*k+l] += v[d] * x[(int(col)+d)*k+l]
				}
			}
		}
	}
}

// GenericMultiIx returns the loop-based multi-RHS kernel for any valid
// shape and index width.
func GenericMultiIx[T floats.Float, I idx.Index](s blocks.Shape) BlockRowMultiKernelIx[T, I] {
	if s.Kind == blocks.Diag {
		return DiagGenericMultiIx[T, I](s.R)
	}
	return RectGenericMultiIx[T, I](s.R, s.C)
}

// SellGenericIx returns a loop-based SELL slice kernel for an arbitrary
// chunk height c, the correctness baseline for the generated slice
// kernels and the fallback for chunk heights outside the generated set.
// Per lane it accumulates j-ascending with a single accumulator, the
// same order as the generated Scalar variants.
func SellGenericIx[T floats.Float, I idx.Index](c int) SellSliceKernelIx[T, I] {
	return func(val []T, col []I, width int, x, y []T, perm []int32) {
		for i, r := range perm {
			var a T
			for j := 0; j < width; j++ {
				a += val[j*c+i] * x[col[j*c+i]]
			}
			y[r] += a
		}
	}
}

// SellGenericMultiIx returns a loop-based multi-RHS SELL slice kernel
// for an arbitrary chunk height c, the correctness baseline for the
// generated multi slice kernels. Per panel column it reproduces
// SellGenericIx's accumulation order.
func SellGenericMultiIx[T floats.Float, I idx.Index](c int) SellSliceMultiKernelIx[T, I] {
	return func(val []T, col []I, width int, x, y []T, perm []int32, k int) {
		for l := 0; l < k; l++ {
			for i, r := range perm {
				var a T
				for j := 0; j < width; j++ {
					a += val[j*c+i] * x[int(col[j*c+i])*k+l]
				}
				y[int(r)*k+l] += a
			}
		}
	}
}

// DeltaUnitGenericMulti returns a loop-based multi-RHS decoder for
// delta units of any byte width, the correctness baseline for the
// generated DeltaUnitMulti kernels.
func DeltaUnitGenericMulti[T floats.Float](width int) DeltaUnitMultiKernel[T] {
	return func(val []T, stream []byte, x []T, col int32, k, l int) (T, int32) {
		var acc T
		for i, v := range val {
			var d int32
			for b := width - 1; b >= 0; b-- {
				d = d<<8 | int32(stream[i*width+b])
			}
			col += d
			acc += v * x[int(col)*k+l]
		}
		return acc, col
	}
}
