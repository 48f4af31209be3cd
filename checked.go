package blockspmv

import (
	"fmt"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/core"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/overlay"
	"blockspmv/internal/parallel"
	"blockspmv/internal/sell"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
	"blockspmv/internal/workpool"
)

// This file is the error-returning construction surface. The plain NewXxx
// constructors trust their input and panic on contract violations, which
// is the right trade for the benchmark harness; these Checked twins accept
// arbitrary input — untrusted files, fuzzer output, hostile callers — and
// return typed errors instead. Hot multiply loops stay validation-free
// either way: all checking happens once, at the construction boundary.

// PanicError reports a panic recovered inside a parallel kernel: which
// partition part panicked, the panic value, and the goroutine stack.
// ParallelMul.MulVec and the solvers surface it via errors.As.
type PanicError = workpool.PanicError

// PoisonedError reports a ParallelMul (or solver worker team) reused after
// an earlier kernel panic poisoned it; First is that original panic.
type PoisonedError = workpool.PoisonedError

// DimError reports operand vectors whose lengths do not match the matrix
// shape, from MulVecChecked or ParallelMul.MulVec.
type DimError = formats.DimError

// PanelError reports right-hand-side and output panels of different
// widths passed to MulVecsChecked or ParallelMul.MulVecs (individual
// vectors of the wrong length surface as *DimError).
type PanelError = formats.PanelError

// ShapeError reports an unsupported block geometry (r, c or b out of the
// kernel set's range) passed to a Checked constructor.
type ShapeError = blocks.ShapeError

// Sentinel errors surfaced by the validated construction and execution
// paths; match with errors.Is.
var (
	// ErrPoolClosed marks a ParallelMul used after Close.
	ErrPoolClosed = parallel.ErrClosed
	// ErrPoisoned marks a worker pool reused after a kernel panic.
	ErrPoisoned = workpool.ErrPoisoned
	// ErrDims marks negative or index-overflowing matrix dimensions.
	ErrDims = mat.ErrDims
	// ErrIndexRange marks a matrix entry outside the declared shape.
	ErrIndexRange = mat.ErrIndexRange
	// ErrNonFinite marks a NaN or infinite matrix entry.
	ErrNonFinite = mat.ErrNonFinite
	// ErrDuplicate marks duplicate coordinates in a finalized matrix.
	ErrDuplicate = mat.ErrDuplicate
	// ErrUnsorted marks a finalized matrix with out-of-order entries.
	ErrUnsorted = mat.ErrUnsorted
	// ErrNotFinalized marks a matrix passed to a converter before Finalize.
	ErrNotFinalized = mat.ErrNotFinalized
)

// ConstructionError reports a panic that escaped a format converter on
// input that passed validation — a converter bug or a corruption mode
// Validate does not model. The Checked constructors convert it to an
// error so no public construction path can crash the process.
type ConstructionError struct {
	// Format names the converter that panicked, e.g. "BCSR(2x4)".
	Format string
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *ConstructionError) Error() string {
	return fmt.Sprintf("blockspmv: %s construction panicked: %v", e.Format, e.Value)
}

// NewMatrixChecked is NewMatrix with shape validation: negative or
// index-overflowing dimensions return ErrDims instead of panicking.
func NewMatrixChecked[T Float](rows, cols int) (*Matrix[T], error) {
	return mat.NewChecked[T](rows, cols)
}

// Validate checks the structural integrity of an assembled matrix: every
// entry inside the declared shape, every value finite, and — once
// finalized — entries sorted with no duplicate coordinates. It returns a
// typed error wrapping one of the Err* sentinels on the first violation.
// Run it on externally-assembled or deserialized matrices before feeding
// them to the (panicking, trusting) plain constructors.
func Validate[T Float](m *Matrix[T]) error {
	if m == nil {
		return fmt.Errorf("blockspmv: nil matrix")
	}
	return m.Validate()
}

// MulVecChecked computes y = A*x with explicit dimension checking,
// returning a *DimError on operand-length mismatch instead of panicking
// or reading out of range. Use it when x and y come from untrusted input;
// inner-loop callers that control their buffers use f.Mul directly.
func MulVecChecked[T Float](f Format[T], x, y []T) error {
	if f == nil {
		return fmt.Errorf("blockspmv: nil format")
	}
	if err := formats.CheckDimsErr(f, x, y); err != nil {
		return err
	}
	f.Mul(x, y)
	return nil
}

// MulVecsChecked is MulVecs with explicit panel checking: mismatched
// panel widths return a *PanelError and wrong-length vectors a *DimError
// instead of panicking. An empty panel is a no-op.
func MulVecsChecked[T Float](f Format[T], x, y [][]T) error {
	if f == nil {
		return fmt.Errorf("blockspmv: nil format")
	}
	if err := formats.CheckPanelDimsErr(f, x, y); err != nil {
		return err
	}
	formats.MulVecs(f, x, y)
	return nil
}

// checkedInput gates every Checked constructor: non-nil, finalized,
// structurally valid.
func checkedInput[T Float](m *Matrix[T]) error {
	if m == nil {
		return fmt.Errorf("blockspmv: nil matrix")
	}
	if !m.Finalized() {
		return fmt.Errorf("%w: call Finalize before converting", mat.ErrNotFinalized)
	}
	return m.Validate()
}

// construct runs a format converter under a recover backstop, turning any
// escaped panic into a *ConstructionError.
func construct[T Float](name string, build func() Format[T]) (f Format[T], err error) {
	defer func() {
		if r := recover(); r != nil {
			f, err = nil, &ConstructionError{Format: name, Value: r}
		}
	}()
	return build(), nil
}

// NewCSRChecked is NewCSR over validated input: it rejects nil,
// unfinalized or structurally corrupt matrices with typed errors and
// never panics.
func NewCSRChecked[T Float](m *Matrix[T], impl Impl) (Format[T], error) {
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	return construct("CSR", func() Format[T] { return csr.FromCOO(m, impl) })
}

// NewCSRCompactChecked is NewCSRCompact over validated input.
func NewCSRCompactChecked[T Float](m *Matrix[T], impl Impl) (Format[T], error) {
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	return construct("CSR/compact", func() Format[T] { return csr.NewCompact(m, impl) })
}

// NewCSRDUChecked is NewCSRDU over validated input.
func NewCSRDUChecked[T Float](m *Matrix[T], impl Impl) (Format[T], error) {
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	return construct("CSR-DU", func() Format[T] { return csrdu.New(m, impl) })
}

// NewBCSRChecked is NewBCSR over validated input; bad r, c return a
// *ShapeError.
func NewBCSRChecked[T Float](m *Matrix[T], r, c int, impl Impl) (Format[T], error) {
	if err := blocks.RectShape(r, c).Check(); err != nil {
		return nil, err
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("BCSR(%dx%d)", r, c)
	return construct(name, func() Format[T] { return bcsr.New(m, r, c, impl) })
}

// NewBCSRCompactChecked is NewBCSRCompact over validated input.
func NewBCSRCompactChecked[T Float](m *Matrix[T], r, c int, impl Impl) (Format[T], error) {
	if err := blocks.RectShape(r, c).Check(); err != nil {
		return nil, err
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("BCSR(%dx%d)/compact", r, c)
	return construct(name, func() Format[T] { return bcsr.NewCompact(m, r, c, impl) })
}

// NewBCSRDecChecked is NewBCSRDec over validated input.
func NewBCSRDecChecked[T Float](m *Matrix[T], r, c int, impl Impl) (Format[T], error) {
	if err := blocks.RectShape(r, c).Check(); err != nil {
		return nil, err
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("BCSR-DEC(%dx%d)", r, c)
	return construct(name, func() Format[T] { return bcsr.NewDecomposed(m, r, c, impl) })
}

// NewBCSDChecked is NewBCSD over validated input; bad b returns a
// *ShapeError.
func NewBCSDChecked[T Float](m *Matrix[T], b int, impl Impl) (Format[T], error) {
	if err := blocks.DiagShape(b).Check(); err != nil {
		return nil, err
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("BCSD(%d)", b)
	return construct(name, func() Format[T] { return bcsd.New(m, b, impl) })
}

// NewBCSDCompactChecked is NewBCSDCompact over validated input.
func NewBCSDCompactChecked[T Float](m *Matrix[T], b int, impl Impl) (Format[T], error) {
	if err := blocks.DiagShape(b).Check(); err != nil {
		return nil, err
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("BCSD(%d)/compact", b)
	return construct(name, func() Format[T] { return bcsd.NewCompact(m, b, impl) })
}

// NewBCSDDecChecked is NewBCSDDec over validated input.
func NewBCSDDecChecked[T Float](m *Matrix[T], b int, impl Impl) (Format[T], error) {
	if err := blocks.DiagShape(b).Check(); err != nil {
		return nil, err
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("BCSD-DEC(%d)", b)
	return construct(name, func() Format[T] { return bcsd.NewDecomposed(m, b, impl) })
}

// NewVBLChecked is NewVBL over validated input.
func NewVBLChecked[T Float](m *Matrix[T], impl Impl) (Format[T], error) {
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	return construct("1D-VBL", func() Format[T] { return vbl.New(m, impl) })
}

// NewVBRChecked is NewVBR over validated input.
func NewVBRChecked[T Float](m *Matrix[T], impl Impl) (Format[T], error) {
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	return construct("VBR", func() Format[T] { return vbr.New(m, impl) })
}

// NewSELLChecked is NewSELL over validated input: a non-positive chunk
// height or a matrix too wide for the requested layout comes back as an
// error instead of a panic. Any sigma is accepted (non-positive means
// whole-matrix sorting).
func NewSELLChecked[T Float](m *Matrix[T], chunk, sigma int, impl Impl) (Format[T], error) {
	if chunk < 1 {
		return nil, fmt.Errorf("blockspmv: SELL chunk height %d (want >= 1)", chunk)
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("SELL-%d-%s", chunk, sell.SigmaName(sigma))
	return construct(name, func() Format[T] { return sell.New(m, chunk, sigma, impl) })
}

// NewOverlayChecked is NewOverlay over validated input: a nil or
// corrupt matrix, or a base that was not constructed from m, comes back
// as a typed error instead of a panic.
func NewOverlayChecked[T Float](f Format[T], m *Matrix[T]) (*MutableFormat[T], error) {
	if f == nil {
		return nil, fmt.Errorf("blockspmv: nil format")
	}
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	if f.Rows() != m.Rows() || f.Cols() != m.Cols() || f.NNZ() != int64(m.NNZ()) {
		return nil, fmt.Errorf("blockspmv: overlay base %s (%dx%d, nnz %d) does not match ground truth (%dx%d, nnz %d)",
			f.Name(), f.Rows(), f.Cols(), f.NNZ(), m.Rows(), m.Cols(), m.NNZ())
	}
	return overlay.Wrap(f, m), nil
}

// InstantiateChecked is Instantiate over validated input: the matrix is
// validated like the other Checked constructors, and a panic on a
// malformed candidate (unknown method, shape outside the kernel set)
// comes back as a *ConstructionError.
func InstantiateChecked[T Float](m *Matrix[T], c Candidate) (Format[T], error) {
	if err := checkedInput(m); err != nil {
		return nil, err
	}
	return construct(c.String(), func() Format[T] { return core.Instantiate(m, c) })
}
