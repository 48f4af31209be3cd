package core

import (
	"fmt"

	"blockspmv/internal/bcsr"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
	"blockspmv/internal/sell"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// Instantiate constructs the storage format a candidate describes for the
// given matrix. The experiment harness uses it to time the candidates the
// models rank. Candidates with a narrow index width must match the width
// the matrix admits (idx.FitsCols), which is how CandidatesCompressed
// produces them; the compact constructors then select that same width.
func Instantiate[T floats.Float](m *mat.COO[T], c Candidate) formats.Instance[T] {
	switch c.Method {
	case CSRDU:
		return csrdu.New(m, c.Impl)
	case VBR:
		if c.Part == PartDP {
			return vbr.NewDP(m, c.Impl)
		}
		return vbr.New(m, c.Impl)
	case VBL:
		if c.Part == PartDP {
			return vbl.NewDP(m, c.Impl)
		}
		return vbl.New(m, c.Impl)
	}
	if c.Width != idx.W32 {
		if w := idx.FitsCols(m.Cols()); w != c.Width {
			panic(fmt.Sprintf("core: cannot instantiate %v: matrix of %d columns requires %v", c, m.Cols(), w))
		}
		switch c.Method {
		case CSR:
			return csr.NewCompact(m, c.Impl)
		case SELL:
			return sell.NewCompact(m, c.Chunk, c.Sigma, c.Impl)
		case BCSR, BCSD:
			return bcsr.NewShapeCompact(m, c.Shape, c.Impl)
		case BCSRDec, BCSDDec:
			return bcsr.NewShapeDecomposedCompact(m, c.Shape, c.Impl)
		}
	}
	switch c.Method {
	case CSR:
		return csr.FromCOO(m, c.Impl)
	case SELL:
		return sell.New(m, c.Chunk, c.Sigma, c.Impl)
	case BCSR, BCSD:
		return bcsr.NewShape[T, int32](m, c.Shape, c.Impl)
	case BCSRDec, BCSDDec:
		return bcsr.NewShapeDecomposed[T, int32](m, c.Shape, c.Impl)
	default:
		panic(fmt.Sprintf("core: cannot instantiate %v", c))
	}
}
