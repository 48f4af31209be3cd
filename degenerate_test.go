package blockspmv_test

import (
	"testing"

	"blockspmv"
)

// degenerateMatrices covers the shapes that break naive converters: empty
// on one or both axes, square but entryless, and a lone entry.
func degenerateMatrices() map[string]*blockspmv.Matrix[float64] {
	zeroByZero := blockspmv.NewMatrix[float64](0, 0)
	zeroByZero.Finalize()

	rowsOnly := blockspmv.NewMatrix[float64](5, 0)
	rowsOnly.Finalize()

	colsOnly := blockspmv.NewMatrix[float64](0, 5)
	colsOnly.Finalize()

	empty := blockspmv.NewMatrix[float64](6, 6)
	empty.Finalize()

	single := blockspmv.NewMatrix[float64](7, 9)
	single.Add(3, 4, 2.5)
	single.Finalize()

	return map[string]*blockspmv.Matrix[float64]{
		"0x0":    zeroByZero,
		"5x0":    rowsOnly,
		"0x5":    colsOnly,
		"no-nnz": empty,
		"single": single,
	}
}

// allConstructors enumerates every public plain constructor with valid
// shape arguments.
func allConstructors() map[string]func(*blockspmv.Matrix[float64]) blockspmv.Format[float64] {
	return map[string]func(*blockspmv.Matrix[float64]) blockspmv.Format[float64]{
		"CSR": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewCSR(m, blockspmv.Scalar)
		},
		"CSR/compact": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewCSRCompact(m, blockspmv.Scalar)
		},
		"CSR-DU": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewCSRDU(m, blockspmv.Scalar)
		},
		"BCSR": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewBCSR(m, 2, 4, blockspmv.Scalar)
		},
		"BCSR/compact": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewBCSRCompact(m, 2, 4, blockspmv.Scalar)
		},
		"BCSR-DEC": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewBCSRDec(m, 2, 4, blockspmv.Scalar)
		},
		"BCSD": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewBCSD(m, 4, blockspmv.Scalar)
		},
		"BCSD/compact": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewBCSDCompact(m, 4, blockspmv.Scalar)
		},
		"BCSD-DEC": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewBCSDDec(m, 4, blockspmv.Scalar)
		},
		"1D-VBL": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewVBL(m, blockspmv.Scalar)
		},
		"SELL": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewSELL(m, 8, 0, blockspmv.Scalar)
		},
		"SELL/compact": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewSELLCompact(m, 4, 1, blockspmv.Scalar)
		},
		"VBR": func(m *blockspmv.Matrix[float64]) blockspmv.Format[float64] {
			return blockspmv.NewVBR(m, blockspmv.Scalar)
		},
	}
}

func TestDegenerateMatricesAllConstructors(t *testing.T) {
	for mname, m := range degenerateMatrices() {
		for fname, build := range allConstructors() {
			f := func() (f blockspmv.Format[float64]) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s on %s: construction panicked: %v", fname, mname, r)
					}
				}()
				return build(m)
			}()
			if f.Rows() != m.Rows() || f.Cols() != m.Cols() {
				t.Errorf("%s on %s: %dx%d, want %dx%d", fname, mname, f.Rows(), f.Cols(), m.Rows(), m.Cols())
			}
			if f.NNZ() != int64(m.NNZ()) {
				t.Errorf("%s on %s: NNZ %d, want %d", fname, mname, f.NNZ(), m.NNZ())
			}
			mulAndCompare(t, m, f)
		}
	}
}

func TestDegenerateMatricesCheckedConstructors(t *testing.T) {
	for mname, m := range degenerateMatrices() {
		for fname, build := range checkedConstructors() {
			f, err := build(m)
			if err != nil {
				t.Fatalf("%s on %s: %v", fname, mname, err)
			}
			mulAndCompare(t, m, f)
		}
	}
}

func TestDegenerateParallelMul(t *testing.T) {
	for mname, m := range degenerateMatrices() {
		f := blockspmv.NewCSR(m, blockspmv.Scalar)
		pm := blockspmv.NewParallelMul(f, 4)
		x := make([]float64, m.Cols())
		y := make([]float64, m.Rows())
		if err := pm.MulVec(x, y); err != nil {
			t.Errorf("%s: MulVec: %v", mname, err)
		}
		pm.Close()
	}
}

func TestDegenerateAutotune(t *testing.T) {
	prof := testProfile(t)
	for mname, m := range degenerateMatrices() {
		f, pred := blockspmv.Autotune(m, testMachine(), prof)
		if f == nil {
			t.Fatalf("%s: no format (prediction %+v)", mname, pred)
		}
		mulAndCompare(t, m, f)
	}
}
