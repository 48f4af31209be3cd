package blockspmv_test

import (
	"errors"
	"math"
	"testing"

	"blockspmv"
)

// checkedConstructors enumerates every Checked constructor with in-range
// shape arguments, so tests can sweep the whole validated surface.
func checkedConstructors() map[string]func(*blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
	return map[string]func(*blockspmv.Matrix[float64]) (blockspmv.Format[float64], error){
		"CSR": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewCSRChecked(m, blockspmv.Scalar)
		},
		"CSR/compact": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewCSRCompactChecked(m, blockspmv.Scalar)
		},
		"CSR-DU": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewCSRDUChecked(m, blockspmv.Vector)
		},
		"BCSR": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewBCSRChecked(m, 2, 4, blockspmv.Scalar)
		},
		"BCSR/compact": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewBCSRCompactChecked(m, 2, 4, blockspmv.Vector)
		},
		"BCSR-DEC": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewBCSRDecChecked(m, 2, 4, blockspmv.Scalar)
		},
		"BCSD": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewBCSDChecked(m, 4, blockspmv.Scalar)
		},
		"BCSD/compact": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewBCSDCompactChecked(m, 4, blockspmv.Scalar)
		},
		"BCSD-DEC": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewBCSDDecChecked(m, 4, blockspmv.Scalar)
		},
		"1D-VBL": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewVBLChecked(m, blockspmv.Scalar)
		},
		"SELL": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewSELLChecked(m, 8, 0, blockspmv.Scalar)
		},
		"VBR": func(m *blockspmv.Matrix[float64]) (blockspmv.Format[float64], error) {
			return blockspmv.NewVBRChecked(m, blockspmv.Scalar)
		},
	}
}

func TestCheckedConstructorsHappyPath(t *testing.T) {
	m := buildTestMatrix()
	for name, build := range checkedConstructors() {
		f, err := build(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mulAndCompare(t, m, f)
	}
}

func TestCheckedConstructorsRejectBadInput(t *testing.T) {
	unfinalized := blockspmv.NewMatrix[float64](8, 8)
	unfinalized.Add(0, 0, 1)

	for name, build := range checkedConstructors() {
		if _, err := build(nil); err == nil {
			t.Errorf("%s: nil matrix accepted", name)
		}
		if _, err := build(unfinalized); !errors.Is(err, blockspmv.ErrNotFinalized) {
			t.Errorf("%s: unfinalized matrix: err = %v, want ErrNotFinalized", name, err)
		}

		nan := buildTestMatrix()
		nan.Entries()[3].Val = math.NaN()
		if _, err := build(nan); !errors.Is(err, blockspmv.ErrNonFinite) {
			t.Errorf("%s: NaN entry: err = %v, want ErrNonFinite", name, err)
		}

		oob := buildTestMatrix()
		oob.Entries()[0].Col = 1 << 20
		if _, err := build(oob); !errors.Is(err, blockspmv.ErrIndexRange) {
			t.Errorf("%s: out-of-range entry: err = %v, want ErrIndexRange", name, err)
		}

		dup := buildTestMatrix()
		e := dup.Entries()
		e[1] = e[0]
		if _, err := build(dup); !errors.Is(err, blockspmv.ErrDuplicate) {
			t.Errorf("%s: duplicate entry: err = %v, want ErrDuplicate", name, err)
		}

		unsorted := buildTestMatrix()
		e = unsorted.Entries()
		e[0], e[1] = e[1], e[0]
		if _, err := build(unsorted); !errors.Is(err, blockspmv.ErrUnsorted) {
			t.Errorf("%s: unsorted entries: err = %v, want ErrUnsorted", name, err)
		}
	}
}

func TestCheckedConstructorsRejectBadShapes(t *testing.T) {
	m := buildTestMatrix()
	var se *blockspmv.ShapeError

	badRect := [][2]int{{0, 4}, {2, 0}, {-1, 2}, {3, 3}, {2, 5}, {9, 1}}
	for _, rc := range badRect {
		if _, err := blockspmv.NewBCSRChecked(m, rc[0], rc[1], blockspmv.Scalar); !errors.As(err, &se) {
			t.Errorf("BCSR %dx%d: err = %v, want *ShapeError", rc[0], rc[1], err)
		}
		if _, err := blockspmv.NewBCSRCompactChecked(m, rc[0], rc[1], blockspmv.Scalar); !errors.As(err, &se) {
			t.Errorf("BCSR/compact %dx%d: err = %v, want *ShapeError", rc[0], rc[1], err)
		}
		if _, err := blockspmv.NewBCSRDecChecked(m, rc[0], rc[1], blockspmv.Scalar); !errors.As(err, &se) {
			t.Errorf("BCSR-DEC %dx%d: err = %v, want *ShapeError", rc[0], rc[1], err)
		}
	}
	for _, c := range []int{-4, 0} {
		if _, err := blockspmv.NewSELLChecked(m, c, 1, blockspmv.Scalar); err == nil {
			t.Errorf("SELL chunk %d: accepted, want error", c)
		}
	}
	for _, b := range []int{-3, 0, 1, 9, 1 << 30} {
		if _, err := blockspmv.NewBCSDChecked(m, b, blockspmv.Scalar); !errors.As(err, &se) {
			t.Errorf("BCSD d%d: err = %v, want *ShapeError", b, err)
		}
		if _, err := blockspmv.NewBCSDCompactChecked(m, b, blockspmv.Scalar); !errors.As(err, &se) {
			t.Errorf("BCSD/compact d%d: err = %v, want *ShapeError", b, err)
		}
		if _, err := blockspmv.NewBCSDDecChecked(m, b, blockspmv.Scalar); !errors.As(err, &se) {
			t.Errorf("BCSD-DEC d%d: err = %v, want *ShapeError", b, err)
		}
	}
}

func TestNewMatrixChecked(t *testing.T) {
	if _, err := blockspmv.NewMatrixChecked[float64](-1, 4); !errors.Is(err, blockspmv.ErrDims) {
		t.Errorf("negative rows: err = %v, want ErrDims", err)
	}
	if _, err := blockspmv.NewMatrixChecked[float64](4, 1<<40); !errors.Is(err, blockspmv.ErrDims) {
		t.Errorf("huge cols: err = %v, want ErrDims", err)
	}
	m, err := blockspmv.NewMatrixChecked[float64](4, 4)
	if err != nil || m == nil {
		t.Fatalf("valid shape: %v", err)
	}
}

func TestMulVecChecked(t *testing.T) {
	m := buildTestMatrix()
	f := blockspmv.NewCSR(m, blockspmv.Scalar)

	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	if err := blockspmv.MulVecChecked(f, x, y); err != nil {
		t.Fatalf("matching dims: %v", err)
	}

	var de *blockspmv.DimError
	if err := blockspmv.MulVecChecked(f, x[:m.Cols()-1], y); !errors.As(err, &de) {
		t.Errorf("short x: err = %v, want *DimError", err)
	}
	if err := blockspmv.MulVecChecked(f, x, y[:m.Rows()-1]); !errors.As(err, &de) {
		t.Errorf("short y: err = %v, want *DimError", err)
	}
	if err := blockspmv.MulVecChecked[float64](nil, x, y); err == nil {
		t.Error("nil format accepted")
	}
}

func TestInstantiateChecked(t *testing.T) {
	m := buildTestMatrix()
	prof := testProfile(t)
	preds := blockspmv.Rank(m, blockspmv.Models()[0], testMachine(), prof)
	f, err := blockspmv.InstantiateChecked(m, preds[0].Cand)
	if err != nil {
		t.Fatalf("InstantiateChecked(best): %v", err)
	}
	mulAndCompare(t, m, f)

	var ce *blockspmv.ConstructionError
	if _, err := blockspmv.InstantiateChecked(m, blockspmv.Candidate{Method: 99}); !errors.As(err, &ce) {
		t.Errorf("unknown method: err = %v, want *ConstructionError", err)
	}
	bad := buildTestMatrix()
	bad.Entries()[0].Row = -5
	if _, err := blockspmv.InstantiateChecked(bad, preds[0].Cand); !errors.Is(err, blockspmv.ErrIndexRange) {
		t.Errorf("corrupt matrix: err = %v, want ErrIndexRange", err)
	}
}

func TestValidatePublic(t *testing.T) {
	m := buildTestMatrix()
	if err := blockspmv.Validate(m); err != nil {
		t.Fatalf("valid matrix: %v", err)
	}
	if err := blockspmv.Validate[float64](nil); err == nil {
		t.Error("nil matrix accepted")
	}
	m.Entries()[2].Val = math.Inf(1)
	if err := blockspmv.Validate(m); !errors.Is(err, blockspmv.ErrNonFinite) {
		t.Errorf("Inf entry: err = %v, want ErrNonFinite", err)
	}
}
