package blockspmv_test

import (
	"bytes"
	"math"
	"testing"

	"blockspmv"
)

// buildTestMatrix assembles a small matrix with a blocked region and some
// scattered entries through the public API.
func buildTestMatrix() *blockspmv.Matrix[float64] {
	m := blockspmv.NewMatrix[float64](64, 64)
	for t := 0; t < 8; t++ {
		r0, c0 := t*8, (t*16)%56
		for i := 0; i < 2; i++ {
			for j := 0; j < 4; j++ {
				m.Add(int32(r0+i), int32(c0+j), float64(i*4+j+1))
			}
		}
	}
	for i := 0; i < 64; i++ {
		m.Add(int32(i), int32(i), 2)
	}
	m.Finalize()
	return m
}

func testMachine() blockspmv.Machine {
	return blockspmv.Machine{
		Cores: 1, L1DataBytes: 32 << 10, L2Bytes: 1 << 20, LLCBytes: 1 << 20,
		BandwidthBytesPerSec: 4 << 30, TriadBytes: 4 << 20,
	}
}

func testProfile(t *testing.T) *blockspmv.Profile {
	t.Helper()
	return blockspmv.CollectProfileWith[float64](testMachine(),
		blockspmv.ProfileOptions{TbBytes: 8 << 10, NofBytes: 1 << 20})
}

func mulAndCompare(t *testing.T, m *blockspmv.Matrix[float64], f blockspmv.Format[float64]) {
	t.Helper()
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = float64(i%13) / 13
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	got := make([]float64, m.Rows())
	f.Mul(x, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s: y[%d] = %g, want %g", f.Name(), i, got[i], want[i])
		}
	}
}

func TestAllPublicConstructors(t *testing.T) {
	m := buildTestMatrix()
	for _, f := range []blockspmv.Format[float64]{
		blockspmv.NewCSR(m, blockspmv.Scalar),
		blockspmv.NewCSR(m, blockspmv.Vector),
		blockspmv.NewCSRCompact(m, blockspmv.Scalar),
		blockspmv.NewCSRDU(m, blockspmv.Vector),
		blockspmv.NewBCSRCompact(m, 2, 4, blockspmv.Vector),
		blockspmv.NewBCSDCompact(m, 4, blockspmv.Scalar),
		blockspmv.NewBCSR(m, 2, 4, blockspmv.Scalar),
		blockspmv.NewBCSRDec(m, 2, 4, blockspmv.Vector),
		blockspmv.NewBCSD(m, 4, blockspmv.Scalar),
		blockspmv.NewBCSDDec(m, 4, blockspmv.Scalar),
		blockspmv.NewVBL(m, blockspmv.Scalar),
		blockspmv.NewVBR(m, blockspmv.Scalar),
	} {
		mulAndCompare(t, m, f)
	}
}

func TestAutotuneEndToEnd(t *testing.T) {
	m := buildTestMatrix()
	prof := testProfile(t)
	f, pred := blockspmv.Autotune(m, testMachine(), prof)
	if pred.Seconds <= 0 {
		t.Fatalf("prediction %+v", pred)
	}
	if f.Name() != pred.Cand.String() {
		t.Errorf("instantiated %q for candidate %q", f.Name(), pred.Cand)
	}
	mulAndCompare(t, m, f)
}

func TestRankCoversSelectionSpace(t *testing.T) {
	m := buildTestMatrix()
	prof := testProfile(t)
	for _, model := range blockspmv.Models() {
		preds := blockspmv.Rank(m, model, testMachine(), prof)
		// The paper's 106-candidate space plus the compressed-index
		// variants a 64-column matrix admits (the uint8 mirror of all 106
		// and the two CSR-DU candidates) plus the eight variable-block
		// candidates (VBR and 1D-VBL, heuristic and DP partitions, scalar
		// and simd) plus the 24 SELL-C-σ candidates (3 chunks x 2 sigmas
		// x 2 impls, mirrored at the admitted narrow width).
		if len(preds) != 246 {
			t.Fatalf("%s: ranked %d candidates, want 246", model.Name(), len(preds))
		}
		seen := make(map[string]bool)
		for i := 1; i < len(preds); i++ {
			if preds[i].Seconds < preds[i-1].Seconds {
				t.Fatalf("%s: ranking not sorted", model.Name())
			}
		}
		for _, p := range preds {
			seen[p.Cand.String()] = true
		}
		for _, want := range []string{"CSR", "CSR/ix8", "CSR-DU", "BCSR(2x4)/ix8/simd"} {
			if !seen[want] {
				t.Errorf("%s: candidate %s missing from ranking", model.Name(), want)
			}
		}
	}
}

func TestParallelMulPublic(t *testing.T) {
	m := buildTestMatrix()
	f := blockspmv.NewBCSR(m, 2, 4, blockspmv.Scalar)
	pm := blockspmv.NewParallelMul(f, 3)
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = 1
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	got := make([]float64, m.Rows())
	pm.MulVec(x, got) // the pool is reusable across calls
	pm.MulVec(x, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("parallel y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	pm.Close()
	if err := pm.MulVec(x, got); err == nil {
		t.Error("MulVec after Close did not return an error")
	}
}

func TestParallelSolvePublic(t *testing.T) {
	// SolverOptions.Workers runs the whole CG iteration on worker pools.
	m := buildTestMatrix()
	sym := blockspmv.NewMatrix[float64](m.Rows(), m.Rows())
	// A·Aᵀ-style SPD stand-in: diagonally dominant tridiagonal system.
	for i := 0; i < m.Rows(); i++ {
		sym.Add(int32(i), int32(i), 4)
		if i > 0 {
			sym.Add(int32(i), int32(i-1), -1)
			sym.Add(int32(i-1), int32(i), -1)
		}
	}
	sym.Finalize()
	f := blockspmv.NewCSR(sym, blockspmv.Scalar)
	b := make([]float64, sym.Rows())
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, sym.Rows())
	st, err := blockspmv.SolveCG(f, b, x, blockspmv.SolverOptions{Tol: 1e-10, Workers: 4})
	if err != nil {
		t.Fatalf("parallel SolveCG: %v (residual %g)", err, st.Residual)
	}
	if st.Residual > 1e-10 {
		t.Errorf("residual %g", st.Residual)
	}
}

func TestMatrixMarketPublicRoundTrip(t *testing.T) {
	m := buildTestMatrix()
	var buf bytes.Buffer
	if err := blockspmv.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := blockspmv.ReadMatrixMarket[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip: %d entries, want %d", back.NNZ(), m.NNZ())
	}
}

func TestProfileSaveLoadPublic(t *testing.T) {
	prof := testProfile(t)
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := blockspmv.LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(prof.Entries) {
		t.Fatalf("round trip lost entries")
	}
}

func TestWorkingSetBytes(t *testing.T) {
	m := buildTestMatrix()
	f := blockspmv.NewCSR(m, blockspmv.Scalar)
	want := int64(m.NNZ())*12 + int64(m.Rows()+1)*4 + int64(m.Rows()+m.Cols())*8
	if got := blockspmv.WorkingSetBytes(f); got != want {
		t.Errorf("WorkingSetBytes = %d, want %d", got, want)
	}
}

func TestShapeHelpers(t *testing.T) {
	if s := blockspmv.RectShape(2, 3); s.Elems() != 6 || s.String() != "2x3" {
		t.Errorf("RectShape: %v", s)
	}
	if s := blockspmv.DiagShape(5); s.Elems() != 5 || s.String() != "d5" {
		t.Errorf("DiagShape: %v", s)
	}
}

func TestReorderPublicAPI(t *testing.T) {
	// A shuffled band matrix: RCM should tighten it back up and the
	// permuted product must map back to the original.
	n := 120
	m := blockspmv.NewMatrix[float64](n, n)
	for i := 0; i < n; i++ {
		m.Add(int32(i), int32(i), 2)
		j := (i * 37) % n // scatter couplings
		if j != i {
			m.Add(int32(i), int32(j), -1)
			m.Add(int32(j), int32(i), -1)
		}
	}
	m.Finalize()

	perm, err := blockspmv.RCM(m)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := blockspmv.Reorder(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%11) / 11
	}
	want := make([]float64, n)
	m.MulVec(x, want)

	f := blockspmv.NewCSR(rm, blockspmv.Scalar)
	yp := make([]float64, n)
	f.Mul(blockspmv.PermuteVec(x, perm), yp)
	got := blockspmv.UnpermuteVec(yp, perm)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("reordered product differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestSolvePublicAPI(t *testing.T) {
	n := 64
	m := blockspmv.NewMatrix[float64](n, n)
	for i := 0; i < n; i++ {
		m.Add(int32(i), int32(i), 4)
		if i+1 < n {
			m.Add(int32(i), int32(i+1), -1)
			m.Add(int32(i+1), int32(i), -1)
		}
	}
	m.Finalize()
	a := blockspmv.NewBCSD(m, 2, blockspmv.Scalar)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	st, err := blockspmv.SolveCG(a, b, x, blockspmv.SolverOptions{})
	if err != nil {
		t.Fatalf("SolveCG: %v (res %g)", err, st.Residual)
	}
	if st.Residual > 1e-9 {
		t.Errorf("residual %g", st.Residual)
	}
}

func TestWithImplPublicAPI(t *testing.T) {
	m := buildTestMatrix()
	f := blockspmv.NewBCSR(m, 2, 4, blockspmv.Scalar)
	v := f.WithImpl(blockspmv.Vector)
	if v.Name() != "BCSR(2x4)/simd" {
		t.Errorf("WithImpl name = %q", v.Name())
	}
	mulAndCompare(t, m, v)
}
