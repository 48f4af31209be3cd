package parallel_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/dcsr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/multidec"
	"blockspmv/internal/parallel"
	"blockspmv/internal/testmat"
	"blockspmv/internal/ubcsr"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

func TestPartitionInvariants(t *testing.T) {
	f := func(seed int64, alignRaw, partsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(300)
		align := 1 + int(alignRaw%8)
		parts := 1 + int(partsRaw%7)
		weights := make([]int64, rows)
		for i := range weights {
			weights[i] = int64(rng.Intn(50))
		}
		var total int64
		for _, w := range weights {
			total += w
		}
		for _, strategy := range []parallel.Strategy{parallel.BalanceWeights, parallel.EqualRows} {
			ranges := parallel.Partition(weights, align, parts, strategy)
			if len(ranges) != parts {
				return false
			}
			// Contiguous cover of [0, rows) with aligned boundaries: the
			// cuts are monotone and every row lands in exactly one part.
			pos := 0
			var covered int64
			for _, rr := range ranges {
				if rr[0] != pos || rr[1] < rr[0] {
					return false
				}
				if rr[1]%align != 0 && rr[1] != rows {
					return false
				}
				for r := rr[0]; r < rr[1]; r++ {
					covered += weights[r]
				}
				pos = rr[1]
			}
			if pos != rows {
				return false
			}
			// Weight conservation: the parts carry the whole matrix.
			if covered != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionBalancesWeights(t *testing.T) {
	// 1000 rows; the last 100 rows carry 10x the weight. A weight-balanced
	// 2-way split must cut far beyond row 500.
	weights := make([]int64, 1000)
	for i := range weights {
		if i >= 900 {
			weights[i] = 100
		} else {
			weights[i] = 10
		}
	}
	ranges := parallel.Partition(weights, 1, 2, parallel.BalanceWeights)
	if cut := ranges[0][1]; cut < 800 {
		t.Errorf("balanced cut at %d, want beyond 800", cut)
	}
	ranges = parallel.Partition(weights, 1, 2, parallel.EqualRows)
	if cut := ranges[0][1]; cut != 500 {
		t.Errorf("equal-rows cut at %d, want 500", cut)
	}
}

func TestPartitionRespectsAlignment(t *testing.T) {
	weights := make([]int64, 103)
	for i := range weights {
		weights[i] = 1
	}
	ranges := parallel.Partition(weights, 8, 4, parallel.BalanceWeights)
	for i, rr := range ranges[:3] {
		if rr[1]%8 != 0 {
			t.Errorf("cut %d at row %d not 8-aligned", i, rr[1])
		}
	}
	if ranges[3][1] != 103 {
		t.Errorf("final boundary %d, want 103", ranges[3][1])
	}
}

func TestMulMatchesSequential(t *testing.T) {
	corpus := testmat.Corpus[float64]()
	for name, m := range corpus {
		builders := map[string]func() formats.Instance[float64]{
			"CSR":       func() formats.Instance[float64] { return csr.FromCOO(m, blocks.Scalar) },
			"BCSR(2x3)": func() formats.Instance[float64] { return bcsr.New(m, 2, 3, blocks.Scalar) },
			"BCSR-DEC":  func() formats.Instance[float64] { return bcsr.NewDecomposed(m, 4, 2, blocks.Vector) },
		}
		for bname, build := range builders {
			for _, parts := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/%s/p%d", name, bname, parts), func(t *testing.T) {
					inst := build()
					want := make([]float64, m.Rows())
					x := floats.RandVector[float64](m.Cols(), 5)
					m.MulVec(x, want)
					pm := parallel.NewMul(inst, parts, parallel.BalanceWeights)
					defer pm.Close()
					got := make([]float64, m.Rows())
					pm.MulVec(x, got)
					if !floats.EqualWithin(got, want, 1e-9) {
						t.Fatalf("parallel product differs, max %g", floats.MaxAbsDiff(got, want))
					}
				})
			}
		}
	}
}

// familyInstances stores m in one instance of every format family the
// pool tests cover, keyed by the subtest name.
func familyInstances(m *mat.COO[float64]) map[string]formats.Instance[float64] {
	return map[string]formats.Instance[float64]{
		"CSR":       csr.FromCOO(m, blocks.Scalar),
		"BCSR(2x3)": bcsr.New(m, 2, 3, blocks.Vector),
		"BCSR-DEC":  bcsr.NewDecomposed(m, 4, 2, blocks.Scalar),
		"UBCSR":     ubcsr.New(m, 2, 2, blocks.Scalar),
		"BCSD(d4)":  bcsd.New(m, 4, blocks.Scalar),
		"BCSD-DEC":  bcsd.NewDecomposed(m, 4, blocks.Vector),
		"1D-VBL":    vbl.New(m, blocks.Scalar),
		"VBR":       vbr.New(m, blocks.Scalar),
		"DCSR":      dcsr.New(m),
		"MultiDec":  multidec.New(m, 2, 2, 4, blocks.Scalar),
	}
}

// TestPooledMatchesSerialBitForBit is the pool correctness property: for
// every format family, the pooled MulVec must reproduce the serial
// Format.Mul exactly — each row is computed by exactly one worker with
// the same kernel and the same accumulation order, so not even the last
// bit may differ.
func TestPooledMatchesSerialBitForBit(t *testing.T) {
	leakcheck.Check(t)
	corpus := testmat.Corpus[float64]()
	for name, m := range corpus {
		insts := familyInstances(m)
		x := floats.RandVector[float64](m.Cols(), 17)
		for iname, inst := range insts {
			want := make([]float64, m.Rows())
			inst.Mul(x, want)
			for _, parts := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/%s/p%d", name, iname, parts), func(t *testing.T) {
					pm := parallel.NewMul(inst, parts, parallel.BalanceWeights)
					defer pm.Close()
					got := make([]float64, m.Rows())
					// Twice: the pool must be reusable and idempotent.
					pm.MulVec(x, got)
					pm.MulVec(x, got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("y[%d] = %x, serial %x: pooled result not bit-identical",
								i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestMulVecAfterCloseErrors(t *testing.T) {
	leakcheck.Check(t)
	m := testmat.Random[float64](64, 64, 0.1, 9)
	inst := csr.FromCOO(m, blocks.Scalar)
	pm := parallel.NewMul(inst, 4, parallel.BalanceWeights)
	pm.Close()
	pm.Close() // idempotent
	x := make([]float64, 64)
	y := make([]float64, 64)
	if err := pm.MulVec(x, y); !errors.Is(err, parallel.ErrClosed) {
		t.Fatalf("MulVec after Close = %v, want ErrClosed", err)
	}
}

func TestMulVecDimensionError(t *testing.T) {
	leakcheck.Check(t)
	m := testmat.Random[float64](64, 48, 0.1, 21)
	inst := csr.FromCOO(m, blocks.Scalar)
	pm := parallel.NewMul(inst, 4, parallel.BalanceWeights)
	defer pm.Close()
	err := pm.MulVec(make([]float64, 47), make([]float64, 64))
	var de *formats.DimError
	if !errors.As(err, &de) {
		t.Fatalf("MulVec with short x = %v, want *formats.DimError", err)
	}
	if de.Cols != 48 || de.LenX != 47 {
		t.Errorf("DimError = %+v, want Cols 48, LenX 47", de)
	}
}

// goroutinesEventually polls until the goroutine count drops to at most
// want (worker exit is asynchronous after Close returns only for the
// cleanup path; Close itself joins the workers, so one settle pass is
// usually enough).
func goroutinesEventually(t *testing.T, want int) int {
	t.Helper()
	var got int
	for i := 0; i < 50; i++ {
		got = runtime.NumGoroutine()
		if got <= want {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
	return got
}

func TestCloseRetiresWorkers(t *testing.T) {
	m := testmat.Random[float64](4000, 4000, 0.002, 13)
	inst := csr.FromCOO(m, blocks.Scalar)
	base := runtime.NumGoroutine()
	pm := parallel.NewMul(inst, 6, parallel.BalanceWeights)
	if got := runtime.NumGoroutine(); got != base+5 {
		t.Errorf("after NewMul(6): %d goroutines, want %d (5 workers + caller's part)", got, base+5)
	}
	x := floats.RandVector[float64](4000, 14)
	y := make([]float64, 4000)
	pm.MulVec(x, y)
	pm.Close()
	if got := goroutinesEventually(t, base); got > base {
		t.Errorf("after Close: %d goroutines, want %d", got, base)
	}
}

// TestEmptyRangesStartNoWorkers is the oversubscription contract: a 3-row
// matrix split 8 ways has at most 3 non-empty ranges, and the pool must
// not start goroutines for the permanently-empty ones.
func TestEmptyRangesStartNoWorkers(t *testing.T) {
	m := testmat.Random[float64](3, 10, 0.5, 6)
	inst := csr.FromCOO(m, blocks.Scalar)
	base := runtime.NumGoroutine()
	pm := parallel.NewMul(inst, 8, parallel.BalanceWeights)
	defer pm.Close()
	if got := pm.ActiveWorkers(); got > 3 {
		t.Errorf("ActiveWorkers() = %d for a 3-row matrix, want <= 3", got)
	}
	nonEmpty := 0
	for _, rr := range pm.Ranges() {
		if rr[0] < rr[1] {
			nonEmpty++
		}
	}
	if len(pm.Ranges()) != 8 {
		t.Errorf("Ranges() has %d entries, want 8", len(pm.Ranges()))
	}
	if nonEmpty != pm.ActiveWorkers() {
		t.Errorf("ActiveWorkers() = %d but %d ranges are non-empty", pm.ActiveWorkers(), nonEmpty)
	}
	// Workers beyond part 0 run on extra goroutines: at most nonEmpty-1.
	if got := runtime.NumGoroutine(); got > base+nonEmpty-1 {
		t.Errorf("%d goroutines for %d active ranges (base %d): idle ranges got workers",
			got, nonEmpty, base)
	}
}

func TestMulVecZeroAllocs(t *testing.T) {
	m := testmat.Random[float64](8000, 8000, 0.002, 21)
	inst := csr.FromCOO(m, blocks.Scalar)
	x := floats.RandVector[float64](8000, 22)
	y := make([]float64, 8000)
	for _, parts := range []int{1, 4} {
		pm := parallel.NewMul(inst, parts, parallel.BalanceWeights)
		if allocs := testing.AllocsPerRun(100, func() { pm.MulVec(x, y) }); allocs != 0 {
			t.Errorf("parts=%d: MulVec allocates %v times per call, want 0", parts, allocs)
		}
		pm.Close()
	}
}

// TestPooledOverwritesStaleOutput checks the per-worker first-touch
// zeroing: a y vector full of garbage must be fully overwritten, empty
// partitions included.
func TestPooledOverwritesStaleOutput(t *testing.T) {
	m := testmat.Random[float64](500, 500, 0.01, 23)
	inst := csr.FromCOO(m, blocks.Scalar)
	pm := parallel.NewMul(inst, 4, parallel.BalanceWeights)
	defer pm.Close()
	x := floats.RandVector[float64](500, 24)
	want := make([]float64, 500)
	m.MulVec(x, want)
	got := make([]float64, 500)
	floats.Fill(got, 1e300) // garbage that would survive a missed clear
	pm.MulVec(x, got)
	if !floats.EqualWithin(got, want, 1e-9) {
		t.Fatalf("stale y not fully cleared, max diff %g", floats.MaxAbsDiff(got, want))
	}
}

func TestPartWeightsNearlyEqual(t *testing.T) {
	m := testmat.Random[float64](4000, 4000, 0.002, 11)
	inst := csr.FromCOO(m, blocks.Scalar)
	pm := parallel.NewMul(inst, 4, parallel.BalanceWeights)
	defer pm.Close()
	pw := pm.PartWeights()
	var total int64
	for _, w := range pw {
		total += w
	}
	target := total / 4
	for i, w := range pw {
		dev := w - target
		if dev < 0 {
			dev = -dev
		}
		// Random matrices have ~8 nnz per row: cuts land within a row or
		// two of the ideal point.
		if dev > total/20 {
			t.Errorf("part %d weight %d deviates from target %d", i, w, target)
		}
	}
}

func TestPaddingAwareBalancing(t *testing.T) {
	// Top half: dense aligned 2x2 tiles (no padding). Bottom half:
	// isolated scattered entries (4x padding in 2x2 BCSR). A padding-
	// aware 2-way split of the BCSR instance must give the bottom half
	// fewer rows... i.e. cut earlier than the raw-nnz midpoint.
	mraw := testmat.Blocky[float64](400, 400, 2, 2, 0, 0, 1) // empty base
	_ = mraw
	mm := testmat.Blocky[float64](200, 400, 2, 2, 300, 0, 2) // dense tiles
	// Build combined matrix: tiles in top half, singles in bottom half.
	combined := testmat.Blocky[float64](400, 400, 2, 2, 0, 0, 3).Clone()
	for _, e := range mm.Entries() {
		combined.Add(e.Row, e.Col, e.Val)
	}
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 1200; k++ {
		combined.Add(int32(200+rng.Intn(200)), int32(rng.Intn(400)), 1)
	}
	combined.Finalize()

	inst := bcsr.New(combined, 2, 2, blocks.Scalar)
	pm := parallel.NewMul(inst, 2, parallel.BalanceWeights)
	defer pm.Close()
	pw := pm.PartWeights()
	ratio := float64(pw[0]) / float64(pw[0]+pw[1])
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("stored-scalar balance ratio %.2f, want ~0.5", ratio)
	}
}

func TestPartitionPanics(t *testing.T) {
	for _, tc := range []struct{ align, parts int }{{0, 2}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition(align=%d parts=%d) did not panic", tc.align, tc.parts)
				}
			}()
			parallel.Partition([]int64{1, 2}, tc.align, tc.parts, parallel.BalanceWeights)
		}()
	}
}

func TestMorePartsThanRows(t *testing.T) {
	m := testmat.Random[float64](3, 10, 0.5, 6)
	inst := csr.FromCOO(m, blocks.Scalar)
	pm := parallel.NewMul(inst, 8, parallel.BalanceWeights)
	defer pm.Close()
	x := floats.RandVector[float64](10, 7)
	got := make([]float64, 3)
	want := make([]float64, 3)
	pm.MulVec(x, got)
	m.MulVec(x, want)
	if !floats.EqualWithin(got, want, 1e-12) {
		t.Error("oversubscribed parallel multiply wrong")
	}
}

// TestMulVecsMatchesMulVecBitForBit is the panel-path correctness
// property: for every format family and panel width, the pooled MulVecs
// must reproduce k pooled MulVec calls exactly — each panel column runs
// the same kernels in the same accumulation order, so not even the last
// bit may differ.
func TestMulVecsMatchesMulVecBitForBit(t *testing.T) {
	leakcheck.Check(t)
	corpus := testmat.Corpus[float64]()
	for name, m := range corpus {
		insts := familyInstances(m)
		for iname, inst := range insts {
			for _, k := range []int{1, 2, 3, 8} {
				x := make([][]float64, k)
				want := make([][]float64, k)
				got := make([][]float64, k)
				for l := 0; l < k; l++ {
					x[l] = floats.RandVector[float64](m.Cols(), int64(101+l))
					want[l] = make([]float64, m.Rows())
					got[l] = make([]float64, m.Rows())
				}
				for _, parts := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/k%d/p%d", name, iname, k, parts), func(t *testing.T) {
						pm := parallel.NewMul(inst, parts, parallel.BalanceWeights)
						defer pm.Close()
						for l := range x {
							if err := pm.MulVec(x[l], want[l]); err != nil {
								t.Fatal(err)
							}
						}
						// Twice: the panel scratch must be reusable.
						if err := pm.MulVecs(x, got); err != nil {
							t.Fatal(err)
						}
						if err := pm.MulVecs(x, got); err != nil {
							t.Fatal(err)
						}
						for l := range want {
							for i := range want[l] {
								if got[l][i] != want[l][i] {
									t.Fatalf("y[%d][%d] = %x, MulVec %x: panel result not bit-identical",
										l, i, got[l][i], want[l][i])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestMulVecsEdgeCases covers the degenerate panels: an empty panel is a
// no-op, and panel shape mismatches surface as typed errors rather than
// panics.
func TestMulVecsEdgeCases(t *testing.T) {
	m := testmat.Random[float64](40, 30, 0.1, 41)
	inst := csr.FromCOO(m, blocks.Scalar)
	pm := parallel.NewMul(inst, 2, parallel.BalanceWeights)
	defer pm.Close()

	if err := pm.MulVecs(nil, nil); err != nil {
		t.Errorf("empty panel: %v, want nil", err)
	}
	x := [][]float64{floats.RandVector[float64](30, 42)}
	y := [][]float64{make([]float64, 40), make([]float64, 40)}
	var pe *formats.PanelError
	if err := pm.MulVecs(x, y); !errors.As(err, &pe) {
		t.Errorf("mismatched panel widths: %v, want *formats.PanelError", err)
	}
	bad := [][]float64{make([]float64, 39)}
	var de *formats.DimError
	if err := pm.MulVecs(x, bad); !errors.As(err, &de) {
		t.Errorf("short output vector: %v, want *formats.DimError", err)
	}
}

// TestMulVecsAfterCloseErrors mirrors TestMulVecAfterCloseErrors for the
// panel path.
func TestMulVecsAfterCloseErrors(t *testing.T) {
	m := testmat.Random[float64](40, 40, 0.1, 43)
	pm := parallel.NewMul(csr.FromCOO(m, blocks.Scalar), 2, parallel.BalanceWeights)
	pm.Close()
	x := [][]float64{make([]float64, 40)}
	y := [][]float64{make([]float64, 40)}
	if err := pm.MulVecs(x, y); !errors.Is(err, parallel.ErrClosed) {
		t.Errorf("MulVecs after Close: %v, want ErrClosed", err)
	}
}

// TestMulVecsZeroAllocs is the panel analogue of TestMulVecZeroAllocs:
// after the first call grows the persistent panel scratch, repeated
// pooled MulVecs calls must not allocate.
func TestMulVecsZeroAllocs(t *testing.T) {
	m := testmat.Random[float64](8000, 8000, 0.002, 21)
	inst := csr.FromCOO(m, blocks.Scalar)
	const k = 8
	x := make([][]float64, k)
	y := make([][]float64, k)
	for l := 0; l < k; l++ {
		x[l] = floats.RandVector[float64](8000, int64(50+l))
		y[l] = make([]float64, 8000)
	}
	for _, parts := range []int{1, 4} {
		pm := parallel.NewMul(inst, parts, parallel.BalanceWeights)
		pm.MulVecs(x, y) // warm up the panel scratch
		if allocs := testing.AllocsPerRun(100, func() { pm.MulVecs(x, y) }); allocs != 0 {
			t.Errorf("parts=%d: MulVecs allocates %v times per call, want 0", parts, allocs)
		}
		pm.Close()
	}
}
