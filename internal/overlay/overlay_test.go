package overlay_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/conformance"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/overlay"
	"blockspmv/internal/parallel"
	"blockspmv/internal/sell"
	"blockspmv/internal/testmat"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// families are the base format constructors the overlay must conform
// over (the effective matrix stays the oracle regardless of base).
func families[T floats.Float]() map[string]func(m *mat.COO[T]) formats.Instance[T] {
	return map[string]func(m *mat.COO[T]) formats.Instance[T]{
		"csr":  func(m *mat.COO[T]) formats.Instance[T] { return csr.FromCOO(m, blocks.Scalar) },
		"bcsr": func(m *mat.COO[T]) formats.Instance[T] { return bcsr.New(m, 2, 2, blocks.Scalar) },
		"sell": func(m *mat.COO[T]) formats.Instance[T] { return sell.New(m, 8, 0, blocks.Scalar) },
		"vbr":  func(m *mat.COO[T]) formats.Instance[T] { return vbr.New(m, blocks.Scalar) },
	}
}

// seqFamilies are the families whose fresh construction accumulates
// each row's terms in canonical ascending-column sequential order — the
// order the overlay's dirty-row recompute uses — so overlaid multiplies
// are bit-for-bit identical to a fresh base+delta construction.
// Families that fuse products inside a block or unit expression
// (bcsr/bcsd paired FMAs, vbl wide blocks, csrdu units) only agree
// within accumulation-order tolerance; see
// TestFusedFamiliesAgreeWithinTolerance and the EXPERIMENTS.md honest
// negative.
func seqFamilies[T floats.Float]() map[string]func(m *mat.COO[T]) formats.Instance[T] {
	return map[string]func(m *mat.COO[T]) formats.Instance[T]{
		"csr":     func(m *mat.COO[T]) formats.Instance[T] { return csr.FromCOO(m, blocks.Scalar) },
		"csr/cmp": func(m *mat.COO[T]) formats.Instance[T] { return csr.NewCompact(m, blocks.Scalar) },
		"sell":    func(m *mat.COO[T]) formats.Instance[T] { return sell.New(m, 8, 0, blocks.Scalar) },
		"vbr":     func(m *mat.COO[T]) formats.Instance[T] { return vbr.New(m, blocks.Scalar) },
	}
}

// randomUpdates builds a deterministic mixed stream of sets, adds and
// deletes: roughly a third retarget existing entries (including
// delete-to-zero), the rest hit fresh coordinates.
func randomUpdates[T floats.Float](m *mat.COO[T], n int, seed int64) []overlay.Update[T] {
	rng := rand.New(rand.NewSource(seed))
	es := m.Entries()
	ups := make([]overlay.Update[T], 0, n)
	for len(ups) < n {
		u := overlay.Update[T]{
			Op:  overlay.Op(rng.Intn(3)),
			Row: int32(rng.Intn(m.Rows())),
			Col: int32(rng.Intn(m.Cols())),
			Val: T(rng.NormFloat64()),
		}
		if len(es) > 0 && rng.Intn(3) == 0 {
			e := es[rng.Intn(len(es))]
			u.Row, u.Col = e.Row, e.Col
		}
		ups = append(ups, u)
	}
	return ups
}

// mirror tracks the effective matrix densely with the update semantics
// applied independently of the overlay code under test.
type mirror[T floats.Float] struct {
	rows, cols int
	d          []T
}

func newMirror[T floats.Float](m *mat.COO[T]) *mirror[T] {
	mr := &mirror[T]{rows: m.Rows(), cols: m.Cols(), d: m.ToDense()}
	return mr
}

func (mr *mirror[T]) apply(ups []overlay.Update[T]) {
	for _, u := range ups {
		at := int(u.Row)*mr.cols + int(u.Col)
		switch u.Op {
		case overlay.OpSet:
			mr.d[at] = u.Val
		case overlay.OpAdd:
			mr.d[at] += u.Val
		case overlay.OpDelete:
			mr.d[at] = 0
		}
	}
}

func (mr *mirror[T]) nnz() int64 {
	var n int64
	for _, v := range mr.d {
		if v != 0 {
			n++
		}
	}
	return n
}

// TestMergedCOOMatchesDenseMirror pins the update semantics: the merged
// ground truth must equal a dense mirror that applied the same stream.
func TestMergedCOOMatchesDenseMirror(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		t.Run(name, func(t *testing.T) {
			if m.Rows() == 0 || m.Cols() == 0 {
				t.Skip("no coordinates to update")
			}
			ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
			mr := newMirror(m)
			ups := randomUpdates(m, 150, 7)
			if err := ov.Apply(ups); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			mr.apply(ups)
			merged := ov.MergedCOO()
			got := merged.ToDense()
			for i, v := range got {
				if v != mr.d[i] {
					t.Fatalf("merged[%d,%d] = %v, mirror %v", i/m.Cols(), i%m.Cols(), v, mr.d[i])
				}
			}
			if ov.NNZ() != mr.nnz() {
				t.Fatalf("NNZ = %d, mirror %d", ov.NNZ(), mr.nnz())
			}
			if int64(merged.NNZ()) != mr.nnz() {
				t.Fatalf("merged NNZ = %d, mirror %d", merged.NNZ(), mr.nnz())
			}
		})
	}
}

// TestOverlayConformance runs dirtied overlays over every base family
// through the full format conformance suite, with the merged ground
// truth as the oracle.
func TestOverlayConformance(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for fname, build := range families[float64]() {
			t.Run(name+"/"+fname, func(t *testing.T) {
				ov := overlay.Wrap(build(m), m.Clone())
				if m.Rows() > 0 && m.Cols() > 0 {
					if err := ov.Apply(randomUpdates(m, 60, 11)); err != nil {
						t.Fatalf("Apply: %v", err)
					}
				}
				conformance.Check(t, ov.MergedCOO(), ov)
			})
		}
	}
}

// TestBitForBitVsFreshConstruction is the core overlay contract: after
// an update stream, Mul and MulVecs (k∈{1,2,4,8}) must be bit-for-bit
// identical to a freshly constructed base+delta instance of the same
// family, serial and pooled, for every sequential-accumulation family.
func TestBitForBitVsFreshConstruction(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		if m.Rows() == 0 || m.Cols() == 0 {
			continue
		}
		for fname, build := range seqFamilies[float64]() {
			t.Run(name+"/"+fname, func(t *testing.T) {
				ov := overlay.Wrap(build(m), m.Clone())
				if err := ov.Apply(randomUpdates(m, 120, 13)); err != nil {
					t.Fatalf("Apply: %v", err)
				}
				fresh := build(ov.MergedCOO())

				x := floats.RandVector[float64](m.Cols(), 17)
				want := make([]float64, m.Rows())
				fresh.Mul(x, want)
				got := make([]float64, m.Rows())
				ov.Mul(x, got)
				requireBitEqual(t, "Mul", got, want)

				for _, k := range []int{1, 2, 4, 8} {
					xs, ys, ws := panels(m, k)
					formats.MulVecs(fresh, xs, ws)
					formats.MulVecs(ov, xs, ys)
					for l := 0; l < k; l++ {
						requireBitEqual(t, fmt.Sprintf("MulVecs k=%d col %d", k, l), ys[l], ws[l])
					}
				}

				pm := parallel.NewMul[float64](ov, 3, parallel.BalanceWeights)
				defer pm.Close()
				pooled := make([]float64, m.Rows())
				if err := pm.MulVec(x, pooled); err != nil {
					t.Fatalf("pooled MulVec: %v", err)
				}
				requireBitEqual(t, "pooled MulVec", pooled, want)
			})
		}
	}
}

// TestFusedFamiliesAgreeWithinTolerance is the documented honest
// negative for fused-accumulation bases: a fresh BCSR fuses each
// block's products into one expression (acc += v0*x0 + v1*x1), and VBL
// wide blocks and CSR-DU units do the same, so the overlay's canonical
// sequential recompute of dirty rows agrees only within
// accumulation-order tolerance — the same tolerance the repo's
// cross-format property uses. Clean rows stay on the base kernel and
// remain bit-exact; the overlay's own Mul/MulVecs/pooled paths stay
// bit-consistent with each other via TestOverlayConformance.
func TestFusedFamiliesAgreeWithinTolerance(t *testing.T) {
	fused := map[string]func(m *mat.COO[float64]) formats.Instance[float64]{
		"bcsr2x2": func(m *mat.COO[float64]) formats.Instance[float64] { return bcsr.New(m, 2, 2, blocks.Scalar) },
		"bcsr2x2/simd": func(m *mat.COO[float64]) formats.Instance[float64] {
			return bcsr.New(m, 2, 2, blocks.Vector)
		},
		"vbl":   func(m *mat.COO[float64]) formats.Instance[float64] { return vbl.New(m, blocks.Scalar) },
		"csrdu": func(m *mat.COO[float64]) formats.Instance[float64] { return csrdu.New(m, blocks.Scalar) },
	}
	for name, m := range testmat.Corpus[float64]() {
		if m.Rows() == 0 || m.Cols() == 0 {
			continue
		}
		for fname, build := range fused {
			t.Run(name+"/"+fname, func(t *testing.T) {
				ov := overlay.Wrap(build(m), m.Clone())
				if err := ov.Apply(randomUpdates(m, 120, 13)); err != nil {
					t.Fatalf("Apply: %v", err)
				}
				fresh := build(ov.MergedCOO())
				x := floats.RandVector[float64](m.Cols(), 17)
				want := make([]float64, m.Rows())
				got := make([]float64, m.Rows())
				fresh.Mul(x, want)
				ov.Mul(x, got)
				if !floats.EqualWithin(got, want, 1e-9) {
					t.Fatalf("overlay vs fresh %s max diff %g", fname, floats.MaxAbsDiff(got, want))
				}
			})
		}
	}
}

func panels(m *mat.COO[float64], k int) (xs, ys, ws [][]float64) {
	xs = make([][]float64, k)
	ys = make([][]float64, k)
	ws = make([][]float64, k)
	for l := 0; l < k; l++ {
		xs[l] = floats.RandVector[float64](m.Cols(), int64(300+7*l))
		ys[l] = make([]float64, m.Rows())
		ws[l] = make([]float64, m.Rows())
	}
	return
}

func requireBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: y[%d] = %x, want %x (bit-for-bit)", what, i, got[i], want[i])
		}
	}
}

// TestDeleteToZeroAndRevert deletes every base entry (the effective
// matrix goes empty), then restores the original values: the overlay
// must end with zero pending cells and the original bit-exact product.
func TestDeleteToZeroAndRevert(t *testing.T) {
	m := testmat.Random[float64](40, 44, 0.06, 5)
	for fname, build := range families[float64]() {
		t.Run(fname, func(t *testing.T) {
			ov := overlay.Wrap(build(m), m.Clone())
			x := floats.RandVector[float64](m.Cols(), 9)
			orig := make([]float64, m.Rows())
			ov.Mul(x, orig)

			for _, e := range m.Entries() {
				if err := ov.Delete(e.Row, e.Col); err != nil {
					t.Fatalf("Delete: %v", err)
				}
			}
			if ov.NNZ() != 0 {
				t.Fatalf("NNZ after full delete = %d, want 0", ov.NNZ())
			}
			y := make([]float64, m.Rows())
			floats.Fill(y, 3)
			ov.Mul(x, y)
			for i, v := range y {
				if v != 0 {
					t.Fatalf("y[%d] = %v after deleting every entry, want 0", i, v)
				}
			}

			for _, e := range m.Entries() {
				if err := ov.Set(e.Row, e.Col, e.Val); err != nil {
					t.Fatalf("Set: %v", err)
				}
			}
			if p := ov.Pending(); p != 0 {
				t.Fatalf("Pending after revert = %d, want 0 (cells equal to base must drop)", p)
			}
			if eb := ov.ExtraBytes(); eb != 0 {
				t.Fatalf("ExtraBytes after revert = %d, want 0", eb)
			}
			ov.Mul(x, y)
			requireBitEqual(t, "revert", y, orig)
		})
	}
}

// TestUpdateOnEmptyMatrix grows a matrix from zero entries purely via
// updates and checks bit-for-bit against fresh construction, then
// shrinks it back to empty.
func TestUpdateOnEmptyMatrix(t *testing.T) {
	empty := mat.New[float64](31, 29)
	empty.Finalize()
	ov := overlay.Wrap(csr.FromCOO(empty, blocks.Scalar), empty.Clone())
	ups := randomUpdates(testmat.Random[float64](31, 29, 0.1, 21), 90, 23)
	if err := ov.Apply(ups); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	fresh := csr.FromCOO(ov.MergedCOO(), blocks.Scalar)
	x := floats.RandVector[float64](29, 27)
	want := make([]float64, 31)
	got := make([]float64, 31)
	fresh.Mul(x, want)
	ov.Mul(x, got)
	requireBitEqual(t, "grown-from-empty Mul", got, want)

	merged := ov.MergedCOO()
	for _, e := range merged.Entries() {
		if err := ov.Delete(e.Row, e.Col); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if ov.NNZ() != 0 || ov.Pending() != 0 {
		t.Fatalf("NNZ=%d Pending=%d after shrinking back to empty, want 0/0", ov.NNZ(), ov.Pending())
	}
}

// TestApplyValidatesAtomically rejects a batch containing an invalid
// update without applying any of it, with the typed errors the HTTP
// layer maps to 400.
func TestApplyValidatesAtomically(t *testing.T) {
	m := testmat.Random[float64](10, 12, 0.1, 3)
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())

	err := ov.Apply([]overlay.Update[float64]{
		{Op: overlay.OpSet, Row: 1, Col: 1, Val: 5},
		{Op: overlay.OpSet, Row: 10, Col: 0, Val: 5}, // row out of range
	})
	var re *overlay.RangeError
	if !errors.As(err, &re) {
		t.Fatalf("Apply out-of-range = %v, want *RangeError", err)
	}
	if re.Row != 10 || re.Rows != 10 {
		t.Fatalf("RangeError = %+v", re)
	}
	if ov.Pending() != 0 {
		t.Fatalf("batch partially applied: pending = %d", ov.Pending())
	}

	err = ov.Apply([]overlay.Update[float64]{{Op: overlay.Op(9), Row: 0, Col: 0}})
	var oe *overlay.OpRangeError
	if !errors.As(err, &oe) {
		t.Fatalf("Apply bad op = %v, want *OpRangeError", err)
	}
	if ov.Set(-1, 0, 1) == nil || ov.Set(0, int32(m.Cols()), 1) == nil {
		t.Fatal("negative/overflow coordinates accepted")
	}
}

// TestSealDrainReplay exercises the recompaction handshake: a sealed
// overlay rejects updates with ErrSealed but keeps serving the full
// effective matrix; the drained set replayed onto the recompacted
// replacement is a pure no-op (every cell is already in the new base).
func TestSealDrainReplay(t *testing.T) {
	m := testmat.Random[float64](30, 30, 0.08, 31)
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	if err := ov.Apply(randomUpdates(m, 50, 33)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	x := floats.RandVector[float64](30, 35)
	before := make([]float64, 30)
	ov.Mul(x, before)

	drained := ov.SealAndDrain()
	if int64(len(drained)) != ov.Pending() {
		t.Fatalf("drained %d updates, pending %d", len(drained), ov.Pending())
	}
	if err := ov.Set(0, 0, 1); !errors.Is(err, overlay.ErrSealed) {
		t.Fatalf("Set on sealed = %v, want ErrSealed", err)
	}
	after := make([]float64, 30)
	ov.Mul(x, after)
	requireBitEqual(t, "sealed overlay still serves deltas", after, before)

	merged := ov.MergedCOO()
	next := overlay.Wrap(csr.FromCOO(merged, blocks.Scalar), merged)
	if err := next.Apply(drained); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if p := next.Pending(); p != 0 {
		t.Fatalf("replay left %d pending cells, want 0 (idempotent no-op)", p)
	}
	if err := next.Apply(drained); err != nil || next.Pending() != 0 {
		t.Fatalf("second replay: err=%v pending=%d", err, next.Pending())
	}

	ov.Unseal()
	if err := ov.Set(0, 0, 1); err != nil {
		t.Fatalf("Set after Unseal: %v", err)
	}
}

// TestDrainReplaysCellsRevertedAfterMerge is the recompaction handshake
// with updates landing between the merge snapshot and the seal: cells
// the snapshot captured as pending and that later returned to base (a
// delete of an inserted cell, a set back to the base value) must be
// drained, or the replacement keeps the stale snapshot value.
func TestDrainReplaysCellsRevertedAfterMerge(t *testing.T) {
	m := mat.New[float64](4, 4)
	m.Add(1, 1, 2)
	m.Add(2, 3, 3)
	m.Finalize()
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ov.Set(0, 3, 5)) // insert, later deleted
	must(ov.Set(1, 1, 7)) // overwrite, later set back to the base 2
	must(ov.Set(3, 0, 9)) // insert that stays
	merged := ov.MergedCOO()
	must(ov.Delete(0, 3))
	must(ov.Set(1, 1, 2))
	must(ov.Set(2, 3, 4)) // pending only after the snapshot
	if p := ov.Pending(); p != 2 {
		t.Fatalf("pending = %d, want 2", p)
	}
	drained := ov.SealAndDrain()
	want := []overlay.Update[float64]{
		{Op: overlay.OpSet, Row: 2, Col: 3, Val: 4},
		{Op: overlay.OpSet, Row: 3, Col: 0, Val: 9},
		{Op: overlay.OpSet, Row: 0, Col: 3, Val: 0},
		{Op: overlay.OpSet, Row: 1, Col: 1, Val: 2},
	}
	if fmt.Sprint(drained) != fmt.Sprint(want) {
		t.Fatalf("drained %v, want %v", drained, want)
	}
	next := overlay.Wrap(csr.FromCOO(merged, blocks.Scalar), merged)
	must(next.Apply(drained))
	got, exp := next.MergedCOO().ToDense(), ov.MergedCOO().ToDense()
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("replacement cell (%d,%d) = %g, want %g", i/4, i%4, got[i], exp[i])
		}
	}
}

// TestExactAccounting pins the construction-free byte accounting to
// hand-computed values on a tiny matrix: per dirty row 12 bytes plus the
// re-streamed base entries, per pending cell 12 bytes (int32 col +
// float64 value), all refunded exactly on revert.
func TestExactAccounting(t *testing.T) {
	m := mat.New[float64](4, 4)
	m.Add(0, 0, 1)
	m.Add(0, 2, 2)
	m.Add(2, 1, 3)
	m.Finalize()
	base := csr.FromCOO(m, blocks.Scalar)
	ov := overlay.Wrap(base, m.Clone())
	const entry, cell = 16, 12 // 8-byte value + two int32s; int32 col + value

	if ov.ExtraBytes() != 0 || ov.MatrixBytes() != base.MatrixBytes() {
		t.Fatalf("clean overlay has extra bytes: %d", ov.ExtraBytes())
	}
	wantResident := base.MatrixBytes() + 3*entry + 5*4
	if rb := ov.ResidentBytes(); rb != wantResident {
		t.Fatalf("ResidentBytes = %d, want %d", rb, wantResident)
	}

	// New cell on row 0 (2 base entries): row cost 12+2*16, cell cost 12.
	if err := ov.Set(0, 3, 9); err != nil {
		t.Fatal(err)
	}
	if got, want := ov.ExtraBytes(), int64(12+2*entry+cell); got != want {
		t.Fatalf("ExtraBytes after first cell = %d, want %d", got, want)
	}
	// Overwriting the same cell changes nothing.
	if err := ov.Set(0, 3, 10); err != nil {
		t.Fatal(err)
	}
	if got, want := ov.ExtraBytes(), int64(12+2*entry+cell); got != want {
		t.Fatalf("ExtraBytes after overwrite = %d, want %d", got, want)
	}
	// Second cell on the same row adds only the cell.
	if err := ov.Set(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := ov.ExtraBytes(), int64(12+2*entry+2*cell); got != want {
		t.Fatalf("ExtraBytes after second cell = %d, want %d", got, want)
	}
	if got, want := ov.MatrixBytes(), base.MatrixBytes()+12+2*entry+2*cell; got != want {
		t.Fatalf("MatrixBytes = %d, want %d", got, want)
	}
	// Deleting an untouched base entry on a clean row: row 2 has 1 entry.
	if err := ov.Delete(2, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := ov.ExtraBytes(), int64(12+2*entry+2*cell+12+entry+cell); got != want {
		t.Fatalf("ExtraBytes after delete = %d, want %d", got, want)
	}
	if ov.NNZ() != int64(m.NNZ())+2-1 {
		t.Fatalf("NNZ = %d", ov.NNZ())
	}
	// Revert everything: refunds must be exact.
	for _, u := range []overlay.Update[float64]{
		{Op: overlay.OpDelete, Row: 0, Col: 3},
		{Op: overlay.OpDelete, Row: 0, Col: 1},
		{Op: overlay.OpSet, Row: 2, Col: 1, Val: 3},
	} {
		if err := ov.Apply([]overlay.Update[float64]{u}); err != nil {
			t.Fatal(err)
		}
	}
	if ov.ExtraBytes() != 0 || ov.Pending() != 0 || ov.DirtyRows() != 0 {
		t.Fatalf("revert left extra=%d pending=%d dirty=%d",
			ov.ExtraBytes(), ov.Pending(), ov.DirtyRows())
	}
}

// TestAddResolvesEffectiveValue checks OpAdd accumulates against the
// current effective value: base, pending, and absent cells.
func TestAddResolvesEffectiveValue(t *testing.T) {
	m := mat.New[float64](3, 3)
	m.Add(0, 0, 2)
	m.Finalize()
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	if err := ov.Add(0, 0, 3); err != nil { // base 2 -> 5
		t.Fatal(err)
	}
	if err := ov.Add(0, 0, 1); err != nil { // pending 5 -> 6
		t.Fatal(err)
	}
	if err := ov.Add(1, 1, 4); err != nil { // absent -> 4
		t.Fatal(err)
	}
	d := ov.MergedCOO().ToDense()
	if d[0] != 6 || d[4] != 4 {
		t.Fatalf("effective = %v", d)
	}
	// Add that lands exactly on the base value drops the cell.
	if err := ov.Add(0, 0, -4); err != nil {
		t.Fatal(err)
	}
	if ov.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (cell back at base value must drop)", ov.Pending())
	}
}

// TestZeroAllocMultiplies asserts the dirtied multiply paths allocate
// nothing: serial Mul, pooled MulVec and pooled MulVecs.
func TestZeroAllocMultiplies(t *testing.T) {
	m := testmat.Random[float64](2000, 2000, 0.004, 41)
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	if err := ov.Apply(randomUpdates(m, 500, 43)); err != nil {
		t.Fatal(err)
	}
	x := floats.RandVector[float64](2000, 45)
	y := make([]float64, 2000)
	if allocs := testing.AllocsPerRun(100, func() { ov.Mul(x, y) }); allocs != 0 {
		t.Errorf("serial Mul allocates %v times per call, want 0", allocs)
	}
	pm := parallel.NewMul[float64](ov, 4, parallel.BalanceWeights)
	defer pm.Close()
	if allocs := testing.AllocsPerRun(100, func() { pm.MulVec(x, y) }); allocs != 0 {
		t.Errorf("pooled MulVec allocates %v times per call, want 0", allocs)
	}
	xs := [][]float64{x, x, x, x}
	ys := [][]float64{y, make([]float64, 2000), make([]float64, 2000), make([]float64, 2000)}
	if allocs := testing.AllocsPerRun(50, func() { pm.MulVecs(xs, ys) }); allocs != 0 {
		t.Errorf("pooled MulVecs allocates %v times per call, want 0", allocs)
	}
}

// TestWithImplSharesPendingSet checks both kernel-class views of one
// overlay observe the same mutable state.
func TestWithImplSharesPendingSet(t *testing.T) {
	m := testmat.Random[float64](20, 20, 0.1, 47)
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	alt, ok := ov.WithImpl(blocks.Vector).(*overlay.Overlay[float64])
	if !ok {
		t.Fatal("WithImpl did not return an overlay")
	}
	if err := ov.Set(3, 3, 77); err != nil {
		t.Fatal(err)
	}
	if alt.Pending() != 1 {
		t.Fatalf("vector view pending = %d, want 1", alt.Pending())
	}
	if err := alt.Delete(3, 3); err != nil {
		t.Fatal(err)
	}
	x := floats.RandVector[float64](20, 49)
	a := make([]float64, 20)
	b := make([]float64, 20)
	ov.Mul(x, a)
	alt.Mul(x, b)
	d := ov.MergedCOO().ToDense()
	if d[3*20+3] != 0 {
		t.Fatal("delete through the vector view not visible")
	}
	want := make([]float64, 20)
	csr.FromCOO(ov.MergedCOO(), blocks.Scalar).Mul(x, want)
	requireBitEqual(t, "scalar view", a, want)
}

// TestConcurrentReadersAndWriters hammers one overlay with parallel
// multiplies and update batches (run under -race via RACE_PKGS): every
// individual multiply must see an atomic state, and the final effective
// matrix must equal a serial replay of all batches.
func TestConcurrentReadersAndWriters(t *testing.T) {
	m := testmat.Random[float64](200, 200, 0.03, 51)
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	x := floats.RandVector[float64](200, 53)

	const writers, batches = 4, 25
	all := make([][]overlay.Update[float64], writers)
	for w := range all {
		// Disjoint row stripes per writer keep the serial replay
		// order-independent.
		rng := rand.New(rand.NewSource(int64(55 + w)))
		ups := make([]overlay.Update[float64], 0, batches)
		for i := 0; i < batches; i++ {
			ups = append(ups, overlay.Update[float64]{
				Op:  overlay.Op(rng.Intn(3)),
				Row: int32(w*50 + rng.Intn(50)),
				Col: int32(rng.Intn(200)),
				Val: rng.NormFloat64(),
			})
		}
		all[w] = ups
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, u := range all[w] {
				if err := ov.Apply([]overlay.Update[float64]{u}); err != nil {
					t.Errorf("Apply: %v", err)
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, 200)
			for i := 0; i < 50; i++ {
				ov.Mul(x, y)
			}
		}()
	}
	wg.Wait()

	ref := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	for _, ups := range all {
		if err := ref.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	got := ov.MergedCOO().ToDense()
	want := ref.MergedCOO().ToDense()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final state diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestFloat32 exercises the generic path at single precision.
func TestFloat32(t *testing.T) {
	m := testmat.Random[float32](50, 50, 0.08, 61)
	ov := overlay.Wrap(csr.FromCOO(m, blocks.Scalar), m.Clone())
	if err := ov.Apply(randomUpdates(m, 40, 63)); err != nil {
		t.Fatal(err)
	}
	fresh := csr.FromCOO(ov.MergedCOO(), blocks.Scalar)
	x := floats.RandVector[float32](50, 65)
	want := make([]float32, 50)
	got := make([]float32, 50)
	fresh.Mul(x, want)
	ov.Mul(x, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("float32 y[%d] = %x, want %x", i, got[i], want[i])
		}
	}
	conformance.Check(t, ov.MergedCOO(), ov)
}

// TestWrapRejectsMismatch panics when the ground truth does not
// describe the base instance.
func TestWrapRejectsMismatch(t *testing.T) {
	m := testmat.Random[float64](10, 10, 0.2, 67)
	other := testmat.Random[float64](10, 10, 0.2, 68)
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap accepted a mismatched ground truth")
		}
	}()
	overlay.Wrap(csr.FromCOO(m, blocks.Scalar), other)
}
