package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/overlay"
	"blockspmv/internal/testmat"
)

// mutableConfig is the base configuration of the update tests: mutable,
// threshold recompaction off unless a test opts in, batching on so
// updates interleave with coalesced panels.
func mutableConfig() Config {
	return Config{
		Workers:        2,
		BatchMax:       4,
		Mutable:        true,
		RecompactAfter: -1, // tests trigger recompaction explicitly via their own thresholds
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRegistryUpdateBasic applies set/add/delete through the registry
// and checks multiplies, Lookup, and List see the post-update matrix.
func TestRegistryUpdateBasic(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(mutableConfig(), nil)
	defer g.Close()

	m := testmat.Random[float64](50, 40, 0.1, 7)
	info, err := g.RegisterMatrix("m", m)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Mutable {
		t.Fatalf("info.Mutable = false under Config.Mutable; info = %+v", info)
	}

	ctx := context.Background()
	res, err := g.Update(ctx, "m", []overlay.Update[float64]{
		{Op: overlay.OpSet, Row: 0, Col: 0, Val: 2.5},
		{Op: overlay.OpAdd, Row: 1, Col: 1, Val: -1.25},
		{Op: overlay.OpDelete, Row: 2, Col: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 3 || res.Pending == 0 {
		t.Fatalf("res = %+v", res)
	}

	// The mirror applies the same updates to the ground truth.
	d := m.ToDense()
	d[0*40+0] = 2.5
	d[1*40+1] += -1.25
	d[2*40+3] = 0
	x := testVec(40)
	want := make([]float64, 50)
	for i := 0; i < 50; i++ {
		var acc float64
		for j := 0; j < 40; j++ {
			acc += d[i*40+j] * x[j]
		}
		want[i] = acc
	}
	y, err := g.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}

	live, err := g.Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	if live.Pending != res.Pending || live.NNZ != res.NNZ {
		t.Fatalf("Lookup = %+v, update result = %+v", live, res)
	}
	if ls := g.List(); len(ls) != 1 || ls[0].Pending != res.Pending {
		t.Fatalf("List = %+v", ls)
	}
}

// TestRegistryUpdateTypedRejections checks the typed error surface:
// immutable registries, shard registrations, oversized batches, unknown
// names, and out-of-range coordinates (which must not partially apply).
func TestRegistryUpdateTypedRejections(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	up := []overlay.Update[float64]{{Op: overlay.OpSet, Row: 0, Col: 0, Val: 1}}

	imm := NewRegistry(Config{}, nil)
	defer imm.Close()
	if _, err := imm.RegisterMatrix("m", testmat.Random[float64](8, 8, 0.3, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := imm.Update(ctx, "m", up); !errors.Is(err, ErrImmutable) {
		t.Fatalf("immutable registry: err = %v, want ErrImmutable", err)
	}

	cfg := mutableConfig()
	cfg.MaxUpdateBatch = 2
	g := NewRegistry(cfg, nil)
	defer g.Close()
	if _, err := g.Update(ctx, "nope", up); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown name: err = %v, want ErrNotFound", err)
	}
	if _, err := g.RegisterShardMatrix("sh", testmat.Random[float64](6, 20, 0.3, 2), 4, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Update(ctx, "sh", up); !errors.Is(err, ErrShardedUpdate) {
		t.Fatalf("shard entry: err = %v, want ErrShardedUpdate", err)
	}
	if _, err := g.RegisterMatrix("m", testmat.Random[float64](10, 10, 0.3, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Update(ctx, "m", make([]overlay.Update[float64], 3)); !errors.Is(err, errBadRequest) {
		t.Fatalf("oversized batch: err = %v, want errBadRequest", err)
	}

	x := testVec(10)
	before, err := g.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}
	var rng *overlay.RangeError
	_, err = g.Update(ctx, "m", []overlay.Update[float64]{
		{Op: overlay.OpSet, Row: 1, Col: 1, Val: 9},
		{Op: overlay.OpSet, Row: 99, Col: 0, Val: 1},
	})
	if !errors.As(err, &rng) {
		t.Fatalf("out of range: err = %v, want *overlay.RangeError", err)
	}
	after, err := g.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("rejected batch partially applied")
		}
	}
}

// TestRecompactionThresholdMergesAndPreservesProduct crosses the
// pending threshold, waits for the background recompaction, and checks
// the merged entry serves the identical effective matrix with zero
// pending cells — and that the registry's byte accounting followed the
// swap.
func TestRecompactionThresholdMergesAndPreservesProduct(t *testing.T) {
	leakcheck.Check(t)
	cfg := mutableConfig()
	cfg.RecompactAfter = 8
	g := NewRegistry(cfg, nil)
	defer g.Close()

	m := testmat.Random[float64](80, 60, 0.1, 11)
	if _, err := g.RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ups []overlay.Update[float64]
	for k := 0; k < 12; k++ {
		ups = append(ups, overlay.Update[float64]{
			Op: overlay.OpSet, Row: int32(k % 80), Col: int32((k * 7) % 60), Val: float64(k) + 0.5,
		})
	}
	if _, err := g.Update(ctx, "m", ups); err != nil {
		t.Fatal(err)
	}
	x := testVec(60)
	want, err := g.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, "recompaction", func() bool { return g.in.ovRecompactions.Value() >= 1 })
	waitFor(t, "pending to drain", func() bool {
		info, err := g.Lookup("m")
		return err == nil && info.Pending == 0
	})
	got, err := g.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("post-recompaction y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	info, err := g.Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	total := g.total
	g.mu.Unlock()
	if total != info.Bytes {
		t.Fatalf("registry total %d != swapped entry bytes %d", total, info.Bytes)
	}
	if g.in.ovPending.Value() != 0 {
		t.Fatalf("pending gauge = %d after recompaction", g.in.ovPending.Value())
	}
}

// TestRecompactionInterval checks the ticker merges a trickle of
// updates that never crosses the threshold.
func TestRecompactionInterval(t *testing.T) {
	leakcheck.Check(t)
	cfg := mutableConfig()
	cfg.RecompactInterval = 5 * time.Millisecond
	g := NewRegistry(cfg, nil)
	defer g.Close()

	if _, err := g.RegisterMatrix("m", testmat.Random[float64](30, 30, 0.2, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Update(context.Background(), "m", []overlay.Update[float64]{
		{Op: overlay.OpSet, Row: 3, Col: 4, Val: 1.5},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "interval recompaction", func() bool {
		info, err := g.Lookup("m")
		return err == nil && info.Pending == 0 && g.in.ovRecompactions.Value() >= 1
	})
}

// TestHotSwapNeverTearsReaders is the hot-swap regression test:
// concurrent MulVecs run while the entry under the name is replaced
// over and over — by re-registration and by recompaction swaps — and
// every result must match one of the two well-formed matrices exactly.
// A torn result (pool freed mid-multiply, half-applied swap) would
// produce a vector matching neither. Run under -race this also proves
// the refs/dead drain path frees pools without racing readers.
func TestHotSwapNeverTearsReaders(t *testing.T) {
	leakcheck.Check(t)
	cfg := mutableConfig()
	cfg.Workers = 2
	g := NewRegistry(cfg, nil)
	defer g.Close()

	const n = 64
	mA := testmat.Random[float64](n, n, 0.15, 21)
	mB := testmat.Random[float64](n, n, 0.15, 22)
	x := testVec(n)
	wantA := refMul(mA, x)
	wantB := refMul(mB, x)
	if _, err := g.RegisterMatrix("m", mA.Clone()); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				y, err := g.MulVec(ctx, "m", x)
				if err != nil {
					// Shedding while the swap closes a batcher is a
					// legitimate typed outcome; torn math never is.
					if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrNotFound) {
						continue
					}
					t.Errorf("MulVec: %v", err)
					return
				}
				if !vecEqual(y, wantA) && !vecEqual(y, wantB) {
					torn.Add(1)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		src := mA
		if i%2 == 1 {
			src = mB
		}
		if _, err := g.RegisterMatrix("m", src.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d reader(s) observed a torn result", torn.Load())
	}
}

func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosReadersAndWritersThroughRecompaction is the acceptance chaos
// test: N clients mix reads and atomic two-cell updates against one
// matrix while an aggressive threshold keeps recompactions — and their
// hot swaps — churning underneath. Every update batch preserves the sum
// of row 0 (it moves mass between two cells of that row), so with
// x = ones every consistent snapshot yields the same y[0]: a reader
// observing anything else caught a half-applied batch or a torn swap.
// The writers keep churning until at least three swaps have landed, so
// reads and writes provably cross hot swaps. The final effective matrix
// (read after quiesce) must equal the serial mirror, and leakcheck
// proves no goroutine outlives Close.
func TestChaosReadersAndWritersThroughRecompaction(t *testing.T) {
	leakcheck.Check(t)
	cfg := mutableConfig()
	// The writers churn 2*writers distinct cells; a threshold below that
	// keeps recompactions firing for the whole run.
	cfg.RecompactAfter = 4
	cfg.Workers = 2
	g := NewRegistry(cfg, nil)
	defer g.Close()

	const (
		n       = 96
		writers = 3
		readers = 3
		batches = 60 // minimum per writer
		swaps   = 3  // minimum landed swaps before the writers stop
	)
	m := testmat.Random[float64](n, n, 0.1, 31)
	if _, err := g.RegisterMatrix("m", m.Clone()); err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	row0 := refMul(m, ones)[0]

	ctx := context.Background()
	var wgW, wgR sync.WaitGroup
	errc := make(chan error, writers+readers)
	stop := make(chan struct{})

	// Writers move mass within row 0: cell (0, 2w) gains d, cell
	// (0, 2w+1) loses d. Disjoint cells per writer keep the final state
	// deterministic; the paired batch keeps row0's sum invariant at
	// every atomic cut.
	final := make([]float64, 2*writers)
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			a, b := int32(2*w), int32(2*w+1)
			va, vb := baseAt(m, 0, int(a)), baseAt(m, 0, int(b))
			for k := 1; k <= batches || g.in.ovRecompactions.Value() < swaps; k++ {
				select {
				case <-stop:
					return
				default:
				}
				d := float64(k) * 0.125
				ups := []overlay.Update[float64]{
					{Op: overlay.OpSet, Row: 0, Col: a, Val: va + d},
					{Op: overlay.OpSet, Row: 0, Col: b, Val: vb - d},
				}
				if _, err := g.Update(ctx, "m", ups); err != nil {
					errc <- err
					return
				}
				final[2*w], final[2*w+1] = va+d, vb-d
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				y, err := g.MulVec(ctx, "m", ones)
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					errc <- err
					return
				}
				if math.Abs(y[0]-row0) > 1e-9 {
					errc <- fmt.Errorf("reader saw y[0] = %g, want %g (torn batch or swap)", y[0], row0)
					return
				}
			}
		}()
	}
	writersDone := make(chan struct{})
	go func() { wgW.Wait(); close(writersDone) }()
	select {
	case <-writersDone:
	case <-time.After(20 * time.Second):
		close(stop)
		wgR.Wait()
		t.Fatalf("chaos writers timed out with %d of %d swaps landed",
			g.in.ovRecompactions.Value(), swaps)
	}
	close(stop)
	wgR.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// A recompaction the last updates triggered may still be in flight;
	// the final reads must see the settled registry.
	g.quiesce()

	// Final state: base with each writer's last set applied.
	d := m.ToDense()
	for w := 0; w < writers; w++ {
		d[2*w] = final[2*w]
		d[2*w+1] = final[2*w+1]
	}
	x := testVec(n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			acc += d[i*n+j] * x[j]
		}
		want[i] = acc
	}
	got, err := g.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("final y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if g.in.ovRecompactions.Value() == 0 {
		t.Fatal("chaos run never recompacted; threshold too high for the churn")
	}
}

// TestDeleteAfterMergeSurvivesSwap is the recompaction delete-loss
// regression: an insert is captured by a recompaction's merge, then
// deleted while the re-tune runs. The overlay drops the deleted cell as
// back-to-base (the old base never had it), so unless the drain replays
// it the swapped-in base resurrects the insert. A test hook holds the
// recompaction between merge and re-tune, so the delete lands in that
// window on every run, however fast selection is.
func TestDeleteAfterMergeSurvivesSwap(t *testing.T) {
	leakcheck.Check(t)
	cfg := mutableConfig()
	cfg.RecompactAfter = 2
	g := NewRegistry(cfg, nil)
	defer g.Close()
	merged, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	g.afterMerge = func() { hold.Do(func() { merged <- struct{}{}; <-release }) }
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // runs before Close, so a failing test cannot wedge it

	const n = 40
	m := testmat.Random[float64](n, n, 0.1, 5)
	if _, err := g.RegisterMatrix("m", m.Clone()); err != nil {
		t.Fatal(err)
	}
	// The probe cell (0, col) is absent from the base; column 1 is read
	// beside it, so col must differ from 1.
	row, col := int32(0), int32(-1)
	for j := n - 1; j >= 2 && col < 0; j-- {
		if baseAt(m, 0, j) == 0 {
			col = int32(j)
		}
	}
	if col < 0 {
		t.Fatal("row 0 has no absent probe cell")
	}
	ctx := context.Background()
	update := func(u overlay.Update[float64]) {
		t.Helper()
		if _, err := g.Update(ctx, "m", []overlay.Update[float64]{u}); err != nil {
			t.Fatal(err)
		}
	}
	update(overlay.Update[float64]{Op: overlay.OpSet, Row: row, Col: col, Val: 5})
	other := baseAt(m, 1, 1) + 7
	update(overlay.Update[float64]{Op: overlay.OpSet, Row: 1, Col: 1, Val: other}) // crosses the threshold
	select {
	case <-merged:
	case <-time.After(10 * time.Second):
		t.Fatal("threshold crossing started no recompaction")
	}
	update(overlay.Update[float64]{Op: overlay.OpDelete, Row: row, Col: col})
	releaseOnce()
	g.quiesce()
	if got := g.in.ovRecompactions.Value(); got != 1 {
		t.Fatalf("%d recompactions landed, want 1", got)
	}

	x := make([]float64, n)
	x[col], x[1] = 1, 1
	y, err := g.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}
	if want := baseAt(m, 0, 1); y[row] != want {
		t.Errorf("y[%d] = %g after deleting (%d,%d), want %g: the delete was lost in the swap", row, y[row], row, col, want)
	}
	if want := baseAt(m, 1, int(col)) + other; y[1] != want {
		t.Errorf("y[1] = %g, want %g: the update before the merge was lost", y[1], want)
	}
}

// baseAt reads one cell of a finalized COO.
func baseAt(m *mat.COO[float64], i, j int) float64 {
	for _, e := range m.Entries() {
		if int(e.Row) == i && int(e.Col) == j {
			return e.Val
		}
	}
	return 0
}

// TestUpdateDuringCloseDoesNotDeadlock interleaves Close with in-flight
// updates and recompactions; Close must wait out the recompactor
// goroutines (leakcheck) without deadlocking on them.
func TestUpdateDuringCloseDoesNotDeadlock(t *testing.T) {
	leakcheck.Check(t)
	cfg := mutableConfig()
	cfg.RecompactAfter = 2
	cfg.RecompactInterval = time.Millisecond
	g := NewRegistry(cfg, nil)

	if _, err := g.RegisterMatrix("m", testmat.Random[float64](40, 40, 0.2, 9)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				g.Update(ctx, "m", []overlay.Update[float64]{
					{Op: overlay.OpSet, Row: int32(w), Col: int32(k % 40), Val: float64(k)},
				})
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	g.Close()
	wg.Wait()
	// Updates after Close fail typed.
	if _, err := g.Update(ctx, "m", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close update: err = %v, want ErrClosed", err)
	}
}
