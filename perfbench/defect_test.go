package main

import (
	"context"
	"testing"
	"time"

	"blockspmv/internal/overlay"
	"blockspmv/internal/server"
)

// TestDeleteDuringRecompaction: a delete acknowledged by the server must
// hold. It inserts an entry, crosses the recompaction threshold so the
// merge captures the insert, deletes the entry while the merged matrix
// is being re-tuned, waits for the swap, and reads the entry back. On
// the code this benchmark was written against the delete is lost and
// the inserted value returns, so this test fails: it records a defect
// of the server's recompaction, not of the benchmark.
func TestDeleteDuringRecompaction(t *testing.T) {
	m := randomSparse(1<<16, 16, 1) // re-tuning takes long enough to land in
	srv := server.New(server.Config{Mutable: true, RecompactAfter: 2})
	defer srv.Close()
	reg := srv.Registry()
	if _, err := reg.RegisterMatrix("m", m.Clone()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	row, col := int32(0), int32(1<<16-1) // not an entry of row 0
	for _, e := range m.Entries() {
		if e.Row == row && e.Col == col {
			t.Fatal("probe cell is an original entry")
		}
	}
	set := []overlay.Update[float64]{{Op: overlay.OpSet, Row: row, Col: col, Val: 5}}
	if _, err := reg.Update(ctx, "m", set); err != nil {
		t.Fatal(err)
	}
	// The second pending cell crosses the threshold: a recompaction
	// starts, merges both cells and re-tunes in the background.
	other := []overlay.Update[float64]{{Op: overlay.OpSet, Row: 1, Col: 1, Val: 7}}
	if _, err := reg.Update(ctx, "m", other); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // past the merge, inside the re-tune
	del := []overlay.Update[float64]{{Op: overlay.OpDelete, Row: row, Col: col}}
	if _, err := reg.Update(ctx, "m", del); err != nil {
		t.Fatal(err)
	}
	swaps := srv.Metrics().Counter("spmv_overlay_recompactions_total", "")
	for deadline := time.Now().Add(30 * time.Second); swaps.Value() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no recompaction landed")
		}
	}
	x := make([]float64, m.Cols())
	x[col] = 1
	y, err := reg.MulVec(ctx, "m", x)
	if err != nil {
		t.Fatal(err)
	}
	if y[row] != 0 {
		t.Errorf("entry (%d,%d) reads %g after an acknowledged delete", row, col, y[row])
	}
}
