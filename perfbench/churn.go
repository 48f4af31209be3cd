package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"blockspmv/internal/overlay"
	"blockspmv/internal/server"
)

// serve-churn: a mutable server with one matrix, open-loop reads at one
// fixed rate beside open-loop 64-point update batches at another, with
// a recompaction threshold low enough that several background
// recompactions (which re-run selection) land in every run.
const (
	churnN, churnPerRow = 8192, 16
	churnReadRate       = 200.0 // reads per second
	churnUpdateRate     = 90.0  // update batches per second
	churnBatch          = 64    // points per update batch
	churnRecompactAfter = 1024  // pending cells that trigger a recompaction
	churnPool           = 16
	churnSetupReps      = 3
)

// churnModel is the reference state of the mutable matrix: the value of
// every cell any acknowledged update touched, the reference product of
// each pool vector under the acknowledged state, and the per-version
// change log that lets a read be checked against any state it may have
// observed.
type churnModel struct {
	mu    sync.Mutex
	base  map[[2]int32]float64
	cur   map[[2]int32]float64
	xs    [][]float64
	ys    [][]float64 // A_v * xs[p] at the acknowledged version v
	log   [][]cellDelta
	acked int // acknowledged update batches
	sent  int // update batches sent (acknowledged or in flight)
}

type cellDelta struct {
	row, col int32
	delta    float64
}

func newChurnModel(m *coo, ref *refCSR, seed int64) *churnModel {
	c := &churnModel{base: map[[2]int32]float64{}, cur: map[[2]int32]float64{}}
	for _, e := range m.Entries() {
		c.base[[2]int32{e.Row, e.Col}] = e.Val
	}
	for p := 0; p < churnPool; p++ {
		x := vector(m.Cols(), nameSeed(seed, fmt.Sprintf("churn/%d", p)))
		c.xs, c.ys = append(c.xs, x), append(c.ys, ref.product(x))
	}
	return c
}

func (c *churnModel) value(cell [2]int32) float64 {
	if v, ok := c.cur[cell]; ok {
		return v
	}
	return c.base[cell]
}

// deltas is what batch ups changes relative to the current state.
func (c *churnModel) deltas(ups []overlay.Update[float64]) []cellDelta {
	out := make([]cellDelta, 0, len(ups))
	for _, u := range ups {
		cell := [2]int32{u.Row, u.Col}
		nv := u.Val
		if u.Op == overlay.OpDelete {
			nv = 0
		}
		out = append(out, cellDelta{u.Row, u.Col, nv - c.value(cell)})
	}
	return out
}

// ack applies an acknowledged batch to the reference state.
func (c *churnModel) ack(ups []overlay.Update[float64]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds := c.deltas(ups)
	for i, u := range ups {
		c.cur[[2]int32{u.Row, u.Col}] = c.value([2]int32{u.Row, u.Col}) + ds[i].delta
	}
	for p, x := range c.xs {
		for _, d := range ds {
			c.ys[p][d.row] += d.delta * x[d.col]
		}
	}
	c.log = append(c.log, ds)
	c.acked++
}

// check verifies a read of pool vector p that was sent when `from`
// batches were acknowledged: its reply must equal the product under one
// of the states it could have observed — any acknowledged version from
// `from` on, or the state after the batch still in flight. Batches go
// out one at a time, so the batch in flight is batches[acked].
func (c *churnModel) check(p, from int, y []float64, batches [][]overlay.Update[float64]) error {
	c.mu.Lock()
	v := c.acked
	want := append([]float64(nil), c.ys[p]...)
	log := c.log[from:v]
	var ahead []cellDelta
	if c.sent > v {
		ahead = c.deltas(batches[v])
	}
	c.mu.Unlock()
	x := c.xs[p]
	if matches(y, want) == nil {
		return nil
	}
	if ahead != nil {
		fwd := append([]float64(nil), want...)
		applyDeltas(fwd, x, ahead, 1)
		if matches(y, fwd) == nil {
			return nil
		}
	}
	for j := len(log) - 1; j >= 0; j-- {
		applyDeltas(want, x, log[j], -1)
		if matches(y, want) == nil {
			return nil
		}
	}
	return fmt.Errorf("reply matches no state between versions %d and %d: %v", from, v, matches(y, want))
}

func applyDeltas(y, x []float64, ds []cellDelta, sign float64) {
	for _, d := range ds {
		y[d.row] += sign * d.delta * x[d.col]
	}
}

// churnUpdates generates the seeded update batches: distinct cells per
// batch, three in four changing an existing entry, the rest inserting a
// new entry near the diagonal.
//
// The batches carry no deletes. A delete that lands while a
// recompaction is re-tuning is lost whenever the cell is absent from
// the old overlay's base — an inserted entry, or an original one
// deleted and set again since the last merge: the old overlay drops the
// cell as a return to its base, the drain never replays it, and the
// merged base brings the value back. TestDeleteDuringRecompaction
// reproduces that server defect; deletes belong in these batches once
// it is fixed.
func churnUpdates(m *coo, count int, seed int64) [][]overlay.Update[float64] {
	rng := rand.New(rand.NewSource(seed))
	es := m.Entries()
	out := make([][]overlay.Update[float64], count)
	for i := range out {
		seen := map[[2]int32]bool{}
		for len(out[i]) < churnBatch {
			var u overlay.Update[float64]
			if rng.Intn(4) > 0 {
				e := es[rng.Intn(len(es))]
				u = overlay.Update[float64]{Op: overlay.OpSet, Row: e.Row, Col: e.Col, Val: value(rng)}
			} else {
				r := rng.Intn(m.Rows())
				c := min(max(r+rng.Intn(65)-32, 0), m.Cols()-1)
				u = overlay.Update[float64]{Op: overlay.OpSet, Row: int32(r), Col: int32(c), Val: value(rng)}
			}
			if cell := [2]int32{u.Row, u.Col}; !seen[cell] {
				seen[cell] = true
				out[i] = append(out[i], u)
			}
		}
	}
	return out
}

var overlayHists = []string{"spmv_overlay_recompact_seconds", "spmv_overlay_swap_seconds"}
var overlayCounters = []string{"spmv_overlay_updates_total", "spmv_overlay_recompactions_total", "spmv_overlay_format_changed_total"}

func serveChurn(r *run) error {
	t0 := time.Now()
	m := randomSparse(churnN, churnPerRow, nameSeed(r.seed, "churn"))
	ref := newRef(m)
	model := newChurnModel(m, ref, r.seed)
	t0 = r.phase("generate", t0)

	srv := server.New(server.Config{Mach: r.cal.Machine, Prof: r.cal.prof, BatchMax: serveBatch,
		Mutable: true, RecompactAfter: churnRecompactAfter})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	var setups []float64
	for rep := 0; rep < churnSetupReps; rep++ {
		name := fmt.Sprintf("churn.%d", rep)
		if rep == churnSetupReps-1 {
			name = "churn"
		}
		// The server keeps the COO as the overlay's ground truth; it gets
		// its own copy so the reference stays untouched.
		own := m.Clone()
		s0 := time.Now()
		sp := r.tr.Begin("server", "RegisterMatrix", 0, 0)
		info, err := srv.Registry().RegisterMatrix(name, own)
		sp.End()
		setups = append(setups, seconds(s0))
		r.check("register "+name, err)
		if err != nil {
			return err
		}
		if name != "churn" {
			srv.Registry().Remove(name)
			continue
		}
		r.wsReport("served.churn", info.Format, info.NNZ, info.Bytes, map[string]any{"degraded": info.Degraded})
	}
	r.e2e["setup_s"] = median(setups)
	front, stop, err := h2Server(srv.Handler())
	if err != nil {
		return err
	}
	defer stop()
	clients := newClientPool(2)
	defer clients.close()
	readURL := "http://" + front + "/v1/matrix/churn/mulvec"
	updURL := "http://" + front + "/v1/matrix/churn/update"
	var bodies [][]byte
	for _, x := range model.xs {
		sp := r.tr.Begin("wire", "EncodeVector", 0, 0)
		b, err := server.EncodeVector(x)
		sp.End()
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	// The mutable serving path's multiply rate, before any update lands:
	// after the run it would depend on how many cells happen to be
	// pending.
	r.e2e["spmv_speedup"] = r.panelSpeedup(srv.Registry(), "churn", ref, model.xs, model.ys)
	t0 = r.phase("setup", t0)

	// Schedules: reads and updates, both Poisson from the seed.
	rng := rand.New(rand.NewSource(nameSeed(r.seed, "churn/load")))
	dur := time.Duration(r.seconds * float64(time.Second))
	reads := poisson(rng, nil, 0, dur, churnReadRate, []float64{1}, churnPool, 0)
	upAt := poisson(rng, nil, 0, dur, churnUpdateRate, []float64{1}, 1, 0)
	batches := churnUpdates(m, len(upAt), nameSeed(r.seed, "churn/updates"))
	frames := make([][]byte, len(batches))
	for i, b := range batches {
		if frames[i], err = server.EncodeUpdateFrame(b); err != nil {
			return err
		}
	}

	before := snapshot(srv.Metrics(), append(serverHists, overlayHists...), append(serverCounters, overlayCounters...))
	pending := srv.Metrics().Gauge("spmv_overlay_pending_scalars", "")
	start := time.Now()
	var wg sync.WaitGroup
	var upLat, upLate []float64
	var upErrs []error
	pendingMax := int64(0)
	wg.Add(1)
	go func() {
		// Updates go out one at a time in schedule order, so the server's
		// state is always a prefix of the sequence; a batch due while the
		// previous one is in flight waits, and its latency counts the wait.
		defer wg.Done()
		for i, a := range upAt {
			due := start.Add(a.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			upLate = append(upLate, time.Since(due).Seconds())
			model.mu.Lock()
			model.sent++
			model.mu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			sp := r.tr.Begin("server", "update", 0, 0)
			buf, err := clients.post(ctx, updURL, server.ContentTypeUpdate, frames[i])
			sp.End()
			cancel()
			upLat = append(upLat, time.Since(due).Seconds())
			if err != nil {
				upErrs = append(upErrs, err)
				model.mu.Lock()
				model.sent--
				model.mu.Unlock()
				continue
			}
			bufs.Put(buf)
			model.ack(batches[i])
			pendingMax = max(pendingMax, pending.Value())
		}
	}()
	out := openLoop(start, reads, func(i int, a arrival) (time.Time, error) {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		model.mu.Lock()
		from := model.acked
		model.mu.Unlock()
		// A traced run traces only the second half of the reads; the
		// first half is its untraced baseline.
		tr := r.tr
		if a.at < dur/2 {
			tr = nil
		}
		root := tr.Begin("bench", "request/read", 0, int64(i+1))
		sp := tr.Begin("server", "roundtrip", root.ID(), int64(i+1))
		buf, err := clients.post(ctx, readURL, server.ContentTypeVector, bodies[a.idx])
		sp.End()
		if err != nil {
			root.End()
			return time.Now(), err
		}
		defer bufs.Put(buf)
		sp = tr.Begin("wire", "DecodeVector", root.ID(), int64(i+1))
		y, err := server.DecodeVector(buf.Bytes(), churnN)
		sp.End()
		root.End()
		replied := time.Now()
		if err != nil {
			return replied, err
		}
		return replied, model.check(a.idx, from, y, batches)
	})
	wg.Wait()
	after := snapshot(srv.Metrics(), append(serverHists, overlayHists...), append(serverCounters, overlayCounters...))
	t0 = r.phase("load", t0)

	lat, late := r.account(out, "churn read")
	for _, err := range upErrs {
		r.check("update", err)
	}
	for range len(upLat) - len(upErrs) {
		r.check("update", nil)
	}
	applied := after.since(before, "spmv_overlay_updates_total").count
	var wantApplied int
	for i := 0; i < model.acked; i++ {
		wantApplied += len(batches[i])
	}
	if applied != float64(wantApplied) {
		r.check("overlay update count", fmt.Errorf("server applied %.0f updates, %d acknowledged", applied, wantApplied))
	}
	r.e2e["p50_ms"] = percentile(lat, 0.5) * 1e3
	p99, q, windows := windowedTail(lat)
	r.layer["bench.p99_ms"] = p99 * 1e3
	up99, uq := tail(upLat)
	r.layer["churn.update_p50_ms"] = percentile(upLat, 0.5) * 1e3
	r.layer["churn.update_p99_ms"] = up99 * 1e3
	r.layer["bench.lateness_p99_ms"] = percentile(append(late, upLate...), 0.99) * 1e3
	r.layer["overlay.updates"] = applied
	r.layer["overlay.pending_max"] = float64(pendingMax)
	r.layer["overlay.recompactions"] = after.since(before, "spmv_overlay_recompactions_total").count
	r.layer["overlay.recompact_s"] = after.since(before, "spmv_overlay_recompact_seconds").mean()
	r.layer["overlay.swap_s"] = after.since(before, "spmv_overlay_swap_seconds").mean()
	r.layer["overlay.format_changed"] = after.since(before, "spmv_overlay_format_changed_total").count
	r.serverLayers(before, after)
	r.note("samples", map[string]any{"reads": len(lat), "updates": len(upLat), "tail_percentile": q, "tail_windows": windows,
		"update_tail_percentile": uq, "acked": model.acked})
	if r.trace {
		r.traceServeLayers()
		var first, second []outcome
		for _, o := range out {
			if o.at < dur/2 {
				first = append(first, o)
			} else {
				second = append(second, o)
			}
		}
		r.layer["bench.trace_overhead_pct"] = overheadPct(first, second)
		if err := r.servedKernels(map[string]*coo{"churn": m}); err != nil {
			return err
		}
	}
	r.phase("kernels", t0)
	return nil
}
