package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"blockspmv/internal/overlay"
)

// UpdateResult reports one applied update batch: how many updates it
// carried and the matrix's pending-cell and effective-NNZ counts after
// application.
type UpdateResult struct {
	Applied int   `json:"applied"`
	Pending int64 `json:"pending"`
	NNZ     int64 `json:"nnz"`
}

// sealedRetryDelay paces the retry loop an update enters when it lands
// in the short window where a recompaction has sealed the old overlay
// but not yet swapped in its replacement.
const sealedRetryDelay = 200 * time.Microsecond

// Update applies a batch of point updates to the named mutable matrix.
// The batch is validated and applied atomically — any out-of-range
// coordinate rejects the whole batch with a typed *overlay.RangeError
// or *overlay.OpRangeError and no partial state. Application runs on
// the matrix's batch loop, so it is serialized against whole multiply
// panels: a concurrent MulVec sees either none or all of the batch.
//
// Updates against shard registrations fail with ErrShardedUpdate;
// against immutable entries with ErrImmutable. A batch larger than
// Config.MaxUpdateBatch is a bad request. If the batch races the final
// hot-swap of a background recompaction it retries on the fresh entry,
// bounded by ctx.
func (g *Registry) Update(ctx context.Context, name string, ups []overlay.Update[float64]) (UpdateResult, error) {
	if len(ups) > g.cfg.MaxUpdateBatch {
		return UpdateResult{}, fmt.Errorf("%w: %d updates exceed the %d per-request cap",
			errBadRequest, len(ups), g.cfg.MaxUpdateBatch)
	}
	for {
		res, err := g.updateOnce(ctx, name, ups)
		if !errors.Is(err, overlay.ErrSealed) {
			return res, err
		}
		select {
		case <-ctx.Done():
			return UpdateResult{}, ctx.Err()
		case <-time.After(sealedRetryDelay):
		}
	}
}

// updateOnce runs one attempt of Update against whatever entry
// currently holds the name. overlay.ErrSealed means the attempt raced
// a recompaction swap and should be retried.
func (g *Registry) updateOnce(ctx context.Context, name string, ups []overlay.Update[float64]) (UpdateResult, error) {
	e, err := g.acquire(name)
	if err != nil {
		return UpdateResult{}, err
	}
	defer g.release(e)
	if e.info.Sharded {
		return UpdateResult{}, fmt.Errorf("%w: %q", ErrShardedUpdate, name)
	}
	if e.ov == nil {
		return UpdateResult{}, fmt.Errorf("%w: %q", ErrImmutable, name)
	}
	ov := e.ov
	if err := e.bat.submitUpdate(ctx, func() error { return ov.Apply(ups) }); err != nil {
		return UpdateResult{}, err
	}
	g.in.ovUpdates.Add(uint64(len(ups)))
	g.mu.Lock()
	g.refreshOverlayGaugesLocked()
	g.mu.Unlock()
	res := UpdateResult{Applied: len(ups), Pending: ov.Pending(), NNZ: ov.NNZ()}
	g.maybeRecompact(name, e)
	return res, nil
}

// maybeRecompact starts a background recompaction of the entry when its
// pending-cell count has crossed the configured threshold. At most one
// recompaction per entry is in flight; the entry is pinned (refs) so
// eviction cannot tear down its batcher underneath the recompactor.
func (g *Registry) maybeRecompact(name string, e *mentry) {
	after := g.cfg.RecompactAfter
	if after <= 0 || e.ov.Pending() < after {
		return
	}
	g.mu.Lock()
	if g.closed || g.entries[name] != e || e.recompacting {
		g.mu.Unlock()
		return
	}
	g.pinForRecompactLocked(e)
	g.mu.Unlock()
	go g.recompact(name, e)
}

// pinForRecompactLocked marks e as recompacting and pins it (refs, wg,
// the in-flight count quiesce waits on) for a recompact goroutine.
// Caller holds g.mu.
func (g *Registry) pinForRecompactLocked(e *mentry) {
	e.recompacting = true
	e.refs++
	g.wg.Add(1)
	g.recompacts++
}

// quiesce blocks until no background recompaction is in flight: every
// recompaction started before the call has swapped in its replacement
// or been abandoned, and its metrics are recorded. Recompactions that
// later updates or the interval ticker start are not waited for.
func (g *Registry) quiesce() {
	g.mu.Lock()
	for g.recompacts > 0 {
		g.idle.Wait()
	}
	g.mu.Unlock()
}

// recompactTicker periodically sweeps every mutable entry holding
// pending updates, regardless of how few — the time-based complement to
// the threshold trigger, so a trickle of updates still merges.
func (g *Registry) recompactTicker(every time.Duration) {
	defer g.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-g.stopc:
			return
		case <-t.C:
			g.recompactDirty()
		}
	}
}

// recompactDirty pins and recompacts every mutable entry with pending
// cells and no recompaction already in flight.
func (g *Registry) recompactDirty() {
	type pinned struct {
		name string
		e    *mentry
	}
	var work []pinned
	g.mu.Lock()
	if !g.closed {
		for name, e := range g.entries {
			if e.ov == nil || e.dead || e.recompacting || e.ov.Pending() == 0 {
				continue
			}
			g.pinForRecompactLocked(e)
			work = append(work, pinned{name, e})
		}
	}
	g.mu.Unlock()
	for _, w := range work {
		go g.recompact(w.name, w.e)
	}
}

// recompact is the background recompactor for one pinned entry: merge
// the overlay into a fresh COO, re-tune it from scratch (selection may
// pick a different format now that the structure changed), build a new
// overlay-wrapped entry, seal the old overlay, replay what it drained,
// and hot-swap the registry slot. Callers pinned e
// (pinForRecompactLocked) before spawning.
func (g *Registry) recompact(name string, e *mentry) {
	defer g.wg.Done()
	defer g.release(e)
	start := time.Now()
	if g.recompactEntry(name, e) {
		g.in.ovRecompactions.Inc()
		g.in.ovRecompactTime.Observe(time.Since(start).Seconds())
	} else {
		g.in.ovAbandoned.Inc()
	}
	g.mu.Lock()
	e.recompacting = false
	if g.recompacts--; g.recompacts == 0 {
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}

// recompactEntry does the work of recompact and reports whether the
// swap landed. The ordering is what keeps readers consistent at every
// instant:
//
//  1. MergedCOO snapshots base+delta; concurrent updates keep landing on
//     the old overlay and stay pending there.
//  2. The merged matrix is re-tuned and wrapped in a fresh overlay with
//     its own pool and batcher; the old entry serves untouched.
//  3. SealAndDrain flips the old overlay read-only — late updates get
//     overlay.ErrSealed and Registry.Update retries onto the new entry —
//     and returns every cell that may have changed since step 1: each
//     still-pending cell, and each cell an update returned to base
//     (such as a delete of an insert the merge captured). The old
//     overlay still serves the full effective matrix to in-flight
//     multiplies.
//  4. The drained cells replay onto the new overlay. Cells the merge
//     already captured are no-ops (the overlay normalizes to base);
//     later ones become its first pending updates. Nothing is lost,
//     nothing applied twice.
//  5. The swap commits under the registry lock only if the slot still
//     holds this entry and the registry is open; otherwise the new
//     batcher is torn down and the old overlay unsealed. After the
//     swap the old entry is dead: in-flight requests finish on it, new
//     acquires see the new entry, and the old pool is freed when the
//     last reference drains.
func (g *Registry) recompactEntry(name string, e *mentry) bool {
	m := e.ov.MergedCOO()
	if g.afterMerge != nil {
		g.afterMerge()
	}
	info, inst, err := g.tune(name, m)
	if err != nil {
		return false
	}
	nov := overlay.Wrap(inst, m)
	info.Mutable = true
	info.Bytes = nov.ResidentBytes()
	nbat := newBatcher(poolFor(nov, g.cfg.Workers), g.cfg.BatchMax, g.cfg.BatchWindow, g.cfg.QueueDepth, g.in)
	ne := &mentry{info: info, bat: nbat, ov: nov}

	drained := e.ov.SealAndDrain()
	if len(drained) > 0 {
		if err := nov.Apply(drained); err != nil {
			// Cannot happen for a drain of a same-shape overlay; fail safe.
			e.ov.Unseal()
			nbat.close()
			return false
		}
	}

	swapStart := time.Now()
	g.mu.Lock()
	if g.closed || g.entries[name] != e {
		g.mu.Unlock()
		e.ov.Unseal()
		nbat.close()
		return false
	}
	formatChanged := e.info.Format != info.Format
	e.dead = true
	g.total -= e.info.Bytes
	g.seq++
	ne.use = g.seq
	g.entries[name] = ne
	g.total += info.Bytes
	g.in.cacheBytes.Set(g.total)
	g.refreshOverlayGaugesLocked()
	g.mu.Unlock()
	g.in.ovSwapTime.Observe(time.Since(swapStart).Seconds())
	if formatChanged {
		g.in.ovFormatChanged.Inc()
	}
	return true
}
