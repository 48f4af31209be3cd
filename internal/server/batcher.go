package server

import (
	"context"
	"time"

	"blockspmv/internal/batch"
	"blockspmv/internal/formats"
	"blockspmv/internal/parallel"
)

// request is one admitted multiply or update travelling through a
// matrix's batcher: a k-wide panel in xs/ys (a single-vector MulVec is a
// panel of one), or a mutation closure in apply. Updates ride the same
// queue as multiplies so the loop goroutine — the single owner of the
// pool — serializes them against whole panels: a multiply never
// observes a half-applied batch, and every multiply queued after an
// update sees it.
type request struct {
	xs, ys [][]float64 // ys written by the dispatch before the reply
	apply  func() error
	enq    time.Time
}

// batcher is one matrix's adapter over the shared gather-window batcher
// (internal/batch): concurrent requests are coalesced into k-wide panels
// dispatched through the pooled MulVecs path, so the matrix stream — the
// resource SpMV saturates — is paid once per panel instead of once per
// request. The batch loop is the single caller of the parallel.Mul pool,
// as its MulVec/MulVecs contract requires. A panel's width is the number
// of right-hand sides it carries; an update closes the gathering panel
// and runs after the multiplies gathered before it.
//
// A full queue, and every request still queued when the batcher closes,
// is shed with ErrOverloaded. Only a kernel panic poisons the pool, and
// that reaches every requester of this matrix as a typed error without
// affecting other matrices, which own their own pools.
type batcher struct {
	q    *batch.Batcher[request]
	pool *parallel.Mul[float64]
	rows int
	in   *instruments

	// panel scratch, reused by the batch loop only.
	xs, ys [][]float64
}

// newBatcher starts the batch loop over a freshly built pool. depth is
// the admission-queue bound, max the panel-width cap, window the
// gathering timeout; all are already defaulted by the caller.
func newBatcher(pool *parallel.Mul[float64], max int, window time.Duration, depth int, in *instruments) *batcher {
	b := &batcher{pool: pool, rows: pool.Instance().Rows(), in: in}
	b.q = batch.New(batch.Config[request]{
		Max: max, Window: window, Depth: depth,
		Full: ErrOverloaded, Closed: ErrOverloaded,
		Queued:   in.queueDepth,
		Width:    func(r request) int { return len(r.xs) },
		Closes:   func(r request) bool { return r.apply != nil },
		Dispatch: b.dispatch,
	})
	return b
}

// submit admits one k-wide panel and blocks until it is answered or ctx
// is done. The result vectors are freshly allocated per request
// (responses race with subsequent batches otherwise). A panel wider than
// the configured cap is still served in one dispatch: the cap bounds
// coalescing of additional requests, not callers' panels.
func (b *batcher) submit(ctx context.Context, xs [][]float64) ([][]float64, error) {
	ys := make([][]float64, len(xs))
	flat := make([]float64, len(xs)*b.rows)
	for l := range ys {
		ys[l] = flat[l*b.rows : (l+1)*b.rows]
	}
	if err := b.admit(ctx, request{xs: xs, ys: ys}); err != nil {
		return nil, err
	}
	return ys, nil
}

// submitUpdate admits a mutation closure and blocks until the loop has
// run it (or ctx is done). The closure executes on the loop goroutine
// after the panel it was gathered behind, so its effects order cleanly
// between whole multiplies.
func (b *batcher) submitUpdate(ctx context.Context, apply func() error) error {
	return b.admit(ctx, request{apply: apply})
}

// admit runs r through the shared batcher and classifies the outcome for
// the counters. Shed and abandoned requests got no reply, so only
// answered ones are timed.
func (b *batcher) admit(ctx context.Context, r request) error {
	b.in.reqTotal.Inc()
	r.enq = time.Now()
	err := b.q.Submit(ctx, r)
	switch {
	case err == ErrOverloaded:
		b.in.reqShed.Inc()
		return err
	case err == context.Canceled || err == context.DeadlineExceeded:
		b.in.reqCanceled.Inc()
		return err
	case err == nil:
		b.in.reqOK.Inc()
	default:
		b.in.reqPanic.Inc()
	}
	b.in.reqTime.Observe(time.Since(r.enq).Seconds())
	return err
}

// dispatch runs one gathered panel: one live multiply goes through the
// single-vector path, several through one MulVecs panel, and a closing
// update runs after the panel, so the multiplies gathered before it
// still see the pre-update matrix.
func (b *batcher) dispatch(_ context.Context, rs []request, errs []error) {
	now := time.Now()
	b.xs, b.ys = b.xs[:0], b.ys[:0]
	for _, r := range rs {
		b.in.queueWait.Observe(now.Sub(r.enq).Seconds())
		b.xs = append(b.xs, r.xs...)
		b.ys = append(b.ys, r.ys...)
	}
	var err error
	if len(b.xs) > 0 {
		b.in.batchSize.Observe(float64(len(b.xs)))
		start := time.Now()
		if len(b.xs) == 1 {
			err = b.pool.MulVec(b.xs[0], b.ys[0])
		} else {
			err = b.pool.MulVecs(b.xs, b.ys)
		}
		b.in.execTime.Observe(time.Since(start).Seconds())
	}
	for i, r := range rs {
		errs[i] = err
		if r.apply != nil {
			errs[i] = r.apply()
		}
	}
}

// close drains and retires the batcher: new submits shed immediately,
// the loop finishes its in-flight batch, sheds the queue and exits, and
// the pool workers are closed. Idempotent.
func (b *batcher) close() {
	b.q.Close()
	b.pool.Close()
}

// poolFor builds the pooled executor the batcher dispatches through.
func poolFor(inst formats.Instance[float64], workers int) *parallel.Mul[float64] {
	return parallel.NewMul(inst, workers, parallel.BalanceWeights)
}
