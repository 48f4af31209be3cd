// Package batch is the gather-window batcher the serving stack shares.
// Concurrent callers submit items into a bounded queue; one loop
// goroutine gathers them into panels and hands each panel to a dispatch
// function, so a cost that is the same for one item as for many — the
// matrix stream of an SpMV, the wire frames of a sharded scatter — is
// paid once per panel instead of once per item.
//
// The batcher owns admission, gathering, cancellation and drain. Callers
// supply three hooks: how wide an item counts toward the panel cap,
// whether an item closes the panel it joins, and what dispatching a
// panel executes.
package batch

import (
	"context"
	"sync"
	"time"

	"blockspmv/internal/metrics"
)

// Config sets a Batcher's limits, errors and hooks.
type Config[T any] struct {
	// Max caps the summed width of a panel: gathering stops once the
	// items in hand reach it. It bounds how many items join a panel,
	// never splits one, so an item wider than Max is dispatched whole.
	// <= 1 disables coalescing.
	Max int
	// Window is how long the loop holds a panel's first item while
	// gathering more; queued items are taken without waiting. <= 0
	// disables coalescing.
	Window time.Duration
	// Depth bounds the admission queue.
	Depth int
	// Full answers a submit that finds the queue full. Closed answers a
	// submit after Close, and every item still queued when Close runs.
	Full, Closed error
	// Queued, when non-nil, tracks how many items wait in the queue.
	Queued *metrics.Gauge

	// Width is an item's contribution toward Max; nil counts every item
	// as 1.
	Width func(T) int
	// Closes reports whether an item ends the gather it joins: it is the
	// last member of its panel, and items queued behind it wait for the
	// next one. nil closes no panel.
	Closes func(T) bool
	// Dispatch executes one panel and records the outcome of items[i] in
	// errs[i]. items are the panel's live members in arrival order; ctx
	// carries the earliest deadline among them, since they share one
	// execution and none may run past its caller's interest. Dispatch
	// runs on the loop goroutine, so panels never overlap.
	Dispatch func(ctx context.Context, items []T, errs []error)
}

// Batcher gathers submitted items into panels. A submit whose context
// ends while its item is queued returns the context error at once; the
// item is dropped when its panel is dispatched, and its siblings are
// unaffected. Close drains rather than aborts: the in-flight panel
// completes and replies, every queued item is answered with
// Config.Closed, and later submits get Config.Closed too.
type Batcher[T any] struct {
	cfg Config[T]

	ch   chan *entry[T]
	stop chan struct{}
	done chan struct{} // loop exited

	mu     sync.RWMutex // guards closed against in-flight submits
	closed bool

	// Panel scratch, reused by the loop goroutine only.
	batch []*entry[T]
	items []T
	errs  []error
}

// entry is one submitted item waiting for its panel.
type entry[T any] struct {
	ctx  context.Context
	item T
	// done carries the outcome. Buffered so the loop never blocks on a
	// submitter that gave up.
	done chan error
}

// New starts the gather loop; Close stops it.
func New[T any](cfg Config[T]) *Batcher[T] {
	b := &Batcher[T]{
		cfg:  cfg,
		ch:   make(chan *entry[T], cfg.Depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// Submit admits item and blocks until its panel has been dispatched or
// ctx is done, returning the item's outcome. A full queue fails fast
// with Config.Full, a closed batcher with Config.Closed.
func (b *Batcher[T]) Submit(ctx context.Context, item T) error {
	e := &entry[T]{ctx: ctx, item: item, done: make(chan error, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return b.cfg.Closed
	}
	select {
	case b.ch <- e:
		b.mu.RUnlock()
		b.queued(1)
	default:
		b.mu.RUnlock()
		return b.cfg.Full
	}
	select {
	case err := <-e.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains and stops the batcher: new submits fail with
// Config.Closed, the loop finishes its in-flight panel, answers the
// queue with Config.Closed and exits. Idempotent.
func (b *Batcher[T]) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.stop)
	}
	<-b.done
}

func (b *Batcher[T]) queued(d int64) {
	if b.cfg.Queued != nil {
		b.cfg.Queued.Add(d)
	}
}

func (b *Batcher[T]) width(it T) int {
	if b.cfg.Width == nil {
		return 1
	}
	return b.cfg.Width(it)
}

func (b *Batcher[T]) closes(it T) bool {
	return b.cfg.Closes != nil && b.cfg.Closes(it)
}

// loop gathers, dispatches and replies until stop, then sheds the queue.
func (b *Batcher[T]) loop() {
	defer close(b.done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		// Prefer the stop signal over more work: once draining begins the
		// queue is shed, not served (select alone would pick at random).
		select {
		case <-b.stop:
			b.shedQueued()
			return
		default:
		}
		select {
		case <-b.stop:
			b.shedQueued()
			return
		case e := <-b.ch:
			b.queued(-1)
			b.gather(e, timer)
			b.dispatch()
		}
	}
}

// gather fills b.batch with the first item plus whatever else arrives
// within the window, until the summed width reaches Max or a closing
// item joins. A stop signal ends gathering early, but the gathered
// panel is still dispatched: its items are in flight, and the drain
// contract completes in-flight work.
func (b *Batcher[T]) gather(first *entry[T], timer *time.Timer) {
	b.batch = append(b.batch[:0], first)
	w := b.width(first.item)
	if b.closes(first.item) || b.cfg.Max <= 1 || b.cfg.Window <= 0 || w >= b.cfg.Max {
		return
	}
	timer.Reset(b.cfg.Window)
	defer timer.Stop()
	for w < b.cfg.Max {
		select {
		case e := <-b.ch:
			b.queued(-1)
			b.batch = append(b.batch, e)
			if b.closes(e.item) {
				return
			}
			w += b.width(e.item)
		case <-timer.C:
			return
		case <-b.stop:
			return
		}
	}
}

// dispatch answers canceled members with their context error, runs the
// live ones as one panel under their earliest deadline, and delivers
// each live member its outcome.
func (b *Batcher[T]) dispatch() {
	live := b.batch[:0]
	b.items = b.items[:0]
	var dl time.Time
	hasDL := false
	for _, e := range b.batch {
		if err := e.ctx.Err(); err != nil {
			e.done <- err // nobody may be listening; buffered
			continue
		}
		if d, ok := e.ctx.Deadline(); ok && (!hasDL || d.Before(dl)) {
			dl, hasDL = d, true
		}
		live = append(live, e)
		b.items = append(b.items, e.item)
	}
	if len(live) == 0 {
		return
	}
	if cap(b.errs) < len(live) {
		b.errs = make([]error, len(live))
	}
	errs := b.errs[:len(live)]
	clear(errs)
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if hasDL {
		ctx, cancel = context.WithDeadline(ctx, dl)
	}
	b.cfg.Dispatch(ctx, b.items, errs)
	cancel()
	for i, e := range live {
		e.done <- errs[i]
	}
}

// shedQueued answers everything still queued with Config.Closed. It runs
// after the closed flag is set under the write lock, so no submit can
// enqueue afterwards and draining to empty is final.
func (b *Batcher[T]) shedQueued() {
	for {
		select {
		case e := <-b.ch:
			b.queued(-1)
			e.done <- b.cfg.Closed
		default:
			return
		}
	}
}
