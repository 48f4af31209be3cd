package batch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"blockspmv/internal/leakcheck"
	"blockspmv/internal/metrics"
)

var (
	errFull   = errors.New("test: queue full")
	errClosed = errors.New("test: closed")
)

// item is a test payload: a name, a width toward the cap, and whether it
// closes the panel it joins.
type item struct {
	name  string
	width int
	close bool
}

// rig drives a Batcher through a fake dispatch that records each panel
// and can hold a panel in flight until released.
type rig struct {
	b      *Batcher[item]
	queued *metrics.Gauge

	mu        sync.Mutex
	panels    [][]string
	deadlines []time.Time // each panel's dispatch deadline, zero if none

	hold    chan struct{} // a panel whose first item is "hold" blocks on it
	entered chan struct{} // signalled when the held panel starts
	once    sync.Once
}

func newRig(t *testing.T, max, depth int, window time.Duration) *rig {
	t.Helper()
	r := &rig{
		queued:  metrics.NewRegistry().Gauge("queued", "items waiting"),
		hold:    make(chan struct{}),
		entered: make(chan struct{}, 1),
	}
	r.b = New(Config[item]{
		Max: max, Window: window, Depth: depth,
		Full: errFull, Closed: errClosed,
		Queued:   r.queued,
		Width:    func(it item) int { return it.width },
		Closes:   func(it item) bool { return it.close },
		Dispatch: r.dispatch,
	})
	t.Cleanup(func() {
		r.release() // a failed test must not leave Close waiting on the held panel
		r.b.Close()
	})
	return r
}

// release lets the held panel finish.
func (r *rig) release() { r.once.Do(func() { close(r.hold) }) }

func (r *rig) dispatch(ctx context.Context, items []item, errs []error) {
	var names []string
	for _, it := range items {
		names = append(names, it.name)
	}
	dl, _ := ctx.Deadline()
	r.mu.Lock()
	r.panels = append(r.panels, names)
	r.deadlines = append(r.deadlines, dl)
	r.mu.Unlock()
	if items[0].name == "hold" {
		r.entered <- struct{}{}
		<-r.hold
	}
	for i, it := range items {
		errs[i] = fmt.Errorf("answered %s", it.name)
	}
}

// submit starts a Submit on its own goroutine and returns the channel
// that receives its outcome.
func (r *rig) submit(ctx context.Context, it item) <-chan error {
	out := make(chan error, 1)
	go func() { out <- r.b.Submit(ctx, it) }()
	return out
}

// holdPanel puts a panel of one wide item in flight and waits until the
// fake dispatch is executing it, so later submits queue behind it.
func (r *rig) holdPanel(t *testing.T) <-chan error {
	t.Helper()
	out := r.submit(context.Background(), item{name: "hold", width: 1 << 20})
	<-r.entered
	return out
}

// enqueue submits items one at a time, waiting for each to reach the
// queue, so their queue order is the argument order.
func (r *rig) enqueue(t *testing.T, ctx context.Context, its ...item) []<-chan error {
	t.Helper()
	var outs []<-chan error
	for _, it := range its {
		want := r.queued.Value() + 1
		outs = append(outs, r.submit(ctx, it))
		waitFor(t, func() bool { return r.queued.Value() == want })
	}
	return outs
}

func (r *rig) recorded() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.panels)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// wantAnswered checks that each outcome is the fake dispatch's answer
// for the named item.
func wantAnswered(t *testing.T, outs []<-chan error, names ...string) {
	t.Helper()
	for i, out := range outs {
		if err := <-out; err == nil || err.Error() != "answered "+names[i] {
			t.Fatalf("%s: err = %v, want its dispatch answer", names[i], err)
		}
	}
}

func wantPanels(t *testing.T, got, want [][]string) {
	t.Helper()
	if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatalf("panels = %v, want %v", got, want)
	}
}

// TestWidthWeightedCap: gathering stops once the summed width reaches
// Max, the item that crosses the cap still joins whole, and an item
// wider than Max is served alone and whole.
func TestWidthWeightedCap(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 4, 16, 20*time.Millisecond)
	held := r.holdPanel(t)
	outs := r.enqueue(t, context.Background(),
		item{name: "a", width: 2}, item{name: "b", width: 1}, item{name: "c", width: 3},
		item{name: "wide", width: 6}, item{name: "e", width: 1})
	r.release()
	wantAnswered(t, []<-chan error{held}, "hold")
	wantAnswered(t, outs, "a", "b", "c", "wide", "e")
	wantPanels(t, r.recorded(), [][]string{{"hold"}, {"a", "b", "c"}, {"wide"}, {"e"}})
}

// TestClosingItemEndsGather: a closing item is the last member of its
// panel, dispatched after the items gathered before it; items behind it
// wait for the next panel, and a closing first item is served alone.
func TestClosingItemEndsGather(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 8, 16, 20*time.Millisecond)
	held := r.holdPanel(t)
	outs := r.enqueue(t, context.Background(),
		item{name: "a", width: 1}, item{name: "u", close: true}, item{name: "b", width: 1},
		item{name: "v", close: true}, item{name: "c", width: 1})
	r.release()
	wantAnswered(t, []<-chan error{held}, "hold")
	wantAnswered(t, outs, "a", "u", "b", "v", "c")
	wantPanels(t, r.recorded(), [][]string{{"hold"}, {"a", "u"}, {"b", "v"}, {"c"}})

	// A closing item that opens a panel does not wait out the window.
	if err := r.b.Submit(context.Background(), item{name: "w", close: true}); err == nil || err.Error() != "answered w" {
		t.Fatalf("w: err = %v", err)
	}
	wantPanels(t, r.recorded()[4:], [][]string{{"w"}})
}

// TestCanceledMembersDropped: a member whose context ends while queued
// gets its context error and never reaches dispatch; its siblings in the
// same panel are answered.
func TestCanceledMembersDropped(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 8, 16, 20*time.Millisecond)
	held := r.holdPanel(t)
	cctx, cancel := context.WithCancel(context.Background())
	live := r.enqueue(t, context.Background(), item{name: "a", width: 1})
	doomed := r.enqueue(t, cctx, item{name: "x", width: 1})
	live = append(live, r.enqueue(t, context.Background(), item{name: "b", width: 1})...)
	cancel()
	if err := <-doomed[0]; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled member: err = %v, want context.Canceled", err)
	}
	r.release()
	wantAnswered(t, []<-chan error{held}, "hold")
	wantAnswered(t, live, "a", "b")
	wantPanels(t, r.recorded(), [][]string{{"hold"}, {"a", "b"}})
}

// TestDispatchCarriesEarliestLiveDeadline: the dispatch context's
// deadline is the earliest among the live members — a canceled member's
// earlier deadline does not count — and a panel without deadlines gets
// none.
func TestDispatchCarriesEarliestLiveDeadline(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 8, 16, 20*time.Millisecond)
	held := r.holdPanel(t)
	now := time.Now()
	late, cancelLate := context.WithDeadline(context.Background(), now.Add(time.Hour))
	defer cancelLate()
	early, cancelEarly := context.WithDeadline(context.Background(), now.Add(30*time.Minute))
	defer cancelEarly()
	gone, cancelGone := context.WithDeadline(context.Background(), now.Add(time.Minute))
	outs := r.enqueue(t, late, item{name: "late", width: 1})
	outs = append(outs, r.enqueue(t, context.Background(), item{name: "none", width: 1})...)
	doomed := r.enqueue(t, gone, item{name: "gone", width: 1})
	outs = append(outs, r.enqueue(t, early, item{name: "early", width: 1})...)
	cancelGone()
	<-doomed[0]
	r.release()
	wantAnswered(t, []<-chan error{held}, "hold")
	wantAnswered(t, outs, "late", "none", "early")
	wantPanels(t, r.recorded(), [][]string{{"hold"}, {"late", "none", "early"}})
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.deadlines[0].IsZero() {
		t.Fatalf("deadline-free panel dispatched with deadline %v", r.deadlines[0])
	}
	if want := now.Add(30 * time.Minute); !r.deadlines[1].Equal(want) {
		t.Fatalf("panel deadline = %v, want the earliest live one %v", r.deadlines[1], want)
	}
}

// TestCloseDrains: Close lets the in-flight panel complete and answer,
// sheds every queued item with the configured error, and answers later
// submits with it too; a full queue sheds with the Full error.
func TestCloseDrains(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 8, 2, 20*time.Millisecond)
	held := r.holdPanel(t)
	queued := r.enqueue(t, context.Background(), item{name: "a", width: 1}, item{name: "b", width: 1})
	if err := r.b.Submit(context.Background(), item{name: "c", width: 1}); err != errFull {
		t.Fatalf("submit to a full queue: err = %v, want the Full error", err)
	}

	closed := make(chan struct{})
	go func() {
		r.b.Close()
		close(closed)
	}()
	waitFor(t, func() bool {
		r.b.mu.RLock()
		defer r.b.mu.RUnlock()
		return r.b.closed
	})
	if err := r.b.Submit(context.Background(), item{name: "late", width: 1}); err != errClosed {
		t.Fatalf("submit while draining: err = %v, want the Closed error", err)
	}
	r.release()
	wantAnswered(t, []<-chan error{held}, "hold")
	for i, out := range queued {
		if err := <-out; err != errClosed {
			t.Fatalf("queued item %d: err = %v, want the Closed error", i, err)
		}
	}
	<-closed
	if err := r.b.Submit(context.Background(), item{name: "after", width: 1}); err != errClosed {
		t.Fatalf("submit after Close: err = %v, want the Closed error", err)
	}
	wantPanels(t, r.recorded(), [][]string{{"hold"}})
	if q := r.queued.Value(); q != 0 {
		t.Fatalf("queued gauge = %d after drain, want 0", q)
	}
}
