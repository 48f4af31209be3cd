package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"blockspmv/internal/machine"
)

// TestGeneratorsDeterministic: the same seed gives identical inputs and
// another seed gives different ones, for every generator the workloads
// use.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(int64) any{
		"fem2d":   func(s int64) any { return fem2D(12, dramShift, s).Entries() },
		"fem3":    func(s int64) any { return fem3(4, s).Entries() },
		"stencil": func(s int64) any { return stencil3D(6, s).Entries() },
		"circuit": func(s int64) any { return hubCircuit(3000, 4, s).Entries() },
		"random":  func(s int64) any { return randomSparse(500, 8, s).Entries() },
		"vector":  func(s int64) any { return vector(100, s) },
		"updates": func(s int64) any { return churnUpdates(randomSparse(500, 8, 1), 20, s) },
		"schedule": func(s int64) any {
			return poisson(rand.New(rand.NewSource(s)), nil, 0, time.Second, 300, serveWeights, servePool, 0)
		},
	}
	for _, a := range tuneArchetypes {
		gens[a.name] = func(s int64) any { return a.gen(s).Entries() }
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: different seeds, same inputs", name)
		}
	}
}

// TestFEM2DSymmetric: the solve-dram matrix is symmetric with a
// dominant positive diagonal, so CG applies.
func TestFEM2DSymmetric(t *testing.T) {
	m := fem2D(9, dramShift, 3)
	vals := map[[2]int32]float64{}
	for _, e := range m.Entries() {
		vals[[2]int32{e.Row, e.Col}] = e.Val
	}
	for k, v := range vals {
		if vals[[2]int32{k[1], k[0]}] != v {
			t.Fatalf("A[%d][%d] = %g, transpose %g", k[0], k[1], v, vals[[2]int32{k[1], k[0]}])
		}
		if k[0] == k[1] && v <= 0 {
			t.Fatalf("diagonal %d is %g", k[0], v)
		}
	}
	if m.NNZ() != 20*81-4*2*9*2 {
		t.Errorf("nnz %d", m.NNZ())
	}
}

// TestPercentileRule: a reported tail percentile always leaves at least
// minBeyond samples beyond it, and p99 is reported exactly when the
// sample supports it.
func TestPercentileRule(t *testing.T) {
	for n := 21; n <= 5000; n++ {
		q := tailQuantile(n, 0.99)
		if got := n - rank(n, q); got < minBeyond {
			t.Fatalf("n=%d: q=%g leaves %d samples beyond", n, q, got)
		}
		if (q == 0.99) != (n >= 1000) {
			t.Fatalf("n=%d: q=%g", n, q)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	if v, q := tail(s); v != 990 || q != 0.99 {
		t.Errorf("tail of 1..1000 = %g at q=%g, want 990 at 0.99", v, q)
	}
	if v := percentile(s, 0.5); v != 500 {
		t.Errorf("p50 of 1..1000 = %g", v)
	}
	// Three windows, one of them hit by a stall: the run's tail is the
	// median window's p99, and every window supports its p99.
	run := append(append(append([]float64(nil), s...), s...), s...)
	for i := 1000; i < 1030; i++ {
		run[i] = 1e6
	}
	if v, q, k := windowedTail(run); v != 990 || q != 0.99 || k != 3 {
		t.Errorf("windowed tail %g at q=%g over %d windows, want 990 at 0.99 over 3", v, q, k)
	}
	if v, _, k := windowedTail(s[:999]); k != 1 || v != percentile(s[:999], tailQuantile(999, 0.99)) {
		t.Errorf("short run: %g over %d windows", v, k)
	}
}

// TestOpenLoopLateness: a request the generator starts late is timed
// from its due time, and the lateness is reported.
func TestOpenLoopLateness(t *testing.T) {
	arrivals := []arrival{{at: 0}, {at: 10 * time.Millisecond}, {at: 60 * time.Millisecond}}
	start := time.Now().Add(-30 * time.Millisecond) // the first two are already overdue
	service := 5 * time.Millisecond
	out := openLoop(start, arrivals, func(i int, a arrival) (time.Time, error) {
		time.Sleep(service)
		return time.Now(), nil
	})
	for i, o := range out {
		overdue := (30*time.Millisecond - o.at).Seconds()
		if overdue > 0 && o.late < overdue {
			t.Errorf("request %d: lateness %.4fs, due %.4fs before start", i, o.late, overdue)
		}
		if o.latency < o.late+service.Seconds() {
			t.Errorf("request %d: latency %.4fs does not include lateness %.4fs and service", i, o.latency, o.late)
		}
	}
	if out[2].late > 0.02 {
		t.Errorf("on-time request started %.4fs late", out[2].late)
	}
}

// TestServeSpansAccountForRequestTime: on serve-mix, the client-measured
// time of each read (from its due time) is accounted for by the
// generator's lateness plus the read's spans — round trip and decode —
// to within 0.5 ms plus 10% on average; the remainder is goroutine
// start-up and check time.
func TestServeSpansAccountForRequestTime(t *testing.T) {
	r := &run{seed: 1, trace: true, tr: newTracer(true), cal: &Calibration{Machine: machine.Machine{}},
		e2e: map[string]float64{}, layer: map[string]float64{}, report: map[string]any{}}
	small := randomSparse(smallN, smallPerRow, 1)
	large := randomSparse(largeN, largePerRow, 2)
	e, _, err := newMixEnv(r, small, large)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.inputs(1, newRef(small), newRef(large)); err != nil {
		t.Fatal(err)
	}
	out := e.mixPhase(3, mixConfig{seconds: 1, ladder: []float64{200}})
	children := map[int64]float64{}
	roots := map[int64]float64{}
	for _, sp := range r.tr.Spans() {
		if sp.Req == 0 {
			continue
		}
		if sp.Parent == 0 {
			roots[sp.Req] = sp.Dur()
		} else {
			children[sp.Req] += sp.Dur()
		}
	}
	var lat, unaccounted float64
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		id := int64(i + 1)
		if _, ok := roots[id]; !ok {
			t.Fatalf("request %d has no span", i)
		}
		if children[id] > roots[id] {
			t.Fatalf("request %d: children %.6fs exceed root %.6fs", i, children[id], roots[id])
		}
		lat += o.latency
		unaccounted += o.latency - o.late - children[id]
	}
	n := float64(len(out))
	if mean, gap := lat/n, unaccounted/n; gap > 0.0005+0.1*mean {
		t.Errorf("spans leave %.3f ms of a mean %.3f ms read unaccounted", gap*1e3, mean*1e3)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the workloads
// and metrics the program implements and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloads); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the program", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s/%s, program %s/%s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
