package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"blockspmv/internal/metrics"
	"blockspmv/internal/server"
	"blockspmv/internal/shard"
)

// serve-mix: an in-process server with batching, fed open-loop Poisson
// traffic at a fixed ladder of rates. Requests go to three targets: a
// small matrix where HTTP, codec and batching dominate, a large random
// matrix where the kernel dominates, and the same large matrix split
// into two row shards behind a batched coordinator.
const (
	smallN, smallPerRow = 4096, 12
	largeN, largePerRow = 16384, 32
	serveBatch          = 8
	servePool           = 32 // distinct input vectors per target
	// serveP99LimitMs is the p99 a rung must meet to count toward
	// max_rps, fixed once from the first seeds' numbers on the
	// reference host.
	serveP99LimitMs = 60.0
	requestTimeout  = 10 * time.Second
)

var (
	serveClasses = []string{"small", "large", "shard"}
	serveWeights = []float64{1, 1, 1}
	// serveLadder is the offered total rate per rung, requests per second.
	// Each rung lasts long enough for the same expected request count.
	serveLadder = []float64{200, 275, 350}
)

// mixConfig sizes a serve-mix phase; the self-tests shrink it.
type mixConfig struct {
	seconds float64
	ladder  []float64
}

// mixEnv is the serving stack under test and the generator's view of it.
type mixEnv struct {
	srv     *server.Server
	workers []*server.Server
	stops   []func()
	coord   *shard.Coordinator
	clients *clientPool
	pools   [][][]float64 // per class: input vectors
	bodies  [][][]byte    // per class: encoded inputs
	refs    [][][]float64 // per class: reference outputs
	urls    []string
	tr      *Tracer
}

func (e *mixEnv) close() {
	if e.clients != nil {
		e.clients.close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	// Stop the front first so no request reaches a closed registry.
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
}

// startWorker serves a shard worker over HTTP/1.1 on loopback.
func startWorker(cfg server.Config) (*server.Server, string, func(), error) {
	w := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Serve(l)
	}()
	return w, l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w.Shutdown(ctx)
		<-done
	}, nil
}

// newMixEnv builds the stack and registers the matrices, returning the
// registration time: the set-up a user pays to make the three targets
// ready.
func newMixEnv(r *run, small, large *coo) (*mixEnv, float64, error) {
	cfg := server.Config{Mach: r.cal.Machine, Prof: r.cal.prof, BatchMax: serveBatch}
	e := &mixEnv{tr: r.tr, srv: server.New(cfg)}
	e.stops = append(e.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		e.srv.Shutdown(ctx)
	})
	wcfg := cfg
	wcfg.EnableShard = true
	var addrs []string
	for i := 0; i < 2; i++ {
		w, addr, stop, err := startWorker(wcfg)
		if err != nil {
			e.close()
			return nil, 0, err
		}
		e.workers, addrs = append(e.workers, w), append(addrs, addr)
		e.stops = append(e.stops, stop)
	}

	t0 := time.Now()
	sp := r.tr.Begin("server", "RegisterMatrix", 0, 0)
	_, err := e.srv.Registry().RegisterMatrix("small", small)
	if err == nil {
		_, err = e.srv.Registry().RegisterMatrix("large", large)
	}
	sp.End()
	if err == nil {
		sp = r.tr.Begin("shard", "RegisterShards", 0, 0)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var specs []shard.Spec
		specs, err = shard.RegisterShards(ctx, nil, large, "large", addrs, shard.Plan(large, 2))
		cancel()
		if err == nil {
			e.coord, err = shard.New(large.Cols(), specs, shard.Options{BatchMax: serveBatch, Timeout: requestTimeout})
		}
		sp.End()
	}
	setup := seconds(t0)
	r.check("register serve-mix targets", err)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	for _, name := range []string{"small", "large"} {
		info, err := e.srv.Registry().Lookup(name)
		r.check("lookup "+name, err)
		if err == nil {
			r.wsReport("served."+name, info.Format, info.NNZ, info.Bytes+int64(16*info.Rows), map[string]any{
				"degraded": info.Degraded, "predicted_ms": info.PredictedMs,
			})
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /bench/shard/mulvec", e.handleShard)
	mux.Handle("/", e.srv.Handler())
	front, stop, err := h2Server(mux)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	e.stops = append(e.stops, stop)
	e.clients = newClientPool(2)
	e.urls = []string{
		"http://" + front + "/v1/matrix/small/mulvec",
		"http://" + front + "/v1/matrix/large/mulvec",
		"http://" + front + "/bench/shard/mulvec",
	}
	return e, setup, nil
}

// handleShard is the benchmark's HTTP face for the coordinator, which
// has none of its own: decode, scatter and gather, encode.
func (e *mixEnv) handleShard(w http.ResponseWriter, req *http.Request) {
	data, err := io.ReadAll(req.Body)
	var x, y []float64
	if err == nil {
		x, err = server.DecodeVector(data, e.coord.Cols())
	}
	if err == nil {
		sp := e.tr.Begin("shard", "Coordinator.MulVec", 0, 0)
		y, err = e.coord.MulVec(req.Context(), x)
		sp.End()
	}
	var out []byte
	if err == nil {
		out, err = server.EncodeVector(y)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", server.ContentTypeVector)
	w.Write(out)
}

// inputs fills the per-class input pools, their encoded request bodies
// and their reference outputs. The encodes are the timed calls behind
// wire.encode_us.
func (e *mixEnv) inputs(seed int64, small, large *refCSR) error {
	for c, name := range serveClasses {
		ref := large
		if c == 0 {
			ref = small
		}
		var xs, ys [][]float64
		var bodies [][]byte
		for i := 0; i < servePool; i++ {
			x := vector(ref.cols, nameSeed(seed, fmt.Sprintf("%s/%d", name, i)))
			sp := e.tr.Begin("wire", "EncodeVector", 0, 0)
			body, err := server.EncodeVector(x)
			sp.End()
			if err != nil {
				return err
			}
			xs, ys, bodies = append(xs, x), append(ys, ref.product(x)), append(bodies, body)
		}
		e.pools, e.refs, e.bodies = append(e.pools, xs), append(e.refs, ys), append(e.bodies, bodies)
	}
	return nil
}

// request performs one read, returns when its reply arrived, then
// checks the reply against the reference.
func (e *mixEnv) request(a arrival, id int64) (time.Time, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	class := serveClasses[a.class]
	layer := "server"
	if class == "shard" {
		layer = "shard"
	}
	root := e.tr.Begin("bench", "request/"+class, 0, id)
	sp := e.tr.Begin(layer, "roundtrip", root.ID(), id)
	buf, err := e.clients.post(ctx, e.urls[a.class], server.ContentTypeVector, e.bodies[a.class][a.idx])
	sp.End()
	if err != nil {
		root.End()
		return time.Now(), err
	}
	defer bufs.Put(buf)
	want := e.refs[a.class][a.idx]
	sp = e.tr.Begin("wire", "DecodeVector", root.ID(), id)
	y, err := server.DecodeVector(buf.Bytes(), len(want))
	sp.End()
	root.End()
	replied := time.Now()
	if err != nil {
		return replied, err
	}
	return replied, matches(y, want)
}

// mixPhase runs the ladder once and returns every outcome.
func (e *mixEnv) mixPhase(seed int64, cfg mixConfig) []outcome {
	rng := rand.New(rand.NewSource(seed))
	inv := 0.0
	for _, rate := range cfg.ladder {
		inv += 1 / rate
	}
	var arrivals []arrival
	from := time.Duration(0)
	for i, rate := range cfg.ladder {
		dur := time.Duration(cfg.seconds * (1 / rate) / inv * float64(time.Second))
		arrivals = poisson(rng, arrivals, from, dur, rate, serveWeights, servePool, i)
		from += dur
	}
	return openLoop(time.Now(), arrivals, func(i int, a arrival) (time.Time, error) {
		return e.request(a, int64(i+1))
	})
}

// histDelta is the change of a histogram's count and sum over a phase.
type histDelta struct{ count, sum float64 }

func (d histDelta) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / d.count
}

// metricSnap reads histogram counts and sums and counter values from a
// metrics registry, so phases can be measured by difference.
type metricSnap map[string]histDelta

func snapshot(reg *metrics.Registry, hists, counters []string) metricSnap {
	s := metricSnap{}
	for _, h := range hists {
		hg := reg.Histogram(h, "", nil)
		s[h] = histDelta{float64(hg.Count()), hg.Sum()}
	}
	for _, c := range counters {
		s[c] = histDelta{count: float64(reg.Counter(c, "").Value())}
	}
	return s
}

func (s metricSnap) since(before metricSnap, name string) histDelta {
	return histDelta{s[name].count - before[name].count, s[name].sum - before[name].sum}
}

// serverLayers derives the server.* metrics from the server's own
// histograms and counters over the measured phase.
func (r *run) serverLayers(before, after metricSnap) {
	r.layer["server.request_ms"] = after.since(before, "spmvd_request_seconds").mean() * 1e3
	r.layer["server.queue_wait_ms"] = after.since(before, "spmvd_queue_wait_seconds").mean() * 1e3
	r.layer["server.exec_ms"] = after.since(before, "spmvd_exec_seconds").mean() * 1e3
	r.layer["server.batch_k"] = after.since(before, "spmvd_batch_size").mean()
	r.layer["server.shed"] = after.since(before, "spmvd_requests_shed_total").count
}

var (
	serverHists    = []string{"spmvd_request_seconds", "spmvd_queue_wait_seconds", "spmvd_exec_seconds", "spmvd_batch_size"}
	serverCounters = []string{"spmvd_requests_shed_total"}
	shardHists     = []string{"spmv_shard_batch_k"}
	shardCounters  = []string{"spmv_shard_mulvec_total", "spmv_shard_panel_tx_bytes_total"}
)

func serveMix(r *run) error {
	t0 := time.Now()
	small := randomSparse(smallN, smallPerRow, nameSeed(r.seed, "small"))
	large := randomSparse(largeN, largePerRow, nameSeed(r.seed, "large"))
	smallRef, largeRef := newRef(small), newRef(large)
	t0 = r.phase("generate", t0)

	e, setup, err := newMixEnv(r, small, large)
	if err != nil {
		return err
	}
	defer func() {
		t0 := time.Now()
		e.close()
		r.phase("close", t0)
	}()
	r.e2e["setup_s"] = setup
	if err := e.inputs(r.seed, smallRef, largeRef); err != nil {
		return err
	}
	t0 = r.phase("setup", t0)

	// Warm the connections and pools, untimed and unchecked.
	traced := e.tr
	e.tr = newTracer(false)
	e.mixPhase(nameSeed(r.seed, "warmup"), mixConfig{seconds: 0.3, ladder: serveLadder[:1]})
	cfg := mixConfig{seconds: r.seconds, ladder: serveLadder}
	var base []outcome
	if r.trace {
		base = e.mixPhase(nameSeed(r.seed, "load"), cfg)
	}
	e.tr = traced
	t0 = r.phase("warmup", t0)

	srvBefore := snapshot(e.srv.Metrics(), serverHists, serverCounters)
	shBefore := snapshot(e.coord.Metrics(), shardHists, shardCounters)
	retriesBefore := shardRetries(e.coord)
	out := e.mixPhase(nameSeed(r.seed, "load"), cfg)
	srvAfter := snapshot(e.srv.Metrics(), serverHists, serverCounters)
	shAfter := snapshot(e.coord.Metrics(), shardHists, shardCounters)
	t0 = r.phase("load", t0)

	lat, late := r.account(out, "read")
	r.e2e["p50_ms"] = percentile(lat, 0.5) * 1e3
	p99, q, windows := windowedTail(lat)
	r.layer["bench.p99_ms"] = p99 * 1e3
	r.layer["bench.lateness_p99_ms"] = percentile(late, 0.99) * 1e3
	counts := map[string]int{}
	for c, name := range serveClasses {
		var cl []float64
		for _, o := range out {
			if o.class == c {
				cl = append(cl, o.latency)
			}
		}
		counts[name] = len(cl)
		v, _ := tail(cl)
		r.layer["serve."+name+"_p99_ms"] = v * 1e3
	}
	maxRPS, rungs := ladderResult(out, cfg)
	r.layer["serve.max_rps"] = maxRPS
	r.note("samples", map[string]any{"reads": len(lat), "per_class": counts, "tail_percentile": q, "tail_windows": windows})
	r.note("ladder", rungs)

	r.serverLayers(srvBefore, srvAfter)
	r.layer["shard.batch_k"] = shAfter.since(shBefore, "spmv_shard_batch_k").mean()
	calls := shAfter.since(shBefore, "spmv_shard_mulvec_total").count
	r.layer["shard.tx_bytes_per_call"] = shAfter.since(shBefore, "spmv_shard_panel_tx_bytes_total").count / max(calls, 1)
	r.layer["shard.retries"] = shardRetries(e.coord) - retriesBefore
	if r.trace {
		r.traceServeLayers()
		r.layer["bench.trace_overhead_pct"] = overheadPct(base, out)
	}

	r.e2e["spmv_speedup"] = geomean([]float64{
		r.panelSpeedup(e.srv.Registry(), "small", smallRef, e.pools[0], e.refs[0]),
		r.panelSpeedup(e.srv.Registry(), "large", largeRef, e.pools[1], e.refs[1]),
	})

	if r.trace {
		if err := r.servedKernels(map[string]*coo{"small": small, "large": large}); err != nil {
			return err
		}
	}
	r.phase("kernels", t0)
	return nil
}

// servedKernels fills the per-layer set-up, kernel and executor figures
// of a serve workload: its matrices tuned as the server tunes them
// (priced for panels of the batch width) and timed directly.
func (r *run) servedKernels(ms map[string]*coo) error {
	var ks kernelStats
	var ps parallelStats
	for _, name := range sortedKeys(ms) {
		m := ms[name]
		t, err := r.tune(name, m, serveBatch)
		if err != nil {
			return err
		}
		r.checkMul(t)
		x := vector(m.Cols(), 1)
		y := make([]float64, m.Rows())
		ks.add(r, t, median(timeMuls(t.inst, x, y, 50)), median(timeRef(t.ref, x, y, 20)))
		ps.add(r, t, 50)
	}
	ks.publish(r)
	ps.publish(r)
	return nil
}

// panelSpeedup times the server's own multiply path — Registry.MulVecs
// on a panel of serveBatch vectors, through the batcher and the worker
// pool, without HTTP — against serveBatch multiplies by the reference
// kernel, alternating the two so that the host's speed drift cancels,
// and checks the panel's results.
func (r *run) panelSpeedup(reg *server.Registry, name string, ref *refCSR, xs, want [][]float64) float64 {
	xs, want = xs[:serveBatch], want[:serveBatch]
	y := make([]float64, ref.rows)
	var srv, base []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		ys, err := reg.MulVecs(context.Background(), name, xs)
		srv = append(srv, seconds(t0))
		for j := 0; err == nil && j < len(ys); j++ {
			err = matches(ys[j], want[j])
		}
		r.check("panel "+name, err)
		t0 = time.Now()
		for _, x := range xs {
			ref.mul(x, y)
		}
		base = append(base, seconds(t0))
	}
	return median(base) / median(srv)
}

// shardRetries sums the coordinator's per-shard retry counters.
func shardRetries(c *shard.Coordinator) float64 {
	s := 0.0
	for i := 0; i < 2; i++ {
		s += float64(c.Metrics().LabeledCounter("spmv_shard_retries_total", fmt.Sprintf("shard=%q", fmt.Sprint(i)), "").Value())
	}
	return s
}

// account checks every outcome, counting failures, and returns the
// latencies and generator lateness in seconds.
func (r *run) account(out []outcome, what string) (lat, late []float64) {
	for _, o := range out {
		r.check(what, o.err)
		lat = append(lat, o.latency)
		late = append(late, o.late)
	}
	return lat, late
}

// overheadPct compares the median latency of a traced phase with an
// untraced one over the same schedule.
func overheadPct(base, traced []outcome) float64 {
	lat := func(out []outcome) []float64 {
		var l []float64
		for _, o := range out {
			l = append(l, o.latency)
		}
		return l
	}
	return (percentile(lat(traced), 0.5)/percentile(lat(base), 0.5) - 1) * 100
}

// traceServeLayers derives the span-based per-layer metrics: codec
// times, client round trip against the server's own request time, and
// coordinator time.
func (r *run) traceServeLayers() {
	mean := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	r.layer["wire.encode_us"] = mean(r.tr.Durations("wire", "EncodeVector")) * 1e6
	r.layer["wire.decode_us"] = mean(r.tr.Durations("wire", "DecodeVector")) * 1e6
	r.layer["server.transport_ms"] = mean(r.tr.Durations("server", "roundtrip"))*1e3 - r.layer["server.request_ms"]
	r.layer["shard.coord_ms"] = mean(r.tr.Durations("shard", "Coordinator.MulVec")) * 1e3
}

// rung is one ladder step's outcome.
type rung struct {
	Rate     float64 `json:"rate"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
	Tail     float64 `json:"tail_percentile"`
	Growing  bool    `json:"backlog_growing"`
	Meets    bool    `json:"meets_limit"`
}

// ladderResult evaluates each rung: it meets the limit when its p99 is
// within serveP99LimitMs, nothing failed, and its backlog did not grow — the
// median latency of its last quarter is not above twice that of its
// first quarter plus a millisecond. max_rps is the highest rate that
// meets the limit.
func ladderResult(out []outcome, cfg mixConfig) (float64, []rung) {
	var rungs []rung
	best := 0.0
	for i, rate := range cfg.ladder {
		var os []outcome
		for _, o := range out {
			if o.rung == i {
				os = append(os, o)
			}
		}
		sort.Slice(os, func(a, b int) bool { return os[a].at < os[b].at })
		rg := rung{Rate: rate, Requests: len(os)}
		var lat []float64
		for _, o := range os {
			lat = append(lat, o.latency)
			if o.err != nil {
				rg.Failed++
			}
		}
		if len(lat) >= 8 {
			q := len(lat) / 4
			first, last := percentile(lat[:q], 0.5), percentile(lat[len(lat)-q:], 0.5)
			rg.Growing = last > 2*first+1e-3
			rg.P50ms = percentile(lat, 0.5) * 1e3
			v, tq := tail(lat)
			rg.P99ms, rg.Tail = v*1e3, tq
		}
		rg.Meets = len(lat) > 0 && rg.Failed == 0 && !rg.Growing && rg.P99ms <= serveP99LimitMs
		if rg.Meets {
			best = rate
		}
		rungs = append(rungs, rg)
	}
	return best, rungs
}
