// Command perfbench is the repository benchmark: four seeded workloads
// that exercise the library end to end, check every output against a
// scalar-CSR reference, and print the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON line. Run it through
// run.sh from the root of a checkout; README.md describes the
// workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit; the tables below match
// BENCHMARK.json one for one.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"spmv_speedup", "x"},
	{"peak_rss_mib", "MiB"},
	{"ok_frac", "frac"},
}

var perLayer = []metricDef{
	{"mat.pattern_s", "s"},
	{"core.stats_s", "s"},
	{"core.select_s", "s"},
	{"core.candidates", "count"},
	{"formats.build_s", "s"},
	{"kernel.mul_ms", "ms"},
	{"kernel.bytes_per_nnz", "B"},
	{"kernel.gibps", "GiB/s"},
	{"kernel.bw_frac", "frac"},
	{"kernel.gflops", "GFlop/s"},
	{"kernel.mul_ms.fem3", "ms"},
	{"kernel.mul_ms.stencil3d", "ms"},
	{"kernel.mul_ms.circuit", "ms"},
	{"kernel.mul_ms.powerlaw", "ms"},
	{"kernel.mul_ms.lp", "ms"},
	{"parallel.mul_ms", "ms"},
	{"parallel.speedup", "x"},
	{"solver.solve_s", "s"},
	{"solver.iters", "count"},
	{"solver.mul_share", "frac"},
	{"solver.vecops_s", "s"},
	{"server.request_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"server.batch_k", "count"},
	{"server.transport_ms", "ms"},
	{"server.shed", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"serve.small_p99_ms", "ms"},
	{"serve.large_p99_ms", "ms"},
	{"serve.shard_p99_ms", "ms"},
	{"serve.max_rps", "1/s"},
	{"shard.coord_ms", "ms"},
	{"shard.batch_k", "count"},
	{"shard.retries", "count"},
	{"shard.tx_bytes_per_call", "B"},
	{"overlay.updates", "count"},
	{"overlay.pending_max", "count"},
	{"overlay.recompactions", "count"},
	{"overlay.recompact_s", "s"},
	{"overlay.swap_s", "s"},
	{"overlay.format_changed", "count"},
	{"churn.update_p50_ms", "ms"},
	{"churn.update_p99_ms", "ms"},
	{"bench.p99_ms", "ms"},
	{"bench.lateness_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"solve-dram":  solveDRAM,
	"tune-cache":  tuneCache,
	"serve-mix":   serveMix,
	"serve-churn": serveChurn,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	cal      *Calibration
	tr       *Tracer

	e2e, layer map[string]float64
	attempted  int
	failed     int
	failures   []string
	report     map[string]any
}

// check counts one checked output and records err as a failure.
func (r *run) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// note adds a field to the run's report.
func (r *run) note(key string, v any) { r.report[key] = v }

// phase records how long a phase of the run took since t0, and
// returns the current time for the next phase.
func (r *run) phase(name string, t0 time.Time) time.Time {
	ps, _ := r.report["phases_s"].(map[string]float64)
	if ps == nil {
		ps = map[string]float64{}
		r.report["phases_s"] = ps
	}
	ps[name] = seconds(t0)
	return time.Now()
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: solve-dram, tune-cache, serve-mix or serve-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Float64("seconds", 10, "measured duration of one run")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	cal := flag.Bool("calibrate", false, "measure and save this host's calibration if none exists, then exit")
	flag.Parse()

	if *cal {
		if err := calibrate(); err != nil {
			fatal(err)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	c, err := loadCalibration()
	if err != nil {
		fatal(err)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *secs, trace: *trace == 1, cal: c,
		tr: newTracer(*trace == 1), e2e: map[string]float64{}, layer: map[string]float64{},
		report: map[string]any{},
	}
	t0 := time.Now()
	if err := drive(r); err != nil {
		fatal(fmt.Errorf("%s: %w", r.workload, err))
	}
	r.phase("total", t0)
	r.e2e["peak_rss_mib"] = peakRSSMiB()
	r.e2e["ok_frac"] = 1 - float64(r.failed)/float64(max(r.attempted, 1))
	if err := r.finish(); err != nil {
		fatal(err)
	}
}

// finish writes the trace and the full report under .bench_build and
// prints the report line and, last, the result line.
func (r *run) finish() error {
	defs, vals := endToEnd, r.e2e
	if r.trace {
		defs, vals = perLayer, r.layer
	}
	out := resultOut{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = 0 // the layer does no work in this workload
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if !r.trace {
		for _, d := range endToEnd {
			if _, ok := r.e2e[d.name]; !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
		}
	}
	r.note("host", hostStamp(r.cal))
	r.note("workload", r.workload)
	r.note("seed", r.seed)
	r.note("seconds", r.seconds)
	r.note("trace", r.trace)
	r.note("failures", r.failures)
	r.note("end_to_end", r.e2e)
	r.note("per_layer", r.layer)
	tag := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, btoi(r.trace))
	if r.trace {
		if err := r.tr.Write(filepath.Join(".bench_build", "traces", tag+".json")); err != nil {
			return err
		}
	}
	rep, err := json.Marshal(r.report)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "results"), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(".bench_build", "results", tag+".json"), rep, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", rep, line)
	return nil
}

// hostStamp is the host description recorded with every result.
func hostStamp(c *Calibration) map[string]any {
	return map[string]any{
		"cores":                   runtime.NumCPU(),
		"gomaxprocs":              runtime.GOMAXPROCS(0),
		"go":                      runtime.Version(),
		"source":                  sourceDigest(),
		"cpu":                     c.CPU,
		"llc_bytes":               c.Machine.LLCBytes,
		"l2_bytes":                c.Machine.L2Bytes,
		"detect_triad_gibps":      c.Machine.BandwidthBytesPerSec / (1 << 30),
		"detect_triad_bytes":      c.Machine.TriadBytes,
		"dram_triad_gibps":        c.DRAMTriad / (1 << 30),
		"dram_triad_array_bytes":  c.DRAMArrayBytes,
		"calibration":             c.source,
		"calibration_measured_at": c.Measured,
	}
}

// peakRSSMiB is the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// wsReport describes one matrix for the report: its pick and its
// working set against the LLC.
func (r *run) wsReport(name, format string, nnz, ws int64, extra map[string]any) {
	m := map[string]any{
		"format": format, "nnz": nnz, "working_set_bytes": ws,
		"llc_bytes":   r.cal.Machine.LLCBytes,
		"ws_over_llc": float64(ws) / float64(r.cal.Machine.LLCBytes),
	}
	for k, v := range extra {
		m[k] = v
	}
	mats, _ := r.report["matrices"].(map[string]any)
	if mats == nil {
		mats = map[string]any{}
		r.report["matrices"] = mats
	}
	mats[name] = m
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// deadline is the time a run's measured phase must end by.
func (r *run) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(r.seconds * float64(time.Second)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// sourceDigest identifies the code a run measured: a SHA-256 over the
// checkout's Go sources and module files. The checkout the benchmark
// runs in need not be a git repository, so the digest stands in for the
// commit.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
