package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"blockspmv"
	"blockspmv/internal/core"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/parallel"
)

type instance = formats.Instance[float64]

// tuned is one matrix made ready to multiply by the library's selection.
type tuned struct {
	name  string
	m     *coo
	ref   *refCSR
	inst  instance
	pred  core.Prediction
	setup float64 // seconds from the finalized COO to a built format
}

// tune selects and builds the matrix's format for panels of rhs vectors,
// the set-up a user pays. Untraced it is one call to the library's
// Autotune; traced it is the same work as Autotune does it, step by
// step — pattern, candidate statistics, selection, construction — each
// in its own span. A degraded selection (the model's pick would not
// build, or the calibration could not drive the model) is a failure.
func (r *run) tune(name string, m *coo, rhs int) (*tuned, error) {
	m.Finalize()
	t := &tuned{name: name, m: m}
	t0 := time.Now()
	if !r.trace {
		if rhs == 1 {
			t.inst, t.pred = blockspmv.Autotune(m, r.cal.Machine, r.cal.prof)
		} else {
			t.inst, t.pred = blockspmv.AutotuneRHS(m, r.cal.Machine, r.cal.prof, rhs)
		}
		t.setup = seconds(t0)
	} else {
		root := r.tr.Begin("bench", "tune", 0, 0)
		sp := r.tr.Begin("mat", "PatternOf", root.ID(), 0)
		p := mat.PatternOf(m)
		r.layer["mat.pattern_s"] += sp.End()
		sp = r.tr.Begin("core", "EnumerateStatsAll", root.ID(), 0)
		stats := core.WithRHS(core.EnumerateStatsAll(p, 8), rhs)
		r.layer["core.stats_s"] += sp.End()
		r.layer["core.candidates"] += float64(len(stats))
		sp = r.tr.Begin("core", "SelectSafe", root.ID(), 0)
		t.pred = core.SelectSafe(core.Overlap{}, stats, r.cal.Machine, r.cal.prof)
		r.layer["core.select_s"] += sp.End()
		sp = r.tr.Begin("formats", "InstantiateChecked", root.ID(), 0)
		inst, err := blockspmv.InstantiateChecked(m, t.pred.Cand)
		r.layer["formats.build_s"] += sp.End()
		t.setup = root.End()
		if err != nil {
			t.pred.Degraded, t.pred.Reason = true, err.Error()
		}
		t.inst = inst
	}
	var err error
	switch {
	case t.inst == nil:
		err = fmt.Errorf("no format built: %s", t.pred.Reason)
	case t.pred.Degraded:
		err = fmt.Errorf("degraded selection: %s", t.pred.Reason)
	}
	r.check("tune "+name, err)
	if t.inst == nil {
		return nil, fmt.Errorf("tune %s: %w", name, err)
	}
	t.ref = newRef(m)
	ws := formats.WorkingSetBytes(t.inst)
	r.wsReport(name, t.inst.Name(), int64(m.NNZ()), ws, map[string]any{
		"candidate":      t.pred.Cand.String(),
		"predicted_ms":   t.pred.Seconds * 1e3,
		"csr_ws_bytes":   mat.CSRWorkingSetBytes(m.Rows(), m.NNZ(), 8),
		"setup_s":        t.setup,
		"rows":           m.Rows(),
		"cols":           m.Cols(),
		"rhs_priced_for": rhs,
	})
	return t, nil
}

// nameSeed derives a per-matrix input seed from the run seed.
func nameSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return int64(h.Sum64() >> 1)
}

// safeMul runs y = A*x, turning a kernel panic into an error.
func safeMul(inst instance, x, y []float64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("kernel panic: %v", p)
		}
	}()
	inst.Mul(x, y)
	return nil
}

// checkMul multiplies one seeded vector and compares with the reference.
func (r *run) checkMul(t *tuned) {
	x := vector(t.m.Cols(), nameSeed(r.seed, t.name))
	y := make([]float64, t.m.Rows())
	err := safeMul(t.inst, x, y)
	if err == nil {
		err = matches(y, t.ref.product(x))
	}
	r.check("mul "+t.name, err)
}

// timeMuls times count single-thread multiplies and returns each call's
// seconds.
func timeMuls(inst instance, x, y []float64, count int) []float64 {
	return timeCalls(count, func() { inst.Mul(x, y) })
}

// timeRef times count multiplies by the benchmark's scalar-CSR
// reference, the yardstick kernel rates are divided by.
func timeRef(ref *refCSR, x, y []float64, count int) []float64 {
	return timeCalls(count, func() { ref.mul(x, y) })
}

func timeCalls(count int, f func()) []float64 {
	ts := make([]float64, count)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = seconds(t0)
	}
	return ts
}

// kernelStats accumulates per-matrix kernel figures for the geometric
// means the metrics report.
type kernelStats struct{ mulMs, bytesPerNNZ, gibps, bwFrac, gflops, speedup []float64 }

// add records one matrix's median single-thread multiply time and the
// median time of the reference kernel timed alongside it. Their ratio
// is what spmv_speedup reports: the host's speed drifts by tens of
// percent from run to run, and timing both kernels in the same stretch
// cancels the drift.
func (k *kernelStats) add(r *run, t *tuned, mulSec, refSec float64) {
	ws := float64(formats.WorkingSetBytes(t.inst))
	nnz := float64(t.m.NNZ())
	gibps := ws / mulSec / (1 << 30)
	k.mulMs = append(k.mulMs, mulSec*1e3)
	k.bytesPerNNZ = append(k.bytesPerNNZ, ws/nnz)
	k.gibps = append(k.gibps, gibps)
	k.bwFrac = append(k.bwFrac, gibps*(1<<30)/r.cal.DRAMTriad)
	k.gflops = append(k.gflops, 2*nnz/mulSec/1e9)
	k.speedup = append(k.speedup, refSec/mulSec)
	if mats, ok := r.report["matrices"].(map[string]any); ok {
		if m, ok := mats[t.name].(map[string]any); ok {
			m["mul_ms"] = mulSec * 1e3
			m["gibps_computed"] = gibps
			m["gflops"] = 2 * nnz / mulSec / 1e9
			m["ref_mul_ms"] = refSec * 1e3
		}
	}
}

// publish writes the geometric means: the kernel.* figures per layer
// and, unless the workload measures it otherwise, spmv_speedup.
func (k *kernelStats) publish(r *run) {
	if _, ok := r.e2e["spmv_speedup"]; !ok {
		r.e2e["spmv_speedup"] = geomean(k.speedup)
	}
	r.layer["kernel.gflops"] = geomean(k.gflops)
	r.layer["kernel.mul_ms"] = geomean(k.mulMs)
	r.layer["kernel.bytes_per_nnz"] = geomean(k.bytesPerNNZ)
	r.layer["kernel.gibps"] = geomean(k.gibps)
	r.layer["kernel.bw_frac"] = geomean(k.bwFrac)
}

// parallelStats times the pooled executor at nproc workers against one
// worker on each matrix and checks its output.
type parallelStats struct{ mulMs, speedup []float64 }

func (p *parallelStats) add(r *run, t *tuned, reps int) {
	workers := runtime.NumCPU()
	x := vector(t.m.Cols(), nameSeed(r.seed, t.name))
	y := make([]float64, t.m.Rows())
	var times [2]float64
	for i, w := range []int{1, workers} {
		pm := parallel.NewMul(t.inst, w, parallel.BalanceWeights)
		sp := r.tr.Begin("parallel", fmt.Sprintf("MulVec/%d", w), 0, 0)
		ts := make([]float64, reps)
		var err error
		for j := range ts {
			t0 := time.Now()
			if err = pm.MulVec(x, y); err != nil {
				break
			}
			ts[j] = seconds(t0)
		}
		sp.End()
		pm.Close()
		if err == nil {
			err = matches(y, t.ref.product(x))
		}
		r.check(fmt.Sprintf("parallel mul %s at %d workers", t.name, w), err)
		times[i] = median(ts)
	}
	p.mulMs = append(p.mulMs, times[1]*1e3)
	p.speedup = append(p.speedup, times[0]/times[1])
}

func (p *parallelStats) publish(r *run) {
	r.layer["parallel.mul_ms"] = geomean(p.mulMs)
	r.layer["parallel.speedup"] = geomean(p.speedup)
}
