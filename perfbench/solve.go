package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"blockspmv"
)

// solve-dram: one implicit time step of a 2-dof FEM problem too large
// for the LLC, solved by CG to 1e-8 on one worker. The side and shift
// are fixed: at 1440 nodes a side the picked format streams at least
// four times a 105 MiB LLC, and the shift holds CG between 100 and 300
// iterations at every seed.
const (
	dramSide  = 1440
	dramShift = 0.06
	cgTol     = 1e-8
)

func solveDRAM(r *run) error {
	// The set-up allocates and drops gigabytes; at the default GOGC the
	// peak resident set swings by a quarter with where the collector
	// happens to run. A tight collector makes it track the live set.
	debug.SetGCPercent(25)
	t0 := time.Now()
	m := fem2D(dramSide, dramShift, r.seed)
	b := vector(m.Rows(), nameSeed(r.seed, "rhs"))
	r.note("generate_s", seconds(t0))

	t, err := r.tune("fem2d", m, 1)
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = t.setup
	ws := blockspmv.WorkingSetBytes(t.inst)
	r.note("dram_regime", map[string]any{
		"working_set_bytes": ws, "llc_bytes": r.cal.Machine.LLCBytes,
		"at_least_4x_llc": ws >= 4*r.cal.Machine.LLCBytes,
	})

	// The measured phase: CG solves until the run's seconds are spent,
	// at least one. The traced run also solves once untraced first, for
	// the tracing overhead.
	var solves []solveResult
	if r.trace {
		traced := r.tr
		r.tr = newTracer(false)
		base := r.solveOnce(t, b)
		r.tr = traced
		on := r.solveOnce(t, b)
		r.layer["bench.trace_overhead_pct"] = (on.wall/base.wall - 1) * 100
		solves = append(solves, on)
	} else {
		start := time.Now()
		end := r.deadline(start)
		for len(solves) == 0 || time.Now().Add(time.Duration(solves[0].wall*float64(time.Second))).Before(end) {
			solves = append(solves, r.solveOnce(t, b))
		}
	}
	var iterMs, walls []float64
	for _, s := range solves {
		iterMs = append(iterMs, s.iterMs...)
		walls = append(walls, s.wall)
	}
	p99, q := tail(iterMs)
	r.e2e["p50_ms"] = percentile(iterMs, 0.5)
	r.layer["bench.p99_ms"] = p99
	last := solves[len(solves)-1]
	r.layer["solver.solve_s"] = median(walls)
	r.layer["solver.iters"] = float64(last.iters)
	r.note("solve", map[string]any{
		"solves": len(solves), "iterations": last.iters, "residual_true": last.residual,
		"solve_s": walls, "iteration_samples": len(iterMs), "tail_percentile": q,
	})
	if r.trace {
		kern := r.tr.Total("kernel", "Mul")
		r.layer["solver.mul_share"] = kern / last.wall
		r.layer["solver.vecops_s"] = last.wall - kern
	}

	// The kernel alone, single thread, then the pooled executor.
	var ks kernelStats
	x := vector(m.Cols(), nameSeed(r.seed, "x"))
	y := make([]float64, m.Rows())
	r.checkMul(t)
	var pick, ref []float64
	for i := 0; i < 10; i++ {
		pick = append(pick, timeMuls(t.inst, x, y, 1)...)
		ref = append(ref, timeRef(t.ref, x, y, 1)...)
	}
	ks.add(r, t, median(pick), median(ref))
	ks.publish(r)
	if r.trace {
		var ps parallelStats
		ps.add(r, t, 5)
		ps.publish(r)
	}
	return nil
}

type solveResult struct {
	wall     float64
	iters    int
	residual float64
	iterMs   []float64
}

// solveOnce runs CG from a zero guess and checks the answer by the true
// residual on the reference.
func (r *run) solveOnce(t *tuned, b []float64) solveResult {
	w := &timedInstance{instance: t.inst, tr: r.tr}
	x := make([]float64, len(b))
	sp := r.tr.Begin("solver", "SolveCG", 0, 0)
	w.parent = sp.ID()
	t0 := time.Now()
	st, err := blockspmv.SolveCG[float64](w, b, x, blockspmv.SolverOptions{Tol: cgTol, Workers: 1})
	res := solveResult{wall: seconds(t0), iters: st.Iterations}
	sp.End()
	if err == nil {
		if res.residual = t.ref.residual(b, x); !(res.residual <= cgTol) {
			err = fmt.Errorf("true residual %.3g above %.0g", res.residual, cgTol)
		}
	}
	r.check("cg solve", err)
	// One CG iteration runs from one multiply's start to the next.
	for i := 1; i < len(w.starts); i++ {
		res.iterMs = append(res.iterMs, w.starts[i].Sub(w.starts[i-1]).Seconds()*1e3)
	}
	return res
}

// timedInstance forwards a format to the solver and records when each
// multiply starts, plus a kernel span per multiply when tracing.
type timedInstance struct {
	instance
	tr     *Tracer
	parent int64
	mu     sync.Mutex
	starts []time.Time
}

func (w *timedInstance) stamp() Open {
	w.mu.Lock()
	w.starts = append(w.starts, time.Now())
	w.mu.Unlock()
	return w.tr.Begin("kernel", "Mul", w.parent, 0)
}

func (w *timedInstance) Mul(x, y []float64) {
	sp := w.stamp()
	w.instance.Mul(x, y)
	sp.End()
}

func (w *timedInstance) MulRange(x, y []float64, r0, r1 int) {
	sp := w.stamp()
	w.instance.MulRange(x, y, r0, r1)
	sp.End()
}
