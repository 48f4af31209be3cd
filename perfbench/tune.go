package main

import (
	"fmt"
	"time"

	"blockspmv/internal/formats"
)

// tune-cache: five in-cache matrices of different structure, each
// autotuned, then timed over a fixed count of single-thread multiplies
// per round until the run's seconds are spent.
const (
	tuneCalls    = 40 // multiplies per matrix per round
	tuneRefCalls = 8  // reference multiplies per matrix per round
)

func tuneCache(r *run) error {
	t0 := time.Now()
	ms := make([]*coo, len(tuneArchetypes))
	for i, a := range tuneArchetypes {
		ms[i] = a.gen(nameSeed(r.seed, a.name))
	}
	r.note("generate_s", seconds(t0))

	// Set-up is the five autotunes, summed.
	var ts []*tuned
	setup := 0.0
	for i, a := range tuneArchetypes {
		t, err := r.tune(a.name, ms[i], 1)
		if err != nil {
			return err
		}
		setup += t.setup
		ts = append(ts, t)
	}
	r.e2e["setup_s"] = setup
	for _, t := range ts {
		if ws := formats.WorkingSetBytes(t.inst); ws > r.cal.Machine.LLCBytes {
			r.check("in-cache working set "+t.name, fmt.Errorf("%d bytes exceed the LLC", ws))
		}
		r.checkMul(t)
	}

	// Rounds of tuneCalls multiplies per matrix. A traced run alternates
	// traced and untraced rounds so the two can be compared.
	xs := make([][]float64, len(ts))
	ys := make([][]float64, len(ts))
	for i, t := range ts {
		xs[i] = vector(t.m.Cols(), nameSeed(r.seed, t.name))
		ys[i] = make([]float64, t.m.Rows())
	}
	perMat := make([][]float64, len(ts))
	refs := make([][]float64, len(ts))
	var all []float64
	var roundWall [2][]float64 // untraced, traced
	start := time.Now()
	end := r.deadline(start)
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		on := r.trace && round%2 == 1
		r0 := time.Now()
		for i, t := range ts {
			for c := 0; c < tuneCalls; c++ {
				var sp Open
				if on {
					sp = r.tr.Begin("kernel", "Mul/"+t.name, 0, 0)
				}
				c0 := time.Now()
				t.inst.Mul(xs[i], ys[i])
				d := seconds(c0)
				sp.End()
				perMat[i] = append(perMat[i], d)
				all = append(all, d*1e3)
			}
			refs[i] = append(refs[i], timeRef(t.ref, xs[i], make([]float64, t.m.Rows()), tuneRefCalls)...)
		}
		roundWall[btoi(on)] = append(roundWall[btoi(on)], seconds(r0))
	}
	if r.trace && len(roundWall[1]) > 0 {
		r.layer["bench.trace_overhead_pct"] = (median(roundWall[1])/median(roundWall[0]) - 1) * 100
	}
	r.note("rounds", map[string]any{"samples": len(all), "calls_per_matrix_per_round": tuneCalls})
	var ks kernelStats
	var ps parallelStats
	for i, t := range ts {
		r.check("timed mul "+t.name, matches(ys[i], t.ref.product(xs[i])))
		mul := median(perMat[i])
		ks.add(r, t, mul, median(refs[i]))
		r.layer["kernel.mul_ms."+t.name] = mul * 1e3
		if r.trace {
			ps.add(r, t, 20)
		}
	}
	ks.publish(r)
	if r.trace {
		ps.publish(r)
	}
	p99, q, windows := windowedTail(all)
	r.e2e["p50_ms"] = percentile(all, 0.5)
	r.layer["bench.p99_ms"] = p99
	r.note("tail", map[string]any{"percentile": q, "windows": windows})
	return nil
}
