package core_test

import (
	"reflect"
	"testing"

	"blockspmv/internal/core"
	"blockspmv/internal/mat"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// TestEnumerateStatsAllMatchesStatsFor checks that the shared passes of
// EnumerateStatsAll (one block count per shape, one partition per
// method, one layout per SELL slice shape) price every candidate exactly
// as a standalone StatsFor does.
func TestEnumerateStatsAllMatchesStatsFor(t *testing.T) {
	pats := map[string]*mat.Pattern{
		"random":    mat.PatternOf(testmat.Random[float64](37, 29, 0.15, 3)),
		"fem 2-dof": femPattern(9, 2),
		"fem 3-dof": femPattern(7, 3),
	}
	for _, id := range []int{3, 18, 23, 24} { // dense, banded tiles, stencil, FEM
		info, err := suite.InfoByID(id)
		if err != nil {
			t.Fatal(err)
		}
		pats[info.Name] = mat.PatternOf(suite.MustBuild[float64](id, suite.Tiny))
	}
	for name, p := range pats {
		for _, valSize := range []int{4, 8} {
			all := core.EnumerateStatsAll(p, valSize)
			for i, cs := range all {
				if want := core.StatsFor(p, cs.Cand, valSize); !reflect.DeepEqual(cs, want) {
					t.Errorf("%s, %d-byte values, candidate %d (%v): EnumerateStatsAll = %+v, StatsFor = %+v",
						name, valSize, i, cs.Cand, cs, want)
				}
			}
			base := core.EnumerateStats(p, valSize)
			if !reflect.DeepEqual(base, all[:len(base)]) {
				t.Errorf("%s, %d-byte values: EnumerateStats is not a prefix of EnumerateStatsAll", name, valSize)
			}
		}
	}
}

// femPattern is the pattern of a dof-per-node FEM matrix on a side x
// side grid with 5-point node coupling: every node couples all its dof
// unknowns to all dof unknowns of itself and its four neighbours, so the
// pattern is made of dense dof x dof blocks. Rows come out sorted.
func femPattern(side, dof int) *mat.Pattern {
	nodes := side * side
	p := &mat.Pattern{Rows: nodes * dof, Cols: nodes * dof, RowPtr: make([]int32, 1, nodes*dof+1)}
	nb := make([]int, 0, 5)
	for u := 0; u < nodes; u++ {
		i, j := u/side, u%side
		nb = nb[:0]
		if i > 0 {
			nb = append(nb, u-side)
		}
		if j > 0 {
			nb = append(nb, u-1)
		}
		nb = append(nb, u)
		if j < side-1 {
			nb = append(nb, u+1)
		}
		if i < side-1 {
			nb = append(nb, u+side)
		}
		for a := 0; a < dof; a++ {
			for _, v := range nb {
				for b := 0; b < dof; b++ {
					p.ColInd = append(p.ColInd, int32(v*dof+b))
				}
			}
			p.RowPtr = append(p.RowPtr, int32(len(p.ColInd)))
		}
	}
	return p
}

// BenchmarkEnumerateStatsAll prices the full candidate space of a 2-dof
// FEM pattern with about 2M nonzeros (the structure of the DRAM solve
// workload, at 1/20 of its size) and reports the cost per nonzero.
func BenchmarkEnumerateStatsAll(b *testing.B) {
	p := femPattern(320, 2)
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	n := 0
	for b.Loop() {
		core.EnumerateStatsAll(p, 8)
		n++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n)/float64(p.NNZ()), "ns/nnz")
}
