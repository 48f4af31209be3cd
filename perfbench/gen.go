package main

import (
	"math/rand"

	"blockspmv/internal/mat"
	"blockspmv/internal/suite"
)

// The generators below build every input from the seed alone: the same
// seed gives bit-identical matrices and vectors. Sizes are fixed per
// workload so that a run's cost does not depend on the seed; the seed
// moves values, weights and scattered positions.

type coo = mat.COO[float64]
type entry = mat.Entry[float64]

// value is a nonzero matrix value in ±[0.1, 1).
func value(rng *rand.Rand) float64 {
	v := 0.1 + 0.9*rng.Float64()
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

// vector is a dense vector of n values in [-1, 1).
func vector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

// femCoupling is the 2x2 coupling between a node's two unknowns; it is
// symmetric positive definite (eigenvalues 0.75 and 1.25), so the
// Kronecker product with a weighted graph Laplacian stays SPD.
var femCoupling = [2][2]float64{{1, 0.25}, {0.25, 1}}

// fem2D is the implicit-time-step matrix of a 2-dof node-block FEM
// discretisation on a side x side grid: A = L_w (x) K + shift*I, where
// L_w is the 5-point graph Laplacian with edge weights in [0.9, 1.1)
// drawn from the seed and Dirichlet ghosts of weight 1, and K is
// femCoupling. Every node contributes five 2x2 blocks, rows come out in
// order, so the entry list is built without sorting.
func fem2D(side int, shift float64, seed int64) *coo {
	rng := rand.New(rand.NewSource(seed))
	nodes := side * side
	wh := make([]float64, nodes) // edge (i,j)-(i,j+1)
	wv := make([]float64, nodes) // edge (i,j)-(i+1,j)
	for u := range wh {
		wh[u] = 0.9 + 0.2*rng.Float64()
		wv[u] = 0.9 + 0.2*rng.Float64()
	}
	es := make([]entry, 0, 20*nodes)
	var nb [5]int
	var w [5]float64
	for u := 0; u < nodes; u++ {
		i, j := u/side, u%side
		k, diag := 0, 0.0
		add := func(v int, wt float64, ok bool) {
			if !ok {
				diag += 1 // Dirichlet ghost
				return
			}
			diag += wt
			nb[k], w[k] = v, -wt
			k++
		}
		add(u-side, weightAt(wv, u-side), i > 0)
		add(u-1, weightAt(wh, u-1), j > 0)
		self := k
		nb[k] = u
		k++
		add(u+1, weightAt(wh, u), j < side-1)
		add(u+side, weightAt(wv, u), i < side-1)
		w[self] = diag
		for a := 0; a < 2; a++ {
			for t := 0; t < k; t++ {
				for b := 0; b < 2; b++ {
					v := w[t] * femCoupling[a][b]
					if t == self && a == b {
						v += shift
					}
					es = append(es, entry{Row: int32(2*u + a), Col: int32(2*nb[t] + b), Val: v})
				}
			}
		}
	}
	return mat.FromEntries(2*nodes, 2*nodes, es)
}

// weightAt reads a weight, tolerating the out-of-range index the guarded
// neighbours never use.
func weightAt(ws []float64, i int) float64 {
	if i < 0 || i >= len(ws) {
		return 0
	}
	return ws[i]
}

// fem3 is a 3-dof node-block FEM matrix on a side^3 node grid: every
// node couples to itself and its six grid neighbours through dense 3x3
// blocks, 63 nonzeros per node. 3x3 blocks exceed the largest fixed
// BCSR shape, so the selector has to choose among split shapes, VBR and
// the diagonal formats.
func fem3(side int, seed int64) *coo {
	rng := rand.New(rand.NewSource(seed))
	nodes := side * side * side
	es := make([]entry, 0, 63*nodes)
	for u := 0; u < nodes; u++ {
		i, j, l := u/(side*side), (u/side)%side, u%side
		var nb []int
		if i > 0 {
			nb = append(nb, u-side*side)
		}
		if j > 0 {
			nb = append(nb, u-side)
		}
		if l > 0 {
			nb = append(nb, u-1)
		}
		nb = append(nb, u)
		if l < side-1 {
			nb = append(nb, u+1)
		}
		if j < side-1 {
			nb = append(nb, u+side)
		}
		if i < side-1 {
			nb = append(nb, u+side*side)
		}
		for a := 0; a < 3; a++ {
			for _, v := range nb {
				for b := 0; b < 3; b++ {
					es = append(es, entry{Row: int32(3*u + a), Col: int32(3*v + b), Val: value(rng)})
				}
			}
		}
	}
	return mat.FromEntries(3*nodes, 3*nodes, es)
}

// stencil3D is the 7-point stencil on a side^3 grid with one unknown per
// point: seven diagonals, no dense blocks.
func stencil3D(side int, seed int64) *coo {
	rng := rand.New(rand.NewSource(seed))
	n := side * side * side
	es := make([]entry, 0, 7*n)
	for u := 0; u < n; u++ {
		i, j, l := u/(side*side), (u/side)%side, u%side
		for _, d := range [...]struct {
			off int
			ok  bool
		}{
			{-side * side, i > 0}, {-side, j > 0}, {-1, l > 0}, {0, true},
			{1, l < side-1}, {side, j < side-1}, {side * side, i < side-1},
		} {
			if d.ok {
				es = append(es, entry{Row: int32(u), Col: int32(u + d.off), Val: value(rng)})
			}
		}
	}
	return mat.FromEntries(n, n, es)
}

// hubCircuit is a circuit-simulation matrix: a unit-ish diagonal, a few
// couplings per row to nearby nodes, one long-range coupling in eight
// rows, and hub nets (supply rails, ground) that a fixed share of rows
// reference and whose own rows touch many nodes.
func hubCircuit(n, hubs int, seed int64) *coo {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New[float64](n, n)
	hubCol := make([]int, hubs)
	for h := range hubCol {
		hubCol[h] = rng.Intn(n)
	}
	for r := 0; r < n; r++ {
		m.Add(int32(r), int32(r), 1+rng.Float64())
		for e := 1 + rng.Intn(4); e > 0; e-- {
			c := r + rng.Intn(64) - 32
			if c >= 0 && c < n {
				m.Add(int32(r), int32(c), value(rng))
			}
		}
		if rng.Intn(8) == 0 {
			m.Add(int32(r), int32(rng.Intn(n)), value(rng))
		}
		if rng.Intn(4) == 0 {
			m.Add(int32(r), int32(hubCol[rng.Intn(hubs)]), value(rng))
		}
	}
	for _, h := range hubCol {
		for e := 0; e < n/64; e++ {
			m.Add(int32(h), int32(rng.Intn(n)), value(rng))
		}
	}
	m.Finalize()
	return m
}

// randomSparse is an n x n matrix with a diagonal and perRow-1 uniformly
// placed off-diagonal entries per row: no exploitable structure.
func randomSparse(n, perRow int, seed int64) *coo {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New[float64](n, n)
	for r := 0; r < n; r++ {
		m.Add(int32(r), int32(r), 2+rng.Float64())
		for e := 1; e < perRow; e++ {
			m.Add(int32(r), int32(rng.Intn(n)), value(rng))
		}
	}
	m.Finalize()
	return m
}

// archetype is one tune-cache input.
type archetype struct {
	name string
	gen  func(seed int64) *coo
}

// tuneArchetypes are the in-cache matrices: five structures that lead
// the selector to different format families. Each working set sits far
// below the last-level cache and above one core's L2.
var tuneArchetypes = []archetype{
	{"fem3", func(s int64) *coo { return fem3(18, s) }},
	{"stencil3d", func(s int64) *coo { return stencil3D(38, s) }},
	{"circuit", func(s int64) *coo { return hubCircuit(80_000, 16, s) }},
	{"powerlaw", func(s int64) *coo { return suite.PowerLaw[float64](40_000, 10, 1.8, s) }},
	{"lp", func(s int64) *coo { return suite.LP[float64](25_000, 40_000, 16, s) }},
}
