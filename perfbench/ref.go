package main

import (
	"fmt"
	"math"
)

// refCSR is the scalar-CSR oracle every output is checked against: row
// pointers over the finalized COO entries, which are already in row
// order. It shares no code with the library's formats.
type refCSR struct {
	rows, cols int
	rowPtr     []int
	es         []entry
}

func newRef(m *coo) *refCSR {
	r := &refCSR{rows: m.Rows(), cols: m.Cols(), rowPtr: make([]int, m.Rows()+1), es: m.Entries()}
	for _, e := range r.es {
		r.rowPtr[e.Row+1]++
	}
	for i := 0; i < r.rows; i++ {
		r.rowPtr[i+1] += r.rowPtr[i]
	}
	return r
}

// mul computes y = A*x row by row in entry order.
func (r *refCSR) mul(x, y []float64) {
	for i := 0; i < r.rows; i++ {
		s := 0.0
		for _, e := range r.es[r.rowPtr[i]:r.rowPtr[i+1]] {
			s += e.Val * x[e.Col]
		}
		y[i] = s
	}
}

// product allocates and returns A*x.
func (r *refCSR) product(x []float64) []float64 {
	y := make([]float64, r.rows)
	r.mul(x, y)
	return y
}

// relTol bounds the element-wise difference between a kernel's output
// and the reference: formats sum a row's products in other orders, and
// values and inputs here are O(1), so rounding differs far below it.
const relTol = 1e-9

// matches reports whether y equals want element by element within
// relTol, and describes the first mismatch otherwise.
func matches(y, want []float64) error {
	if len(y) != len(want) {
		return fmt.Errorf("length %d, want %d", len(y), len(want))
	}
	for i := range y {
		if d := math.Abs(y[i] - want[i]); !(d <= relTol*(1+math.Abs(want[i]))) {
			return fmt.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	return nil
}

// residual is ||b - A*x|| / ||b|| computed on the reference.
func (r *refCSR) residual(b, x []float64) float64 {
	ax := r.product(x)
	num, den := 0.0, 0.0
	for i := range b {
		d := b[i] - ax[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		den = 1
	}
	return math.Sqrt(num / den)
}
