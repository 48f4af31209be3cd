package blocks

import (
	"slices"

	"blockspmv/internal/mat"
)

// Count summarises how a fixed block shape tiles a sparsity pattern. All
// numbers are exact (not sampled estimates): the counting pass merges the
// column lists of each block row, which is cheap enough to run for every
// candidate shape.
type Count struct {
	Shape Shape

	// Blocks is the number of blocks the padded format (BCSR/BCSD) stores:
	// every aligned block position containing at least one nonzero.
	Blocks int64

	// Padding is the number of explicit zeros the padded format adds:
	// Blocks*Elems - NNZ.
	Padding int64

	// FullBlocks is the number of aligned block positions that are
	// completely dense, i.e. the blocks a decomposed format extracts
	// without padding.
	FullBlocks int64

	// RemainderNNZ is the number of nonzeros a decomposed format leaves in
	// the CSR remainder: NNZ - FullBlocks*Elems.
	RemainderNNZ int64
}

// CountRect counts aligned r x c blocks in the pattern. A block at block
// position (I, J) covers rows [I*r, I*r+r) and columns [J*c, J*c+c); edge
// blocks that overhang the matrix boundary are counted like any other
// (overhanging positions are padding and can never be part of a full
// block).
func CountRect(p *mat.Pattern, r, c int) Count {
	return CountShapes(p, []Shape{RectShape(r, c)})[0]
}

// CountDiag counts aligned diagonal blocks of length b. The matrix is split
// into row segments of height b; within segment s, the nonzero (row, col)
// lies on the diagonal block starting at (s*b, col-(row-s*b)). Start
// columns may be negative or overhang the right edge; such boundary blocks
// are stored clipped and can never be full.
func CountDiag(p *mat.Pattern, b int) Count {
	return CountShapes(p, []Shape{DiagShape(b)})[0]
}

// CountShapes counts every shape of shapes (rectangular shapes including
// the degenerate 1x1) and returns the counts in the same order. It panics
// with a *ShapeError on an unsupported shape. Like every reader of
// mat.Pattern, it relies on each row's columns being sorted and
// distinct.
//
// Shapes that share a kind and a height share one pass over the block
// rows: the block row's already-sorted pattern rows (for diagonal blocks,
// each shifted left by its offset within the segment) are merged pairwise
// into one sorted buffer, and each shape of the group then takes one
// linear scan of it. A rectangular scan jumps from a block's first
// column to the block's end, so it divides once per block, not once per
// nonzero.
func CountShapes(p *mat.Pattern, shapes []Shape) []Count {
	type group struct {
		kind Kind
		r    int
		idx  []int // positions in shapes
	}
	var groups []group
	for i, s := range shapes {
		if err := s.Check(); err != nil {
			panic(err)
		}
		g := slices.IndexFunc(groups, func(g group) bool { return g.kind == s.Kind && g.r == s.R })
		if g < 0 {
			groups = append(groups, group{kind: s.Kind, r: s.R})
			g = len(groups) - 1
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	out := make([]Count, len(shapes))
	for i, s := range shapes {
		out[i].Shape = s
	}
	var m merger
	for _, g := range groups {
		for r0 := 0; r0 < p.Rows; r0 += g.r {
			merged := m.merge(p, r0, min(r0+g.r, p.Rows), g.kind == Diag)
			for _, i := range g.idx {
				if g.kind == Diag {
					scanDiag(&out[i], merged, g.r)
				} else {
					scanRect(&out[i], merged, shapes[i].R, shapes[i].C)
				}
			}
		}
	}
	nnz := int64(p.NNZ())
	for i := range out {
		elems := int64(out[i].Shape.Elems())
		out[i].Padding = out[i].Blocks*elems - nnz
		out[i].RemainderNNZ = nnz - out[i].FullBlocks*elems
	}
	return out
}

// scanRect adds the r x c blocks of one merged block row to cnt. cols is
// sorted and holds each column once per pattern row that has it. Every
// entry of a block is a distinct position inside the matrix, so a block
// holding r*c entries is full: a block on a short bottom block row or
// overhanging the right edge cannot reach that count.
func scanRect(cnt *Count, cols []int32, r, c int) {
	elems := r * c
	for i := 0; i < len(cols); {
		end := (int(cols[i])/c + 1) * c // first column past this block
		j := i + 1
		for j < len(cols) && int(cols[j]) < end {
			j++
		}
		cnt.Blocks++
		if j-i == elems {
			cnt.FullBlocks++
		}
		i = j
	}
}

// scanDiag adds the length-b diagonal blocks of one merged segment to
// cnt. starts is sorted and holds, per nonzero, the start column of its
// diagonal block. As in scanRect, a block with b entries is full; a
// boundary block (short segment, start left of column 0, overhang past
// the right edge) always has fewer.
func scanDiag(cnt *Count, starts []int32, b int) {
	for i := 0; i < len(starts); {
		j := i + 1
		for j < len(starts) && starts[j] == starts[i] {
			j++
		}
		cnt.Blocks++
		if j-i == b {
			cnt.FullBlocks++
		}
		i = j
	}
}

// merger holds the reused buffers of CountShapes' per-block-row merge.
type merger struct {
	a, b []int32
	runs []int // run k is a[runs[k]:runs[k+1]]
}

// merge returns the column indices of pattern rows [r0, r1) as one sorted
// slice, duplicates kept. With shift, row r0+k contributes col-k: the
// start column of the diagonal block through each nonzero. The result
// aliases the pattern (one row, which needs no shift) or the merger's
// buffers (valid until the next call).
func (m *merger) merge(p *mat.Pattern, r0, r1 int, shift bool) []int32 {
	if r1-r0 == 1 {
		return p.RowCols(r0)
	}
	n := int(p.RowPtr[r1] - p.RowPtr[r0])
	if cap(m.a) < n {
		m.a, m.b = make([]int32, n), make([]int32, n)
	}
	m.a, m.b = m.a[:n], m.b[:n]
	// The first level merges row pairs straight out of the pattern,
	// applying the shift; later levels merge neighbouring runs pairwise,
	// ping-ponging between the buffers, until one run is left.
	m.runs = append(m.runs[:0], 0)
	for row := r0; row < r1; row += 2 {
		var dx, dy int32
		if shift {
			dx, dy = int32(row-r0), int32(row-r0+1)
		}
		x, y := p.RowCols(row), []int32(nil)
		if row+1 < r1 {
			y = p.RowCols(row + 1)
		}
		lo := m.runs[len(m.runs)-1]
		mergeShifted(m.a[lo:lo+len(x)+len(y)], x, y, dx, dy)
		m.runs = append(m.runs, lo+len(x)+len(y))
	}
	for len(m.runs) > 2 {
		w := 0
		for k := 0; k+1 < len(m.runs); k += 2 {
			lo, mid := m.runs[k], m.runs[k+1]
			hi := mid
			if k+2 < len(m.runs) {
				hi = m.runs[k+2]
			}
			mergeShifted(m.b[lo:hi], m.a[lo:mid], m.a[mid:hi], 0, 0)
			m.runs[w] = lo
			w++
		}
		m.runs[w] = n
		m.runs = m.runs[:w+1]
		m.a, m.b = m.b, m.a
	}
	return m.a
}

// mergeShifted merges the sorted slices x and y, shifted down by dx and
// dy, into dst, which has room for both.
func mergeShifted(dst, x, y []int32, dx, dy int32) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i]-dx, y[j]-dy
		if b < a {
			dst[k] = b
			j++
		} else {
			dst[k] = a
			i++
		}
		k++
	}
	for ; i < len(x); i, k = i+1, k+1 {
		dst[k] = x[i] - dx
	}
	for ; j < len(y); j, k = j+1, k+1 {
		dst[k] = y[j] - dy
	}
}

// CountVBL returns the number of variable-length horizontal blocks 1D-VBL
// forms: maximal runs of consecutive columns within a row, split into
// chunks of at most maxLen elements (the paper stores block sizes in one
// byte, so maxLen is 255 there).
func CountVBL(p *mat.Pattern, maxLen int) int64 {
	if maxLen < 1 {
		panic("blocks: CountVBL maxLen must be positive")
	}
	var blocks int64
	for r := 0; r < p.Rows; r++ {
		cols := p.RowCols(r)
		for i := 0; i < len(cols); {
			j := i + 1
			for j < len(cols) && cols[j] == cols[j-1]+1 {
				j++
			}
			runLen := j - i
			blocks += int64((runLen + maxLen - 1) / maxLen)
			i = j
		}
	}
	return blocks
}

// CountForShape counts one shape of either kind.
func CountForShape(p *mat.Pattern, s Shape) Count {
	return CountShapes(p, []Shape{s})[0]
}
