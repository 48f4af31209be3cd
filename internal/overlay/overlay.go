// Package overlay makes construct-once format instances mutable: a
// delta overlay wraps any formats.Instance together with the COO ground
// truth it was built from, holds a COO-style pending-update set (set /
// add / delete by coordinate), and applies those deltas during every
// multiply so results are bit-for-bit identical to a freshly
// constructed base+delta matrix.
//
// The overlay is the serving layer's answer to streaming workloads
// (incremental PageRank, online least-squares, live graphs): the
// expensive part of this library — format selection and construction —
// stays amortized across requests, while cheap point updates accumulate
// beside the tuned instance until a recompaction merges them into a new
// base and re-runs selection (the registry in internal/server owns that
// loop; this package only provides MergedCOO and the seal/drain
// handshake the hot-swap needs).
//
// # Multiply semantics
//
// The effective matrix is E[i,j] = delta[i,j] when a pending cell
// exists, else Base[i,j]; cells whose value is zero are structural
// deletes. Rows without pending cells are served by the base kernel
// untouched. A dirty row is recomputed from scratch: the retained COO
// row is merged with the row's pending cells in ascending column order
// and accumulated exactly as a freshly built row would be — every
// format family in this library accumulates a row's terms in ascending
// column order (padding contributes exact zeros), which is what makes
// the bit-for-bit contract hold across CSR, BCSR, SELL and VBR bases.
//
// # Accounting
//
// Following the discipline of the per-format byte accounting (Langr's
// memory-footprint analysis), the overlay's cost is exact and
// construction-free: ExtraBytes is the additional bytes streamed per
// multiply (re-read base rows plus the pending cells), MatrixBytes adds
// it to the base stream, and ResidentBytes adds the retained ground
// truth that recompaction needs.
//
// # Concurrency
//
// Point mutators and Apply take a write lock; every multiply holds a
// read lock, so concurrent MulRange calls on disjoint ranges proceed in
// parallel and never observe a half-applied update batch. Note that a
// multi-range multiply (the pooled executor) issues one MulRange per
// worker: to guarantee one *vector* result reflects a single update
// state, serialize updates against whole multiplies — the serving
// batcher does exactly that by running updates on the dispatch loop.
package overlay

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
)

// Op is the kind of one pending update.
type Op uint8

const (
	// OpSet makes the value at (row, col) exactly Val.
	OpSet Op = iota
	// OpAdd adds Val to the current effective value at (row, col).
	OpAdd
	// OpDelete removes the entry at (row, col); Val is ignored.
	OpDelete
)

// String names the op for errors and logs.
func (op Op) String() string {
	switch op {
	case OpSet:
		return "set"
	case OpAdd:
		return "add"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Update is one pending mutation in coordinate form, the unit the wire
// codec, the HTTP endpoint and Apply all speak.
type Update[T floats.Float] struct {
	Op       Op
	Row, Col int32
	Val      T
}

// RangeError reports an update whose coordinates fall outside the
// matrix. It is the typed form the HTTP layer maps to 400.
type RangeError struct {
	Rows, Cols int
	Row, Col   int32
}

// Error implements error.
func (e *RangeError) Error() string {
	return fmt.Sprintf("overlay: update (%d,%d) outside %dx%d matrix",
		e.Row, e.Col, e.Rows, e.Cols)
}

// OpRangeError reports an update carrying an op outside the defined
// set — the JSON and binary decoders guard this too, so it only
// surfaces for hand-built updates.
type OpRangeError struct {
	Op Op
}

// Error implements error.
func (e *OpRangeError) Error() string {
	return fmt.Sprintf("overlay: unknown update op %d", uint8(e.Op))
}

// ErrSealed marks an update applied to an overlay that has been sealed
// for a recompaction hot-swap: the delta set has been drained into the
// replacement entry, so accepting more here would lose them. Callers
// retry against the registry, which resolves the name to the new entry.
var ErrSealed = errors.New("overlay: sealed for recompaction swap")

// rowDelta is the pending cells of one dirty row, kept sorted by
// column.
type rowDelta[T floats.Float] struct {
	row  int32
	cols []int32
	vals []T
}

// state is the shared mutable core of an overlay; WithImpl instances
// alias it so every kernel-class view sees the same pending set.
type state[T floats.Float] struct {
	mu  sync.RWMutex
	coo *mat.COO[T] // retained ground truth, finalized, never mutated
	// rowptr indexes coo.Entries() per row: row i's base entries are
	// entries[rowptr[i]:rowptr[i+1]].
	rowptr []int32
	// dirty holds the rows with pending cells, sorted by row index.
	dirty []*rowDelta[T]

	pending    int64 // pending cells across all rows
	nnzDelta   int64 // effective NNZ minus base NNZ
	extraBytes int64 // extra bytes streamed per multiply (see ExtraBytes)
	sealed     bool

	// reverted records, from the last MergedCOO until the next
	// SealAndDrain (tracking set), every cell an update returned to base
	// and so dropped from the pending set. The merge may have captured
	// such a cell's earlier pending value, so the drain must replay it.
	tracking bool
	reverted [][2]int32
}

// Overlay wraps a format instance with a mutable delta set. It
// implements formats.Instance, so pools, batchers and the conformance
// suite treat it like any other format.
type Overlay[T floats.Float] struct {
	base formats.Instance[T]
	st   *state[T]
}

var _ formats.Instance[float64] = (*Overlay[float64])(nil)

// Wrap builds an overlay over inst and the finalized COO ground truth
// it was constructed from. It panics when the dimensions or nonzero
// counts disagree — an overlay whose ground truth does not describe its
// base cannot honour the bit-for-bit contract.
func Wrap[T floats.Float](inst formats.Instance[T], m *mat.COO[T]) *Overlay[T] {
	m.Finalize()
	if inst.Rows() != m.Rows() || inst.Cols() != m.Cols() || inst.NNZ() != int64(m.NNZ()) {
		panic(fmt.Sprintf("overlay: instance %s (%dx%d, nnz %d) does not match ground truth (%dx%d, nnz %d)",
			inst.Name(), inst.Rows(), inst.Cols(), inst.NNZ(), m.Rows(), m.Cols(), m.NNZ()))
	}
	st := &state[T]{coo: m, rowptr: buildRowPtr(m)}
	return &Overlay[T]{base: inst, st: st}
}

// buildRowPtr computes the per-row index ranges into the finalized
// entry slice.
func buildRowPtr[T floats.Float](m *mat.COO[T]) []int32 {
	ptr := make([]int32, m.Rows()+1)
	for _, e := range m.Entries() {
		ptr[e.Row+1]++
	}
	for i := 0; i < m.Rows(); i++ {
		ptr[i+1] += ptr[i]
	}
	return ptr
}

// Base returns the wrapped instance (the tuned construct-once format).
func (o *Overlay[T]) Base() formats.Instance[T] { return o.base }

// Name identifies the overlay and its base, e.g. "overlay[CSR/scalar]".
func (o *Overlay[T]) Name() string { return "overlay[" + o.base.Name() + "]" }

// Rows returns the number of rows.
func (o *Overlay[T]) Rows() int { return o.base.Rows() }

// Cols returns the number of columns.
func (o *Overlay[T]) Cols() int { return o.base.Cols() }

// NNZ is the effective nonzero count: the base count adjusted by
// pending inserts and deletes.
func (o *Overlay[T]) NNZ() int64 {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	return o.base.NNZ() + o.st.nnzDelta
}

// StoredScalars counts the base's stored scalars plus the pending
// cells the multiply additionally streams.
func (o *Overlay[T]) StoredScalars() int64 {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	return o.base.StoredScalars() + o.st.pending
}

// MatrixBytes is the bytes streamed per multiply: the base structures
// plus the overlay's extra traffic (ExtraBytes).
func (o *Overlay[T]) MatrixBytes() int64 {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	return o.base.MatrixBytes() + o.st.extraBytes
}

// ExtraBytes is the exact extra bytes one multiply streams because of
// the overlay: per dirty row, the row id, two row-pointer reads and the
// re-read base entries; per pending cell, its column index and value.
// It is maintained incrementally — construction-free, like every other
// format's accounting — and is the per-multiply "overlay hit cost" the
// serving metrics export.
func (o *Overlay[T]) ExtraBytes() int64 {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	return o.st.extraBytes
}

// ResidentBytes is what keeping the overlay in memory costs: the
// streamed structures plus the retained COO ground truth and the row
// pointer index that recompaction and dirty-row recomputes need.
func (o *Overlay[T]) ResidentBytes() int64 {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	entrySize := int64(8 + floats.SizeOf[T]())
	return o.base.MatrixBytes() + o.st.extraBytes +
		int64(o.st.coo.NNZ())*entrySize + int64(len(o.st.rowptr))*4
}

// Pending returns the number of pending cells (the "pending scalars"
// the recompaction threshold watches).
func (o *Overlay[T]) Pending() int64 {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	return o.st.pending
}

// DirtyRows returns the number of rows with at least one pending cell.
func (o *Overlay[T]) DirtyRows() int {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	return len(o.st.dirty)
}

// Components lists the base components plus one overlay component whose
// block count is the pending cells and whose bytes are the extra
// streamed traffic, keeping the sum equal to MatrixBytes.
func (o *Overlay[T]) Components() []formats.Component {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	base := o.base.Components()
	out := make([]formats.Component, 0, len(base)+1)
	out = append(out, base...)
	out = append(out, formats.Component{
		Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar,
		Blocks: o.st.pending, WSBytes: o.st.extraBytes,
	})
	return out
}

// RowAlign matches the base: dirty-row fixups are row-granular, so the
// base's range contract is the binding one.
func (o *Overlay[T]) RowAlign() int { return o.base.RowAlign() }

// RowWeights returns the base weights plus each row's pending-cell
// count, so the balanced partitioner also sees the overlay traffic.
func (o *Overlay[T]) RowWeights() []int64 {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	w := append([]int64(nil), o.base.RowWeights()...)
	for _, rd := range o.st.dirty {
		w[rd.row] += int64(len(rd.cols))
	}
	return w
}

// WithImpl returns an overlay over the base's impl variant sharing this
// overlay's pending set — both views stay in sync.
func (o *Overlay[T]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	return &Overlay[T]{base: o.base.WithImpl(impl), st: o.st}
}

// Mul computes y = E*x for the effective matrix. It panics on dimension
// mismatch, like every format's Mul.
func (o *Overlay[T]) Mul(x, y []T) {
	formats.CheckDims[T](o, x, y)
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	o.base.Mul(x, y)
	o.st.fix(x, y, 1, 0, o.base.Rows())
}

// MulRange accumulates E[r0:r1)*x into the zeroed y range: the base
// kernel runs untouched, then every dirty row in range is overwritten
// with its merged recompute.
func (o *Overlay[T]) MulRange(x, y []T, r0, r1 int) {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	o.base.MulRange(x, y, r0, r1)
	o.st.fix(x, y, 1, r0, r1)
}

// MulRangeMulti is the k-wide panel form of MulRange; per panel column
// the merged recompute runs in exactly the MulRange order, preserving
// the bit-for-bit panel contract.
func (o *Overlay[T]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	o.st.mu.RLock()
	defer o.st.mu.RUnlock()
	o.base.MulRangeMulti(x, y, k, r0, r1)
	if k > 0 {
		o.st.fix(x, y, k, r0, r1)
	}
}

// fix overwrites every dirty row in [r0, r1) with its merged
// recompute over the k-wide panel (k = 1 for the vector paths). The
// caller holds at least a read lock. Zero allocations: the walk uses
// only the retained structures.
func (st *state[T]) fix(x, y []T, k, r0, r1 int) {
	if len(st.dirty) == 0 {
		return
	}
	lo := sort.Search(len(st.dirty), func(i int) bool { return int(st.dirty[i].row) >= r0 })
	for _, rd := range st.dirty[lo:] {
		i := int(rd.row)
		if i >= r1 {
			return
		}
		es := st.coo.Entries()[st.rowptr[i]:st.rowptr[i+1]]
		// Per panel column, accumulate the merged row in ascending
		// column order — the order a freshly constructed row uses.
		for l := 0; l < k; l++ {
			var acc T
			p, q := 0, 0
			for p < len(es) || q < len(rd.cols) {
				if q >= len(rd.cols) || (p < len(es) && es[p].Col < rd.cols[q]) {
					acc += es[p].Val * x[int(es[p].Col)*k+l]
					p++
					continue
				}
				c, v := rd.cols[q], rd.vals[q]
				if p < len(es) && es[p].Col == c {
					p++ // base entry overridden by the pending cell
				}
				if v != 0 {
					acc += v * x[int(c)*k+l]
				}
				q++
			}
			y[i*k+l] = acc
		}
	}
}

// Set makes the value at (row, col) exactly v.
func (o *Overlay[T]) Set(row, col int32, v T) error {
	return o.Apply([]Update[T]{{Op: OpSet, Row: row, Col: col, Val: v}})
}

// Add adds v to the effective value at (row, col).
func (o *Overlay[T]) Add(row, col int32, v T) error {
	return o.Apply([]Update[T]{{Op: OpAdd, Row: row, Col: col, Val: v}})
}

// Delete removes the entry at (row, col); deleting an absent entry is a
// no-op.
func (o *Overlay[T]) Delete(row, col int32) error {
	return o.Apply([]Update[T]{{Op: OpDelete, Row: row, Col: col}})
}

// Apply validates then applies a batch of updates atomically with
// respect to concurrent multiplies: validation failures (*RangeError,
// *OpRangeError) reject the whole batch before any cell changes, and a
// sealed overlay fails with ErrSealed so the caller retries against the
// recompacted replacement.
func (o *Overlay[T]) Apply(ups []Update[T]) error {
	rows, cols := o.base.Rows(), o.base.Cols()
	for i := range ups {
		u := &ups[i]
		if u.Op > OpDelete {
			return &OpRangeError{Op: u.Op}
		}
		if u.Row < 0 || int(u.Row) >= rows || u.Col < 0 || int(u.Col) >= cols {
			return &RangeError{Rows: rows, Cols: cols, Row: u.Row, Col: u.Col}
		}
	}
	st := o.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sealed {
		return ErrSealed
	}
	for _, u := range ups {
		v := u.Val
		switch u.Op {
		case OpDelete:
			v = 0
		case OpAdd:
			v += st.effective(u.Row, u.Col)
		}
		st.setCell(u.Row, u.Col, v)
	}
	return nil
}

// effective returns the current effective value at (row, col): the
// pending cell when present, else the base entry, else zero. Caller
// holds the lock.
func (st *state[T]) effective(row, col int32) T {
	if rd := st.findRow(row); rd != nil {
		if q, ok := findCol(rd.cols, col); ok {
			return rd.vals[q]
		}
	}
	v, _ := st.baseValue(row, col)
	return v
}

// baseValue looks the coordinate up in the retained ground truth.
func (st *state[T]) baseValue(row, col int32) (T, bool) {
	es := st.coo.Entries()[st.rowptr[row]:st.rowptr[row+1]]
	q := sort.Search(len(es), func(i int) bool { return es[i].Col >= col })
	if q < len(es) && es[q].Col == col {
		return es[q].Val, true
	}
	var zero T
	return zero, false
}

// cellContrib is a pending cell's contribution to the effective NNZ
// relative to the base: +1 for an insert, -1 for a delete, 0 for a
// value replacement.
func cellContrib[T floats.Float](v T, baseHas bool) int64 {
	var d int64
	if v != 0 {
		d++
	}
	if baseHas {
		d--
	}
	return d
}

// setCell installs, overwrites or removes the pending cell at
// (row, col) for the final value v, keeping pending, nnzDelta and
// extraBytes exact. A value equal to the base entry (or zero where the
// base has none) returns the coordinate to base state and drops the
// cell — repeated idempotent replays, as the hot-swap performs, leave
// no residue. Caller holds the write lock.
func (st *state[T]) setCell(row, col int32, v T) {
	baseVal, baseHas := st.baseValue(row, col)
	backToBase := (baseHas && v == baseVal) || (!baseHas && v == 0)
	rd := st.findRow(row)
	var q int
	var exists bool
	if rd != nil {
		q, exists = findCol(rd.cols, col)
	}
	cellBytes := int64(4 + floats.SizeOf[T]())
	switch {
	case backToBase && exists:
		if st.tracking {
			st.reverted = append(st.reverted, [2]int32{row, col})
		}
		st.nnzDelta -= cellContrib(rd.vals[q], baseHas)
		rd.cols = append(rd.cols[:q], rd.cols[q+1:]...)
		rd.vals = append(rd.vals[:q], rd.vals[q+1:]...)
		st.pending--
		st.extraBytes -= cellBytes
		if len(rd.cols) == 0 {
			st.removeRow(row)
		}
	case backToBase:
		// No pending cell and nothing to record: a no-op update.
	case exists:
		st.nnzDelta += cellContrib(v, baseHas) - cellContrib(rd.vals[q], baseHas)
		rd.vals[q] = v
	default:
		if rd == nil {
			rd = st.insertRow(row)
		}
		rd.cols = append(rd.cols, 0)
		rd.vals = append(rd.vals, 0)
		copy(rd.cols[q+1:], rd.cols[q:])
		copy(rd.vals[q+1:], rd.vals[q:])
		rd.cols[q], rd.vals[q] = col, v
		st.pending++
		st.nnzDelta += cellContrib(v, baseHas)
		st.extraBytes += cellBytes
	}
}

// findRow returns the dirty-row record for row, or nil.
func (st *state[T]) findRow(row int32) *rowDelta[T] {
	i := sort.Search(len(st.dirty), func(i int) bool { return st.dirty[i].row >= row })
	if i < len(st.dirty) && st.dirty[i].row == row {
		return st.dirty[i]
	}
	return nil
}

// findCol locates col in the sorted cols slice, returning the insert
// position and whether it is present.
func findCol(cols []int32, col int32) (int, bool) {
	q := sort.Search(len(cols), func(i int) bool { return cols[i] >= col })
	return q, q < len(cols) && cols[q] == col
}

// insertRow links a fresh dirty-row record in sorted position and
// charges its fixed recompute cost: row id, two row-pointer reads and
// the re-streamed base entries.
func (st *state[T]) insertRow(row int32) *rowDelta[T] {
	i := sort.Search(len(st.dirty), func(i int) bool { return st.dirty[i].row >= row })
	rd := &rowDelta[T]{row: row}
	st.dirty = append(st.dirty, nil)
	copy(st.dirty[i+1:], st.dirty[i:])
	st.dirty[i] = rd
	st.extraBytes += st.dirtyRowBytes(row)
	return rd
}

// removeRow unlinks an emptied dirty-row record and refunds its cost.
func (st *state[T]) removeRow(row int32) {
	i := sort.Search(len(st.dirty), func(i int) bool { return st.dirty[i].row >= row })
	st.dirty = append(st.dirty[:i], st.dirty[i+1:]...)
	st.extraBytes -= st.dirtyRowBytes(row)
}

// dirtyRowBytes is the per-multiply cost of one dirty row beyond its
// pending cells: 4 bytes of row id, 8 bytes of row pointers, and the
// base row re-streamed from the ground truth.
func (st *state[T]) dirtyRowBytes(row int32) int64 {
	entrySize := int64(8 + floats.SizeOf[T]())
	return 12 + int64(st.rowptr[row+1]-st.rowptr[row])*entrySize
}

// MergedCOO returns a freshly assembled, finalized COO of the effective
// matrix — the recompaction input. The effective matrix is unchanged;
// from this call on the overlay remembers the cells updates return to
// base, so the next SealAndDrain can report them.
func (o *Overlay[T]) MergedCOO() *mat.COO[T] {
	st := o.st
	// Tracking starts before the snapshot, so every update after the
	// snapshot is tracked; one landing in between is tracked and also
	// captured, which the idempotent replay tolerates.
	st.mu.Lock()
	st.tracking, st.reverted = true, st.reverted[:0]
	st.mu.Unlock()
	st.mu.RLock()
	defer st.mu.RUnlock()
	es := st.coo.Entries()
	out := make([]mat.Entry[T], 0, len(es)+int(st.nnzDelta))
	d := 0 // next dirty row
	for i := 0; i < o.base.Rows(); i++ {
		row := es[st.rowptr[i]:st.rowptr[i+1]]
		if d >= len(st.dirty) || int(st.dirty[d].row) != i {
			out = append(out, row...)
			continue
		}
		rd := st.dirty[d]
		d++
		p, q := 0, 0
		for p < len(row) || q < len(rd.cols) {
			if q >= len(rd.cols) || (p < len(row) && row[p].Col < rd.cols[q]) {
				out = append(out, row[p])
				p++
				continue
			}
			c, v := rd.cols[q], rd.vals[q]
			if p < len(row) && row[p].Col == c {
				p++
			}
			if v != 0 {
				out = append(out, mat.Entry[T]{Row: int32(i), Col: c, Val: v})
			}
			q++
		}
	}
	return mat.FromEntries(o.base.Rows(), o.base.Cols(), out)
}

// SealAndDrain seals the overlay against further updates and returns,
// as idempotent OpSet updates (deletes as zero-valued sets), every cell
// whose effective value may differ from the last MergedCOO snapshot:
// each pending cell, plus each cell an update returned to base since
// the snapshot, set to its base value. Without the latter, a delete of
// a cell the snapshot captured as an insert would be lost. The pending
// set itself is retained so in-flight reads keep seeing the full
// effective matrix; the recompaction swap replays the drained set onto
// the replacement overlay, where cells the new base already absorbed
// vanish as no-ops.
func (o *Overlay[T]) SealAndDrain() []Update[T] {
	st := o.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sealed = true
	out := make([]Update[T], 0, st.pending)
	for _, rd := range st.dirty {
		for q, c := range rd.cols {
			out = append(out, Update[T]{Op: OpSet, Row: rd.row, Col: c, Val: rd.vals[q]})
		}
	}
	slices.SortFunc(st.reverted, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, rc := range slices.Compact(st.reverted) {
		if rd := st.findRow(rc[0]); rd != nil {
			if _, ok := findCol(rd.cols, rc[1]); ok {
				continue // pending again: drained above
			}
		}
		v, _ := st.baseValue(rc[0], rc[1])
		out = append(out, Update[T]{Op: OpSet, Row: rc[0], Col: rc[1], Val: v})
	}
	st.tracking, st.reverted = false, nil
	return out
}

// Unseal reopens a sealed overlay for updates — the recompaction
// abandon path uses it when the swap cannot be installed, so the live
// entry does not stay wedged.
func (o *Overlay[T]) Unseal() {
	o.st.mu.Lock()
	o.st.sealed = false
	o.st.mu.Unlock()
}
