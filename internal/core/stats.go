package core

import (
	"fmt"
	"slices"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/floats"
	"blockspmv/internal/mat"
	"blockspmv/internal/partition"
	"blockspmv/internal/sell"
)

// ComponentStats describes one decomposition component of a candidate for
// the models: its shape and implementation, the block count nb_i of
// equations (2)-(3), the matrix bytes ws_i streamed per multiply, and the
// kernel variant (plain explicit-index or the CSR-DU delta decoder) whose
// profiled block time prices the computational term.
type ComponentStats struct {
	Shape   blocks.Shape
	Impl    blocks.Impl
	Blocks  int64
	WSBytes int64
	Variant blocks.Variant
}

// CandidateStats is everything the models need to price a candidate on a
// specific matrix, computed exactly from the sparsity pattern without
// constructing the format.
type CandidateStats struct {
	Cand       Candidate
	Rows, Cols int
	NNZ        int64
	// Components has one entry per submatrix of the decomposition
	// (exactly one for the non-decomposed methods).
	Components []ComponentStats
	// VectorBytes is the traffic of the input and output vectors for a
	// single pass over the matrix: (rows+cols)*valSize.
	VectorBytes int64
	// Padding is the number of explicit stored zeros of the candidate.
	Padding int64
	// RHS is the panel width the prediction is for: the number of
	// right-hand-side vectors multiplied in one pass (SpMM). 0 and 1 both
	// mean the single-vector SpMV. For RHS = k > 1 the models charge the
	// matrix stream once but the vector streams and the computational
	// term k times, pricing the multi-RHS amortization; the predicted
	// seconds then cover the whole k-wide panel, not one vector.
	RHS int
	// IrregularAccesses is the matrix's likely-missing input-vector access
	// count (mat.Pattern.IrregularAccesses with IrregularGap); it is a
	// property of the matrix, identical across candidates, consumed only
	// by the OVERLAP+LAT extension model.
	IrregularAccesses int64
}

// rhs returns the effective panel width: RHS clamped below at 1.
func (cs CandidateStats) rhs() int64 {
	if cs.RHS > 1 {
		return int64(cs.RHS)
	}
	return 1
}

// WithRHS returns a copy of the stats slice with every candidate's RHS
// set to k, the panel width the models should price (see
// CandidateStats.RHS).
func WithRHS(stats []CandidateStats, k int) []CandidateStats {
	out := make([]CandidateStats, len(stats))
	for i, cs := range stats {
		cs.RHS = k
		out[i] = cs
	}
	return out
}

// MatrixBytes returns the summed matrix bytes of all components.
func (cs CandidateStats) MatrixBytes() int64 {
	var b int64
	for _, c := range cs.Components {
		b += c.WSBytes
	}
	return b
}

// csrBytes is the canonical CSR size: nnz values + nnz idxSize-byte
// column indices + (rows+1) 4-byte row pointers (row pointers count
// nonzeros, not columns, so they never narrow).
func csrBytes(rows int, nnz int64, valSize, idxSize int) int64 {
	return nnz*int64(valSize+idxSize) + int64(rows+1)*4
}

// blockedBytes is the canonical fixed-size blocked storage: nb blocks of
// elems values + nb idxSize-byte block column indices + (blockRows+1)
// 4-byte block row pointers.
func blockedBytes(blockRows int, nb int64, elems, valSize, idxSize int) int64 {
	return nb*int64(elems*valSize+idxSize) + int64(blockRows+1)*4
}

// duBytes is the canonical CSR-DU size: nnz values + the encoded delta
// stream + two (rows+1) 4-byte pointer arrays (value offsets and stream
// byte offsets).
func duBytes(rows int, nnz, streamBytes int64, valSize int) int64 {
	return nnz*int64(valSize) + streamBytes + int64(rows+1)*8
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// StatsFor computes the model inputs for one candidate from a sparsity
// pattern. valSize is the element size in bytes (4 or 8). The per-shape
// block counting is exact; see blocks.CountShapes. CSR-DU
// candidates additionally walk the pattern once to size the encoded
// delta stream exactly (csrdu.StreamBytes).
func StatsFor(p *mat.Pattern, c Candidate, valSize int) CandidateStats {
	switch c.Method {
	case CSRDU:
		return duStats(p, c, valSize, csrdu.StreamBytes(p), p.IrregularAccesses(IrregularGap))
	case VBR, VBL:
		return partitionedStats(p, c, valSize, partitionStats(p, c, valSize), p.IrregularAccesses(IrregularGap))
	case SELL:
		return sellStats(p, c, valSize, sell.LayoutOf(p, c.Chunk, c.Sigma), p.IrregularAccesses(IrregularGap))
	}
	cnt := blocks.CountForShape(p, c.Shape)
	return statsFromCount(p, c, valSize, cnt, p.IrregularAccesses(IrregularGap))
}

// partitionStats prices the partition a variable-block candidate implies,
// construction-free (internal/partition).
func partitionStats(p *mat.Pattern, c Candidate, valSize int) partition.Stats {
	switch {
	case c.Method == VBL:
		return partition.VBLStats(p, valSize, c.Part == PartDP)
	case c.Part == PartDP:
		st, err := partition.VBRStats(p, partition.AggregateVBR(p, valSize), valSize)
		if err != nil {
			panic("core: " + err.Error())
		}
		return st
	default:
		st, err := partition.VBRStats(p, partition.Identity(p), valSize)
		if err != nil {
			panic("core: " + err.Error())
		}
		return st
	}
}

// partitionedStats assembles CandidateStats for a variable-block
// candidate from a precomputed partition pricing, so EnumerateStatsAll
// can share one partitioning pass between the scalar and simd
// candidates. Like CSR, the component is the degenerate 1x1 shape; nb is
// the stored scalar count (the per-scalar normalization the profiling
// layer uses for the vbr/vbl kernel variants) and the stored zero fill
// of a DP partition is reported as Padding.
func partitionedStats(p *mat.Pattern, c Candidate, valSize int, st partition.Stats, irregular int64) CandidateStats {
	nnz := int64(p.NNZ())
	variant := blocks.VBR
	if c.Method == VBL {
		variant = blocks.VBL
	}
	return CandidateStats{
		Cand: c, Rows: p.Rows, Cols: p.Cols, NNZ: nnz,
		VectorBytes:       int64(p.Rows+p.Cols) * int64(valSize),
		IrregularAccesses: irregular,
		Padding:           st.Stored - nnz,
		Components: []ComponentStats{{
			Shape: blocks.RectShape(1, 1), Impl: c.Impl,
			Blocks:  st.Stored,
			WSBytes: st.Bytes,
			Variant: variant,
		}},
	}
}

// sellStats assembles CandidateStats for a SELL candidate from a
// precomputed padded layout, so EnumerateStatsAll can share one σ-sort
// pass per (C, σ) across implementations and index widths (the layout
// depends only on the pattern; widths scale only the index bytes). Like
// the variable-block methods, the component is the degenerate 1x1 shape
// with nb = stored scalars (the per-scalar normalization the profiling
// layer uses for the sell kernel variant); the slice padding is
// reported as Padding so the models price the real padded stream.
func sellStats(p *mat.Pattern, c Candidate, valSize int, l sell.Layout, irregular int64) CandidateStats {
	nnz := int64(p.NNZ())
	return CandidateStats{
		Cand: c, Rows: p.Rows, Cols: p.Cols, NNZ: nnz,
		VectorBytes:       int64(p.Rows+p.Cols) * int64(valSize),
		IrregularAccesses: irregular,
		Padding:           l.Padded - nnz,
		Components: []ComponentStats{{
			Shape: blocks.RectShape(1, 1), Impl: c.Impl,
			Blocks:  l.Padded,
			WSBytes: l.StreamBytes(p.Rows, valSize, c.Width.Bytes()),
			Variant: blocks.SELL,
		}},
	}
}

// duStats assembles CandidateStats for a CSR-DU candidate from a
// precomputed encoded stream size, so EnumerateStatsAll can share one
// StreamBytes pass between the scalar and simd candidates.
func duStats(p *mat.Pattern, c Candidate, valSize int, streamBytes, irregular int64) CandidateStats {
	nnz := int64(p.NNZ())
	return CandidateStats{
		Cand: c, Rows: p.Rows, Cols: p.Cols, NNZ: nnz,
		VectorBytes:       int64(p.Rows+p.Cols) * int64(valSize),
		IrregularAccesses: irregular,
		Components: []ComponentStats{{
			Shape: blocks.RectShape(1, 1), Impl: c.Impl,
			Blocks:  nnz,
			WSBytes: duBytes(p.Rows, nnz, streamBytes, valSize),
			Variant: blocks.DU,
		}},
	}
}

// statsFromCount assembles CandidateStats from a precomputed block count,
// letting EnumerateStats share one counting pass between a padded method
// and its decomposition.
func statsFromCount(p *mat.Pattern, c Candidate, valSize int, cnt blocks.Count, irregular int64) CandidateStats {
	nnz := int64(p.NNZ())
	cs := CandidateStats{
		Cand: c, Rows: p.Rows, Cols: p.Cols, NNZ: nnz,
		VectorBytes:       int64(p.Rows+p.Cols) * int64(valSize),
		IrregularAccesses: irregular,
	}
	elems := c.Shape.Elems()
	idxSize := c.Width.Bytes()
	blockRows := 0
	if c.Shape.R > 0 {
		blockRows = ceilDiv(p.Rows, c.Shape.R)
	}
	switch c.Method {
	case CSR:
		cs.Components = []ComponentStats{{
			Shape: blocks.RectShape(1, 1), Impl: c.Impl,
			Blocks:  nnz,
			WSBytes: csrBytes(p.Rows, nnz, valSize, idxSize),
		}}
	case BCSR, BCSD:
		cs.Padding = cnt.Padding
		cs.Components = []ComponentStats{{
			Shape: c.Shape, Impl: c.Impl,
			Blocks:  cnt.Blocks,
			WSBytes: blockedBytes(blockRows, cnt.Blocks, elems, valSize, idxSize),
		}}
	case BCSRDec, BCSDDec:
		cs.Components = []ComponentStats{
			{
				Shape: c.Shape, Impl: c.Impl,
				Blocks:  cnt.FullBlocks,
				WSBytes: blockedBytes(blockRows, cnt.FullBlocks, elems, valSize, idxSize),
			},
			{
				Shape: blocks.RectShape(1, 1), Impl: c.Impl,
				Blocks:  cnt.RemainderNNZ,
				WSBytes: csrBytes(p.Rows, cnt.RemainderNNZ, valSize, idxSize),
			},
		}
	default:
		panic(fmt.Sprintf("core: unknown method %v", c.Method))
	}
	return cs
}

// blockCounts counts, in one blocks.CountShapes call, every distinct
// shape the fixed-block candidates among cands use. CSR candidates need
// no count (statsFromCount prices them from nnz alone), and the other
// methods price their own structures.
func blockCounts(p *mat.Pattern, cands []Candidate) map[blocks.Shape]blocks.Count {
	var shapes []blocks.Shape
	for _, c := range cands {
		switch c.Method {
		case BCSR, BCSRDec, BCSD, BCSDDec:
			if !slices.Contains(shapes, c.Shape) {
				shapes = append(shapes, c.Shape)
			}
		}
	}
	counts := make(map[blocks.Shape]blocks.Count, len(shapes))
	for _, cnt := range blocks.CountShapes(p, shapes) {
		counts[cnt.Shape] = cnt
	}
	return counts
}

// EnumerateStats computes CandidateStats for the entire selection space of
// Candidates(), sharing one block count per shape across the four
// method/impl combinations that use it.
func EnumerateStats(p *mat.Pattern, valSize int) []CandidateStats {
	cands := Candidates()
	counts := blockCounts(p, cands)
	irregular := p.IrregularAccesses(IrregularGap)
	out := make([]CandidateStats, len(cands))
	for i, c := range cands {
		out[i] = statsFromCount(p, c, valSize, counts[c.Shape], irregular)
	}
	return out
}

// EnumerateStatsAll extends EnumerateStats with the compressed-index
// candidates the matrix admits (CandidatesCompressed), the
// variable-block candidates (CandidatesPartitioned) and the sorted
// sliced ELLPACK candidates (CandidatesSell): the superset the facade
// and the compression experiments rank, with the paper's baseline space
// as a stable prefix. The CSR-DU stream is sized once and shared
// between its scalar and simd candidates; each block shape is counted
// once, and each variable-block partition and each SELL (C, σ) layout
// priced once, then shared across implementations and index widths.
func EnumerateStatsAll(p *mat.Pattern, valSize int) []CandidateStats {
	cands := append(Candidates(), CandidatesCompressed(p.Cols)...)
	cands = append(cands, CandidatesPartitioned()...)
	cands = append(cands, CandidatesSell(p.Cols)...)
	counts := blockCounts(p, cands)
	irregular := p.IrregularAccesses(IrregularGap)
	streamBytes := int64(-1)
	partStats := make(map[Candidate]partition.Stats)
	sellLayouts := make(map[[2]int]sell.Layout)
	var out []CandidateStats
	for _, c := range cands {
		switch c.Method {
		case CSRDU:
			if streamBytes < 0 {
				streamBytes = csrdu.StreamBytes(p)
			}
			out = append(out, duStats(p, c, valSize, streamBytes, irregular))
		case VBR, VBL:
			key := Candidate{Method: c.Method, Part: c.Part}
			st, ok := partStats[key]
			if !ok {
				st = partitionStats(p, c, valSize)
				partStats[key] = st
			}
			out = append(out, partitionedStats(p, c, valSize, st, irregular))
		case SELL:
			key := [2]int{c.Chunk, c.Sigma}
			l, ok := sellLayouts[key]
			if !ok {
				l = sell.LayoutOf(p, c.Chunk, c.Sigma)
				sellLayouts[key] = l
			}
			out = append(out, sellStats(p, c, valSize, l, irregular))
		default:
			out = append(out, statsFromCount(p, c, valSize, counts[c.Shape], irregular))
		}
	}
	return out
}

// SafeStats is EnumerateStatsAll over the pattern of m with its value
// size, under a recover backstop: a structurally corrupt matrix yields an
// empty candidate set, which the safe selection paths (RankSafe,
// SelectSafe) turn into a degraded CSR prediction rather than a crash.
func SafeStats[T floats.Float](m *mat.COO[T]) (stats []CandidateStats) {
	defer func() {
		if recover() != nil {
			stats = nil
		}
	}()
	return EnumerateStatsAll(mat.PatternOf(m), floats.SizeOf[T]())
}
