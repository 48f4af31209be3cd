package bench

import (
	"fmt"
	"io"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/suite"
	"blockspmv/internal/textplot"
)

// CompressEntry is one format's measurement in the index-compression
// experiment.
type CompressEntry struct {
	Format string
	// MatrixBytes is the format's exact matrix-structure size.
	MatrixBytes int64
	// BytesPerNNZ is the matrix-stream cost per nonzero, the quantity the
	// compressed layouts shrink.
	BytesPerNNZ float64
	Seconds     float64
	GFlops      float64
	// SpeedupVsCSR is the measured speedup over the scalar CSR baseline.
	SpeedupVsCSR float64
	// MemPredictedSpeedup is the MEM model's predicted speedup: the ratio
	// of full streaming working sets (t = ws/BW, so BW cancels).
	MemPredictedSpeedup float64
}

// CompressResult is the index-compression comparison on one matrix.
type CompressResult struct {
	Info       suite.Info
	Precision  string
	Rows, Cols int
	NNZ        int64
	// ExceedsLLC reports whether the CSR working set misses the last-level
	// cache, the regime where the MEM model (and hence index compression)
	// applies.
	ExceedsLLC bool
	Entries    []CompressEntry
}

// Compress measures the compressed-index CSR variants against the plain
// CSR baseline (dp): narrow fixed-width indices (CSR/ix16, CSR/ix8 where
// the matrix width admits them) and the delta-unit CSR-DU in both kernel
// classes. Alongside each measurement it reports
// the MEM model's predicted speedup, which for equal-computation variants
// is just the working-set ratio — the experiment that validates "fewer
// index bytes => proportionally faster" on bandwidth-bound matrices.
func Compress(cfg Config) []CompressResult {
	cfg = cfg.withDefaults()
	var out []CompressResult
	for _, id := range cfg.MatrixIDs {
		info, err := suite.InfoByID(id)
		if err != nil {
			continue
		}
		m := suite.MustBuild[float64](id, cfg.Scale)
		x := floats.RandVector[float64](m.Cols(), 107)
		y := make([]float64, m.Rows())

		base := csr.FromCOO(m, blocks.Scalar)
		insts := []formats.Instance[float64]{base}
		if compact := csr.NewCompact(m, blocks.Scalar); compact.Name() != base.Name() {
			insts = append(insts, compact)
		}
		du := csrdu.New(m, blocks.Scalar)
		insts = append(insts, du, du.WithImpl(blocks.Vector))

		res := CompressResult{
			Info:      info,
			Precision: floats.PrecisionName[float64](),
			Rows:      m.Rows(), Cols: m.Cols(), NNZ: int64(m.NNZ()),
			ExceedsLLC: cfg.Machine.LLCBytes > 0 &&
				formats.WorkingSetBytes(base) > cfg.Machine.LLCBytes,
		}
		baseWS := formats.WorkingSetBytes(base)
		var baseSecs float64
		for _, inst := range insts {
			secs := timeAvg(cfg, func() { inst.Mul(x, y) })
			if inst == formats.Instance[float64](base) {
				baseSecs = secs
			}
			res.Entries = append(res.Entries, CompressEntry{
				Format:              inst.Name(),
				MatrixBytes:         inst.MatrixBytes(),
				BytesPerNNZ:         float64(inst.MatrixBytes()) / float64(res.NNZ),
				Seconds:             secs,
				GFlops:              2 * float64(res.NNZ) / secs / 1e9,
				SpeedupVsCSR:        baseSecs / secs,
				MemPredictedSpeedup: float64(baseWS) / float64(formats.WorkingSetBytes(inst)),
			})
		}
		out = append(out, res)
		cfg.logf("compress: %s done", info.Name)
	}
	return out
}

// PrintCompress renders the index-compression comparison.
func PrintCompress(w io.Writer, res []CompressResult) {
	fmt.Fprintln(w, "Index compression: matrix-stream bytes vs measured and MEM-predicted speedup (dp)")
	fmt.Fprintln(w)
	for _, r := range res {
		regime := "fits LLC (compute-bound regime: MEM does not apply)"
		if r.ExceedsLLC {
			regime = "exceeds LLC (bandwidth-bound regime)"
		}
		fmt.Fprintf(w, "%s: %dx%d, %d nonzeros, %s\n", r.Info.Name, r.Rows, r.Cols, r.NNZ, regime)
		var rows [][]string
		for _, e := range r.Entries {
			rows = append(rows, []string{
				e.Format,
				fmt.Sprintf("%.2f", e.BytesPerNNZ),
				fmt.Sprintf("%.3g", e.Seconds*1e3),
				fmt.Sprintf("%.2f", e.GFlops),
				fmt.Sprintf("%.2fx", e.SpeedupVsCSR),
				fmt.Sprintf("%.2fx", e.MemPredictedSpeedup),
			})
		}
		textplot.Table(w, []string{"format", "B/nnz", "ms/SpMV", "GFlop/s", "measured", "MEM-pred"}, rows)
		fmt.Fprintln(w)
	}
}
