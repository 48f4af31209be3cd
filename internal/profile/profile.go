// Package profile measures the per-block kernel parameters the MEMCOMP and
// OVERLAP models need (Section IV):
//
//   - t_b: the execution time of a single block of each (shape, impl)
//     combination, "obtained by profiling the execution of a very small
//     dense matrix, which is stored using every blocking method and block
//     under consideration and fits in the L1 cache of the target machine."
//   - nof_b: the non-overlapping factor of equation (4), "obtained ...
//     by profiling a large dense matrix that exceeds the highest level of
//     cache": nof_b = (t_real_b - t_MEM) / (nb * t_b).
//
// CSR is profiled as the degenerate 1x1 blocking with nb = nnz.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/machine"
	"blockspmv/internal/mat"
	"blockspmv/internal/partition"
	"blockspmv/internal/sell"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// Key identifies one profiled kernel: a block shape, an implementation
// class, and the kernel variant (plain explicit-index kernels vs the
// CSR-DU delta decoder, which shares the 1x1 shape with CSR but has a
// different per-block cost).
type Key struct {
	Shape   blocks.Shape
	Impl    blocks.Impl
	Variant blocks.Variant
}

func (k Key) String() string {
	s := k.Shape.String() + "/" + k.Impl.String()
	if k.Variant != blocks.Plain {
		s += "/" + k.Variant.String()
	}
	return s
}

// Entry holds the profiled parameters of one kernel.
type Entry struct {
	// Tb is the estimated execution time of a single block, in seconds.
	Tb float64
	// Nof is the non-overlapping factor: the fraction of the computational
	// time that is not hidden behind memory transfers.
	Nof float64
}

// Table is a complete kernel profile for one precision on one machine.
type Table struct {
	Precision string
	Machine   machine.Machine
	Entries   map[Key]Entry
}

// Lookup returns the profile entry for a shape and impl of the plain
// kernel variant.
func (t *Table) Lookup(s blocks.Shape, impl blocks.Impl) (Entry, bool) {
	return t.LookupVariant(s, impl, blocks.Plain)
}

// LookupVariant returns the profile entry for a shape, impl and kernel
// variant.
func (t *Table) LookupVariant(s blocks.Shape, impl blocks.Impl, v blocks.Variant) (Entry, bool) {
	e, ok := t.Entries[Key{Shape: s, Impl: impl, Variant: v}]
	return e, ok
}

// Options tunes the profiling run. The zero value selects defaults
// derived from the machine.
type Options struct {
	// TbBytes is the target CSR working set of the t_b profiling matrix.
	// Default: half the L1 data cache.
	TbBytes int64
	// NofBytes is the target CSR working set of the nof profiling matrix.
	// Default: 16x L2, clamped to [32 MiB, 256 MiB]. (The paper exceeds
	// the highest cache level; on hosts advertising very large shared
	// LLCs the clamp keeps profiling affordable while still streaming
	// well beyond the private caches, consistent with how the effective
	// bandwidth itself is measured.)
	NofBytes int64
	// MaxNof clamps the measured non-overlapping factor. Default 2.
	MaxNof float64
}

func (o Options) withDefaults(m machine.Machine) Options {
	if o.TbBytes == 0 {
		o.TbBytes = m.L1DataBytes / 2
		if o.TbBytes == 0 {
			o.TbBytes = machine.DefaultL1 / 2
		}
	}
	if o.NofBytes == 0 {
		o.NofBytes = machine.DefaultTriadBytes(m.L2Bytes)
	}
	if o.MaxNof == 0 {
		o.MaxNof = 2
	}
	return o
}

// buildDense stores the dense matrix d in the format identified by key.
func buildDense[T floats.Float](d *mat.COO[T], k Key) formats.Instance[T] {
	switch {
	case k.Variant == blocks.DU:
		return csrdu.New(d, k.Impl)
	case k.Variant == blocks.VBR:
		// On a dense matrix run detection would collapse to one giant
		// block and under-price the per-block walk; a uniform partition
		// of modest blocks exercises the real VBR streaming pattern.
		pt := partition.VBRPartition{
			Rpntr: uniformBounds(d.Rows(), profileVBRBlock),
			Cpntr: uniformBounds(d.Cols(), profileVBRBlock),
		}
		a, err := vbr.NewPartitioned(d, pt, k.Impl)
		if err != nil {
			panic("profile: " + err.Error())
		}
		return a
	case k.Variant == blocks.VBL:
		return vbl.New(d, k.Impl)
	case k.Variant == blocks.SELL:
		// Dense rows are uniform, so any σ gives a padding-free layout;
		// σ=1 skips the pointless sort. C=8 is the mid-size generated
		// slice height.
		return sell.New(d, profileSellChunk, 1, k.Impl)
	case k.Shape.IsUnit():
		return csr.FromCOO(d, k.Impl)
	default:
		return bcsr.NewShape[T, int32](d, k.Shape, k.Impl)
	}
}

// profileVBRBlock is the uniform block side used to profile the VBR
// kernel variant on the dense matrices.
const profileVBRBlock = 8

// profileSellChunk is the slice height used to profile the SELL kernel
// variant on the dense matrices.
const profileSellChunk = 8

// uniformBounds returns partition boundaries 0, step, 2*step, ..., n.
func uniformBounds(n, step int) []int32 {
	b := []int32{0}
	for v := step; v < n; v += step {
		b = append(b, int32(v))
	}
	b = append(b, int32(n))
	return b
}

// denseSide returns the side length of a dense matrix whose CSR working
// set is approximately wsBytes for element size valSize.
func denseSide(wsBytes int64, valSize int) int {
	n := int(math.Sqrt(float64(wsBytes) / float64(valSize+4)))
	return max(n, 16)
}

// blockCount returns the number of blocks the instance stores, which for
// the single-component formats used here is Components()[0].Blocks.
func blockCount[T floats.Float](inst formats.Instance[T]) int64 {
	return inst.Components()[0].Blocks
}

// Collect profiles every kernel (all shapes x scalar/simd, plus the CSR
// 1x1 degenerate) for precision T on machine m. The machine's bandwidth
// must already be measured (Machine.BandwidthBytesPerSec > 0).
func Collect[T floats.Float](m machine.Machine, opts Options) *Table {
	opts = opts.withDefaults(m)
	if m.BandwidthBytesPerSec <= 0 {
		panic("profile: machine bandwidth not measured")
	}
	valSize := floats.SizeOf[T]()

	small := mat.Dense[T](denseSide(opts.TbBytes, valSize), denseSide(opts.TbBytes, valSize))
	big := mat.Dense[T](denseSide(opts.NofBytes, valSize), denseSide(opts.NofBytes, valSize))

	t := &Table{
		Precision: floats.PrecisionName[T](),
		Machine:   m,
		Entries:   make(map[Key]Entry),
	}
	for _, s := range blocks.AllShapes() {
		for _, impl := range blocks.Impls() {
			k := Key{Shape: s, Impl: impl}
			t.Entries[k] = profileOne[T](small, big, k, m, opts)
		}
	}
	// The variant kernels share the degenerate 1x1 shape with CSR but
	// have their own per-unit cost: CSR-DU per nonzero including the
	// delta decode, VBR and 1D-VBL per stored scalar of their
	// variable-size block walks.
	for _, v := range variantKernels() {
		for _, impl := range blocks.Impls() {
			k := Key{Shape: blocks.RectShape(1, 1), Impl: impl, Variant: v}
			t.Entries[k] = profileOne[T](small, big, k, m, opts)
		}
	}
	return t
}

// variantKernels lists the non-plain kernel variants the profile covers.
func variantKernels() []blocks.Variant {
	return []blocks.Variant{blocks.DU, blocks.VBR, blocks.VBL, blocks.SELL}
}

// profileOne measures Tb on the L1-resident matrix and Nof on the
// cache-exceeding matrix for a single kernel.
func profileOne[T floats.Float](small, big *mat.COO[T], k Key, m machine.Machine, opts Options) Entry {
	// t_b: batch enough repetitions that timer resolution is irrelevant.
	si := buildDense(small, k)
	x := floats.RandVector[T](si.Cols(), 11)
	y := make([]T, si.Rows())
	nbSmall := blockCount(si)
	perMul := machine.TimeAvg(5, 400, func() { si.Mul(x, y) })
	tb := perMul / float64(nbSmall)

	// nof: one construction, a handful of timed full passes.
	bi := buildDense(big, k)
	bx := floats.RandVector[T](bi.Cols(), 12)
	by := make([]T, bi.Rows())
	tReal := machine.Time(1, 3, func() { bi.Mul(bx, by) })
	ws := formats.WorkingSetBytes(bi)
	tMem := float64(ws) / m.BandwidthBytesPerSec
	nbBig := blockCount(bi)

	nof := (tReal - tMem) / (float64(nbBig) * tb)
	if nof < 0 {
		nof = 0
	}
	if nof > opts.MaxNof {
		nof = opts.MaxNof
	}
	return Entry{Tb: tb, Nof: nof}
}

// Version is the profile file format version Save writes. Load accepts
// files up to this version; files without a version field are the legacy
// pre-versioning layout and load as version 0.
const Version = 1

// checkEntry rejects timings a model cannot price with: Tb must be a
// positive finite time, Nof a finite non-negative factor.
func checkEntry(k Key, e Entry) error {
	if math.IsNaN(e.Tb) || math.IsInf(e.Tb, 0) || e.Tb <= 0 {
		return fmt.Errorf("profile: entry %v has invalid tb %v (want positive finite)", k, e.Tb)
	}
	if math.IsNaN(e.Nof) || math.IsInf(e.Nof, 0) || e.Nof < 0 {
		return fmt.Errorf("profile: entry %v has invalid nof %v (want non-negative finite)", k, e.Nof)
	}
	return nil
}

// Validate reports whether the table can drive the profiled models
// (MEMCOMP, OVERLAP): a well-formed entry for every plain (shape, impl)
// combination the candidate space prices. The selection layer uses it to
// decide between modelled selection and the degraded CSR fallback.
func (t *Table) Validate() error {
	if t == nil || t.Entries == nil {
		return fmt.Errorf("profile: empty table")
	}
	for _, s := range blocks.AllShapes() {
		for _, impl := range blocks.Impls() {
			k := Key{Shape: s, Impl: impl}
			e, ok := t.Entries[k]
			if !ok {
				return fmt.Errorf("profile: missing entry for %v", k)
			}
			if err := checkEntry(k, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonEntry is the serialised form of one profile row. Variant is empty
// for plain kernels so profiles written before the field existed load
// unchanged.
type jsonEntry struct {
	Shape   string  `json:"shape"`
	Impl    string  `json:"impl"`
	Variant string  `json:"variant,omitempty"`
	Tb      float64 `json:"tb"`
	Nof     float64 `json:"nof"`
}

type jsonTable struct {
	Version   int             `json:"version"`
	Precision string          `json:"precision"`
	Machine   machine.Machine `json:"machine"`
	Entries   []jsonEntry     `json:"entries"`
}

// Save writes the profile as JSON.
func (t *Table) Save(w io.Writer) error {
	jt := jsonTable{Version: Version, Precision: t.Precision, Machine: t.Machine}
	for _, s := range blocks.AllShapes() {
		for _, impl := range blocks.Impls() {
			if e, ok := t.Lookup(s, impl); ok {
				jt.Entries = append(jt.Entries, jsonEntry{
					Shape: s.String(), Impl: impl.String(), Tb: e.Tb, Nof: e.Nof,
				})
			}
		}
	}
	for _, v := range variantKernels() {
		for _, impl := range blocks.Impls() {
			if e, ok := t.LookupVariant(blocks.RectShape(1, 1), impl, v); ok {
				jt.Entries = append(jt.Entries, jsonEntry{
					Shape: "1x1", Impl: impl.String(), Variant: v.String(),
					Tb: e.Tb, Nof: e.Nof,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// Load reads a profile previously written by Save. It is strict: files
// from a newer format version, rows with unparseable shapes, implementations
// or variants, duplicate rows, and non-finite or non-positive timings are
// all rejected with an error rather than silently producing a table that
// would later derail (or crash) model evaluation. Callers that cannot
// obtain a valid profile should fall back to selection without one (see
// core.SelectSafe).
func Load(r io.Reader) (*Table, error) {
	var jt jsonTable
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("profile: decoding: %w", err)
	}
	if jt.Version < 0 || jt.Version > Version {
		return nil, fmt.Errorf("profile: unsupported format version %d (this build reads up to %d)",
			jt.Version, Version)
	}
	t := &Table{Precision: jt.Precision, Machine: jt.Machine, Entries: make(map[Key]Entry)}
	for _, je := range jt.Entries {
		s, err := blocks.ParseShape(je.Shape)
		if err != nil {
			return nil, err
		}
		impl, err := blocks.ParseImpl(je.Impl)
		if err != nil {
			return nil, err
		}
		var variant blocks.Variant
		switch je.Variant {
		case "", blocks.Plain.String():
		case blocks.DU.String():
			variant = blocks.DU
		case blocks.VBR.String():
			variant = blocks.VBR
		case blocks.VBL.String():
			variant = blocks.VBL
		case blocks.SELL.String():
			variant = blocks.SELL
		default:
			return nil, fmt.Errorf("profile: unknown variant %q", je.Variant)
		}
		k := Key{Shape: s, Impl: impl, Variant: variant}
		if _, dup := t.Entries[k]; dup {
			return nil, fmt.Errorf("profile: duplicate entry for %v", k)
		}
		e := Entry{Tb: je.Tb, Nof: je.Nof}
		if err := checkEntry(k, e); err != nil {
			return nil, err
		}
		t.Entries[k] = e
	}
	return t, nil
}
