package blocks

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"blockspmv/internal/mat"
	"blockspmv/internal/suite"
)

func TestShapeEnumeration(t *testing.T) {
	rect := RectShapes()
	// 1x2..1x8 (7) + 2x1..2x4 (4) + 3x1,3x2 (2) + 4x1,4x2 (2) + 5..8x1 (4).
	if len(rect) != 19 {
		t.Errorf("RectShapes returned %d shapes, want 19", len(rect))
	}
	for _, s := range rect {
		if !s.Valid() || s.IsUnit() {
			t.Errorf("bad rect shape %v", s)
		}
		if s.Elems() > MaxBlockElems {
			t.Errorf("shape %v has %d elements", s, s.Elems())
		}
	}
	diag := DiagShapes()
	if len(diag) != 7 {
		t.Errorf("DiagShapes returned %d shapes, want 7", len(diag))
	}
	all := AllShapes()
	if len(all) != 1+19+7 {
		t.Errorf("AllShapes returned %d shapes, want 27", len(all))
	}
	if !all[0].IsUnit() {
		t.Errorf("AllShapes[0] = %v, want 1x1", all[0])
	}
}

func TestShapeStrings(t *testing.T) {
	if got := RectShape(2, 4).String(); got != "2x4" {
		t.Errorf("String = %q", got)
	}
	if got := DiagShape(3).String(); got != "d3" {
		t.Errorf("String = %q", got)
	}
	if got := Scalar.String(); got != "scalar" {
		t.Errorf("String = %q", got)
	}
	if got := Vector.String(); got != "simd" {
		t.Errorf("String = %q", got)
	}
}

func TestShapeValidity(t *testing.T) {
	if RectShape(3, 3).Valid() {
		t.Error("3x3 (9 elements) reported valid")
	}
	if DiagShape(1).Valid() {
		t.Error("d1 reported valid")
	}
	if DiagShape(9).Valid() {
		t.Error("d9 reported valid")
	}
	if !RectShape(8, 1).Valid() || !DiagShape(8).Valid() {
		t.Error("valid shapes reported invalid")
	}
}

func patternFrom(rows, cols int, coords [][2]int32) *mat.Pattern {
	m := mat.New[float64](rows, cols)
	for _, rc := range coords {
		m.Add(rc[0], rc[1], 1)
	}
	m.Finalize()
	return mat.PatternOf(m)
}

func TestCountRectKnown(t *testing.T) {
	// 4x4 with one full aligned 2x2 tile and one lone entry.
	p := patternFrom(4, 4, [][2]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {3, 3}})
	cnt := CountRect(p, 2, 2)
	if cnt.Blocks != 2 {
		t.Errorf("Blocks = %d, want 2", cnt.Blocks)
	}
	if cnt.Padding != 3 {
		t.Errorf("Padding = %d, want 3", cnt.Padding)
	}
	if cnt.FullBlocks != 1 {
		t.Errorf("FullBlocks = %d, want 1", cnt.FullBlocks)
	}
	if cnt.RemainderNNZ != 1 {
		t.Errorf("RemainderNNZ = %d, want 1", cnt.RemainderNNZ)
	}
}

func TestCountRectUnalignedTile(t *testing.T) {
	// A dense 2x2 tile at (1,1) crosses four aligned 2x2 positions.
	p := patternFrom(4, 4, [][2]int32{{1, 1}, {1, 2}, {2, 1}, {2, 2}})
	cnt := CountRect(p, 2, 2)
	if cnt.Blocks != 4 || cnt.FullBlocks != 0 {
		t.Errorf("Blocks = %d FullBlocks = %d, want 4 and 0", cnt.Blocks, cnt.FullBlocks)
	}
}

func TestCountRectBottomEdgeNeverFull(t *testing.T) {
	// 3 rows, 2x2 blocks: the bottom block row has height 1, so even a
	// "dense" pair there cannot be a full block.
	p := patternFrom(3, 4, [][2]int32{{2, 0}, {2, 1}})
	cnt := CountRect(p, 2, 2)
	if cnt.FullBlocks != 0 {
		t.Errorf("bottom-edge block counted full")
	}
	if cnt.Blocks != 1 || cnt.Padding != 2 {
		t.Errorf("Blocks = %d Padding = %d, want 1 and 2", cnt.Blocks, cnt.Padding)
	}
}

func TestCountDiagKnown(t *testing.T) {
	// Full main diagonal of 6, b=3: two full aligned diagonal blocks.
	coords := make([][2]int32, 6)
	for i := range coords {
		coords[i] = [2]int32{int32(i), int32(i)}
	}
	p := patternFrom(6, 6, coords)
	cnt := CountDiag(p, 3)
	if cnt.Blocks != 2 || cnt.FullBlocks != 2 || cnt.Padding != 0 {
		t.Errorf("count = %+v, want 2 blocks, 2 full, 0 padding", cnt)
	}
}

func TestCountDiagNegativeStart(t *testing.T) {
	// Entry (1,0) with b=2 lies on the diagonal starting at column -1:
	// a boundary block that cannot be full.
	p := patternFrom(2, 2, [][2]int32{{1, 0}})
	cnt := CountDiag(p, 2)
	if cnt.Blocks != 1 || cnt.FullBlocks != 0 || cnt.Padding != 1 {
		t.Errorf("count = %+v, want 1 block, 0 full, 1 padding", cnt)
	}
}

func TestCountVBL(t *testing.T) {
	p := patternFrom(2, 10, [][2]int32{
		{0, 0}, {0, 1}, {0, 2}, // run of 3
		{0, 5},         // run of 1
		{1, 3}, {1, 4}, // run of 2
	})
	if got := CountVBL(p, 255); got != 3 {
		t.Errorf("CountVBL = %d, want 3", got)
	}
	// With maxLen 2 the run of 3 splits into 2 blocks.
	if got := CountVBL(p, 2); got != 4 {
		t.Errorf("CountVBL(maxLen=2) = %d, want 4", got)
	}
}

// TestCountInvariants property-checks the accounting identities on random
// patterns: padding is non-negative, full blocks plus remainder recover
// nnz, and block counts are bounded by nnz.
func TestCountInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		m := mat.New[float64](rows, cols)
		n := rng.Intn(200)
		for k := 0; k < n; k++ {
			m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), 1)
		}
		m.Finalize()
		p := mat.PatternOf(m)
		nnz := int64(p.NNZ())
		for _, s := range AllShapes() {
			if s.IsUnit() {
				continue
			}
			cnt := CountForShape(p, s)
			if cnt.Padding < 0 || cnt.Blocks < 0 || cnt.FullBlocks < 0 {
				return false
			}
			if cnt.Blocks*int64(s.Elems())-nnz != cnt.Padding {
				return false
			}
			if cnt.FullBlocks*int64(s.Elems())+cnt.RemainderNNZ != nnz {
				return false
			}
			if cnt.Blocks > nnz || cnt.FullBlocks > cnt.Blocks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refCount is the reference counter CountShapes is checked against: per
// block row it gathers every nonzero's block key (block column for
// rectangles, diagonal start column for diagonals), sorts the keys and
// counts the runs. It is deliberately the simplest correct algorithm,
// independent of CountShapes' merge and scan.
func refCount(p *mat.Pattern, s Shape) Count {
	cnt := Count{Shape: s}
	elems := int64(s.Elems())
	var keys []int32
	for r0 := 0; r0 < p.Rows; r0 += s.R {
		r1 := min(r0+s.R, p.Rows)
		keys = keys[:0]
		for row := r0; row < r1; row++ {
			for _, col := range p.RowCols(row) {
				if s.Kind == Diag {
					keys = append(keys, col-int32(row-r0))
				} else {
					keys = append(keys, col/int32(s.C))
				}
			}
		}
		slices.Sort(keys)
		for i := 0; i < len(keys); {
			j := i + 1
			for j < len(keys) && keys[j] == keys[i] {
				j++
			}
			cnt.Blocks++
			first, last := int(keys[i]), int(keys[i])+s.R-1 // diagonal block's columns
			if s.Kind == Rect {
				first, last = int(keys[i])*s.C, int(keys[i])*s.C+s.C-1
			}
			if r1-r0 == s.R && int64(j-i) == elems && first >= 0 && last < p.Cols {
				cnt.FullBlocks++
			}
			i = j
		}
	}
	cnt.Padding = cnt.Blocks*elems - int64(p.NNZ())
	cnt.RemainderNNZ = int64(p.NNZ()) - cnt.FullBlocks*elems
	return cnt
}

// checkAgainstRef compares CountShapes over every shape with refCount.
func checkAgainstRef(t *testing.T, name string, p *mat.Pattern) {
	t.Helper()
	shapes := AllShapes()
	got := CountShapes(p, shapes)
	for i, s := range shapes {
		if want := refCount(p, s); got[i] != want {
			t.Errorf("%s (%dx%d, nnz %d) shape %v: CountShapes = %+v, reference = %+v",
				name, p.Rows, p.Cols, p.NNZ(), s, got[i], want)
		}
	}
}

// randomPattern draws a rows x cols pattern mixing scattered entries
// with dense tiles at random (mostly unaligned) offsets, so full blocks,
// near-full blocks, empty rows and edge overhangs all occur.
func randomPattern(rng *rand.Rand, rows, cols int) *mat.Pattern {
	m := mat.New[float64](rows, cols)
	for k := rng.Intn(rows*cols/3 + 1); k > 0; k-- {
		m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), 1)
	}
	for k := rng.Intn(6); k > 0; k-- {
		r0, c0 := rng.Intn(rows), rng.Intn(cols)
		h, w := 1+rng.Intn(8), 1+rng.Intn(8)
		diag := rng.Intn(2) == 0
		for i := 0; i < h && r0+i < rows; i++ {
			for j := 0; j < w && c0+j < cols; j++ {
				if !diag || i == j {
					m.Add(int32(r0+i), int32(c0+j), 1)
				}
			}
		}
	}
	m.Finalize()
	return mat.PatternOf(m)
}

// TestCountShapesMatchesReference property-checks CountShapes against the
// reference counter on random patterns from 1x1 up to 48x48, including
// 1-row and 1-column matrices.
func TestCountShapesMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(48), 1+rng.Intn(48)
		switch rng.Intn(4) {
		case 0:
			rows = 1
		case 1:
			cols = 1
		}
		checkAgainstRef(t, "random", randomPattern(rng, rows, cols))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCountShapesEdges pins the boundary cases by construction: an empty
// pattern, empty rows inside a block row, a partial last block row or
// segment, blocks overhanging the right edge, diagonal blocks starting
// left of column 0, and single-row and single-column matrices.
func TestCountShapesEdges(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		coords     [][2]int32
	}{
		{"empty", 9, 9, nil},
		{"empty rows", 8, 8, [][2]int32{{0, 0}, {0, 1}, {3, 3}, {7, 0}}},
		{"partial last block row", 7, 8, [][2]int32{{6, 0}, {6, 1}, {5, 0}, {5, 1}, {4, 4}}},
		{"right-edge overhang", 4, 7, [][2]int32{{0, 6}, {1, 6}, {2, 5}, {2, 6}, {3, 5}, {3, 6}}},
		{"negative diagonal starts", 8, 8, [][2]int32{{1, 0}, {2, 0}, {3, 1}, {5, 4}, {6, 4}, {7, 6}}},
		{"one row", 1, 17, [][2]int32{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 8}, {0, 16}}},
		{"one column", 17, 1, [][2]int32{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {8, 0}, {16, 0}}},
		{"one cell", 1, 1, [][2]int32{{0, 0}}},
	}
	for _, tc := range cases {
		checkAgainstRef(t, tc.name, patternFrom(tc.rows, tc.cols, tc.coords))
	}
}

// TestCountShapesSuite checks CountShapes against the reference on every
// suite archetype at tiny scale.
func TestCountShapesSuite(t *testing.T) {
	for _, info := range suite.Infos() {
		m := suite.MustBuild[float64](info.ID, suite.Tiny)
		checkAgainstRef(t, info.Name, mat.PatternOf(m))
	}
}

// TestCountShapesOrderAndRepeats checks that counts come back in the
// order asked, repeated shapes included, and that the single-shape
// wrappers agree with CountShapes.
func TestCountShapesOrderAndRepeats(t *testing.T) {
	p := randomPattern(rand.New(rand.NewSource(7)), 30, 30)
	shapes := []Shape{DiagShape(3), RectShape(2, 2), RectShape(1, 1), DiagShape(3), RectShape(2, 1)}
	got := CountShapes(p, shapes)
	for i, s := range shapes {
		if got[i].Shape != s || got[i] != CountForShape(p, s) {
			t.Errorf("shape %d (%v): got %+v, want %+v", i, s, got[i], CountForShape(p, s))
		}
	}
	if CountRect(p, 2, 2) != got[1] || CountDiag(p, 3) != got[0] {
		t.Error("CountRect/CountDiag disagree with CountShapes")
	}
	if len(CountShapes(p, nil)) != 0 {
		t.Error("CountShapes(nil) returned counts")
	}
	for _, bad := range []Shape{RectShape(3, 3), RectShape(0, 2), DiagShape(1), DiagShape(9)} {
		func() {
			defer func() {
				if _, ok := recover().(*ShapeError); !ok {
					t.Errorf("CountShapes(%v) did not panic with a *ShapeError", bad)
				}
			}()
			CountShapes(p, []Shape{RectShape(2, 2), bad})
		}()
	}
}

// FuzzCountShapes decodes the input as a pattern (first two bytes: rows
// and columns, 1..64; then one (row, col) byte pair per entry, reduced
// modulo the dimensions) and checks CountShapes against the reference.
func FuzzCountShapes(f *testing.F) {
	f.Add([]byte{4, 4, 0, 0, 0, 1, 1, 0, 1, 1, 3, 3})
	f.Add([]byte{7, 5, 6, 0, 6, 1, 1, 0, 2, 1, 3, 2, 4, 4})
	f.Add([]byte{1, 9, 0, 0, 0, 1, 0, 2, 0, 8})
	f.Add([]byte{9, 1, 0, 0, 1, 0, 2, 0, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := 1+int(data[0])%64, 1+int(data[1])%64
		var coords [][2]int32
		for b := data[2:]; len(b) >= 2; b = b[2:] {
			coords = append(coords, [2]int32{int32(int(b[0]) % rows), int32(int(b[1]) % cols)})
		}
		checkAgainstRef(t, "fuzz", patternFrom(rows, cols, coords))
	})
}
