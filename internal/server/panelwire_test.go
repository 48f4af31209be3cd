package server

import (
	"errors"
	"math"
	"testing"
)

func mustEncodePanelReq(tb testing.TB, row0, row1 int, xs [][]float64) []byte {
	tb.Helper()
	data, err := EncodeShardPanel(row0, row1, xs)
	if err != nil {
		tb.Fatalf("EncodeShardPanel([%d,%d), k=%d): %v", row0, row1, len(xs), err)
	}
	return data
}

func mustEncodePanelPart(tb testing.TB, row0, row1 int, ys [][]float64) []byte {
	tb.Helper()
	data, err := EncodePartialPanel(row0, row1, ys)
	if err != nil {
		tb.Fatalf("EncodePartialPanel([%d,%d), k=%d): %v", row0, row1, len(ys), err)
	}
	return data
}

func TestPanelWireRoundTrip(t *testing.T) {
	cases := []struct {
		row0, row1 int
		xs         [][]float64
	}{
		{0, 4, [][]float64{{1.5, -2}}},
		{7, 7, [][]float64{{}, {}}},
		{100, 228, [][]float64{
			{0, -1, math.Pi},
			{math.Inf(1), math.NaN(), -0.0},
			{1e-300, 1e300, 42},
		}},
	}
	for _, tc := range cases {
		req := mustEncodePanelReq(t, tc.row0, tc.row1, tc.xs)
		n := len(tc.xs[0])
		r0, r1, gn, gk, flat, err := DecodePanelInto(nil, req, n, len(tc.xs))
		if err != nil {
			t.Fatalf("decode panel [%d,%d): %v", tc.row0, tc.row1, err)
		}
		if r0 != tc.row0 || r1 != tc.row1 || gn != n || gk != len(tc.xs) {
			t.Fatalf("panel round trip: [%d,%d) n=%d k=%d, want [%d,%d) n=%d k=%d",
				r0, r1, gn, gk, tc.row0, tc.row1, n, len(tc.xs))
		}
		got := PanelVecs(nil, flat, gn, gk)
		for l := range tc.xs {
			for j := range tc.xs[l] {
				if math.Float64bits(got[l][j]) != math.Float64bits(tc.xs[l][j]) {
					t.Fatalf("panel vector %d element %d: %v != %v (bit-level)", l, j, got[l][j], tc.xs[l][j])
				}
			}
		}
	}

	// Partial panels: per-vector length is pinned to the row range.
	ys := [][]float64{{2, -4, math.NaN(), 8}, {0, -0.0, 1, 2}}
	part := mustEncodePanelPart(t, 10, 14, ys)
	r0, r1, k, flat, err := DecodePartialPanelInto(nil, part, 4, 2)
	if err != nil {
		t.Fatalf("decode partial panel: %v", err)
	}
	if r0 != 10 || r1 != 14 || k != 2 {
		t.Fatalf("partial panel round trip: [%d,%d) k=%d", r0, r1, k)
	}
	got := PanelVecs(nil, flat, 4, 2)
	for l := range ys {
		for i := range ys[l] {
			if math.Float64bits(got[l][i]) != math.Float64bits(ys[l][i]) {
				t.Fatalf("partial vector %d element %d: %v != %v (bit-level)", l, i, got[l][i], ys[l][i])
			}
		}
	}
}

func TestPanelWireEncodeGuards(t *testing.T) {
	if _, err := EncodeShardPanel(4, 2, [][]float64{{1}}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted panel range: err = %v, want ErrWireRange", err)
	}
	// An empty panel claims rows while carrying nothing; refused.
	if _, err := EncodeShardPanel(0, 4, nil); !errors.Is(err, ErrWirePanel) {
		t.Errorf("k=0 panel: err = %v, want ErrWirePanel", err)
	}
	// Ragged panels cannot be interleaved.
	if _, err := EncodeShardPanel(0, 4, [][]float64{{1, 2}, {3}}); !errors.Is(err, ErrWirePanel) {
		t.Errorf("ragged panel: err = %v, want ErrWirePanel", err)
	}
	if _, err := EncodePartialPanel(5, 3, [][]float64{{1}}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted partial panel range: err = %v, want ErrWireRange", err)
	}
	if _, err := EncodePartialPanel(0, 3, nil); !errors.Is(err, ErrWirePanel) {
		t.Errorf("k=0 partial panel: err = %v, want ErrWirePanel", err)
	}
	// A partial panel whose vector length disagrees with its range lies
	// about which rows it carries.
	if _, err := EncodePartialPanel(0, 3, [][]float64{{1, 2}}); !errors.Is(err, ErrWirePanel) {
		t.Errorf("partial panel range/len mismatch: err = %v, want ErrWirePanel", err)
	}
}

func TestPanelWireDecodeErrors(t *testing.T) {
	req := mustEncodePanelReq(t, 2, 6, [][]float64{{1, 2, 3}, {4, 5, 6}})
	part := mustEncodePanelPart(t, 2, 5, [][]float64{{1, 2, 3}, {4, 5, 6}})

	corrupt := func(data []byte, at int) []byte {
		c := append([]byte{}, data...)
		c[at] ^= 0x40
		return c
	}
	setK := func(data []byte, off int, k uint32) []byte {
		c := append([]byte{}, data...)
		c[off], c[off+1], c[off+2], c[off+3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		return c
	}

	reqCases := []struct {
		name       string
		data       []byte
		maxN, maxK int
		want       error
	}{
		{"empty", nil, 8, 8, ErrWireTruncated},
		{"short header", req[:24], 8, 8, ErrWireTruncated},
		{"vector magic", mustEncode(t, []float64{1, 2, 3}), 8, 8, ErrWireMagic},
		{"oversized n", req, 2, 8, ErrWireTooLarge},
		{"oversized k", req, 8, 1, ErrWirePanel},
		{"forged k=0", setK(req, 20, 0), 8, 8, ErrWirePanel},
		{"truncated body", req[:len(req)-1], 8, 8, ErrWireTruncated},
		{"trailing", append(append([]byte{}, req...), 0), 8, 8, ErrWireTrailing},
		{"corrupt element", corrupt(req, panelReqHeaderLen+5), 8, 8, ErrWireChecksum},
		{"corrupt crc", corrupt(req, 25), 8, 8, ErrWireChecksum},
	}
	for _, tc := range reqCases {
		if _, _, _, _, _, err := DecodePanelInto(nil, tc.data, tc.maxN, tc.maxK); !errors.Is(err, tc.want) {
			t.Errorf("panel request %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	partCases := []struct {
		name          string
		data          []byte
		maxRows, maxK int
		want          error
	}{
		{"empty", nil, 8, 8, ErrWireTruncated},
		{"short header", part[:20], 8, 8, ErrWireTruncated},
		{"request magic", req, 8, 8, ErrWireMagic},
		{"oversized range", part, 2, 8, ErrWireTooLarge},
		{"oversized k", part, 8, 1, ErrWirePanel},
		{"forged k=0", setK(part, 16, 0), 8, 8, ErrWirePanel},
		{"truncated body", part[:len(part)-2], 8, 8, ErrWireTruncated},
		{"trailing", append(append([]byte{}, part...), 0), 8, 8, ErrWireTrailing},
		{"corrupt element", corrupt(part, panelPartHeaderLen), 8, 8, ErrWireChecksum},
	}
	for _, tc := range partCases {
		if _, _, _, _, err := DecodePartialPanelInto(nil, tc.data, tc.maxRows, tc.maxK); !errors.Is(err, tc.want) {
			t.Errorf("partial panel %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Forged counts cannot drive a large allocation: n, k and their
	// product are validated against the caps and the actual body length
	// before the flat slice exists.
	forgedN := setK(req, 16, 0xffffffff)
	if _, _, _, _, _, err := DecodePanelInto(nil, forgedN, 1<<30, 8); !errors.Is(err, ErrWireTooLarge) {
		t.Fatalf("forged panel n: err = %v, want ErrWireTooLarge", err)
	}
	forgedK := setK(part, 16, 0xffffffff)
	if _, _, _, _, err := DecodePartialPanelInto(nil, forgedK, 8, 1<<33); !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("forged partial k: err = %v, want ErrWireTruncated", err)
	}
}

// TestPanelWireZeroAlloc pins the pooled panel paths: steady-state
// encode into sufficient capacity and decode into sufficient scratch
// perform no allocations — the batched scatter path depends on both.
func TestPanelWireZeroAlloc(t *testing.T) {
	xs := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	req := mustEncodePanelReq(t, 0, 9, xs)
	part := mustEncodePanelPart(t, 0, 4, xs)
	scratch := make([]float64, 0, 16)
	buf := make([]byte, 0, len(req)+8)

	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendShardPanel(buf[:0], 0, 9, xs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state AppendShardPanel allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, _, err := DecodePanelInto(scratch, req, 16, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state DecodePanelInto allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, err := DecodePartialPanelInto(scratch, part, 16, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state DecodePartialPanelInto allocates %.1f/op, want 0", allocs)
	}
}
