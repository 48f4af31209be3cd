package server

import (
	"errors"
	"math"
	"testing"
)

// A single-vector shard call travels as a panel of one: the tests below
// pin the SpS2/SpP2 frames at k = 1, the shape every unbatched scatter
// and partial takes on the wire.

func TestShardWireRoundTrip(t *testing.T) {
	cases := []struct {
		row0, row1 int
		x          []float64
	}{
		{0, 0, nil},
		{0, 4, []float64{1.5}},
		{7, 7, []float64{}},
		{100, 228, []float64{0, -1, math.Pi, math.Inf(1), math.NaN(), -0.0}},
	}
	for _, tc := range cases {
		req := mustEncodePanelReq(t, tc.row0, tc.row1, [][]float64{tc.x})
		r0, r1, n, k, got, err := DecodePanelInto(nil, req, len(tc.x), 1)
		if err != nil {
			t.Fatalf("decode request [%d,%d): %v", tc.row0, tc.row1, err)
		}
		if r0 != tc.row0 || r1 != tc.row1 || n != len(tc.x) || k != 1 || len(got) != len(tc.x) {
			t.Fatalf("request round trip: [%d,%d) n=%d k=%d len %d, want [%d,%d) n=%d k=1",
				r0, r1, n, k, len(got), tc.row0, tc.row1, len(tc.x))
		}
		for i := range tc.x {
			if math.Float64bits(got[i]) != math.Float64bits(tc.x[i]) {
				t.Fatalf("request element %d: %v != %v (bit-level)", i, got[i], tc.x[i])
			}
		}
	}

	// Partial frames: len(y) is pinned to the row range.
	y := []float64{2, -4, math.NaN(), 8}
	part := mustEncodePanelPart(t, 10, 14, [][]float64{y})
	r0, r1, k, got, err := DecodePartialPanelInto(nil, part, 4, 1)
	if err != nil {
		t.Fatalf("decode partial: %v", err)
	}
	if r0 != 10 || r1 != 14 || k != 1 || len(got) != 4 {
		t.Fatalf("partial round trip: [%d,%d) k=%d len %d", r0, r1, k, len(got))
	}
	for i := range y {
		if math.Float64bits(got[i]) != math.Float64bits(y[i]) {
			t.Fatalf("partial element %d: %v != %v (bit-level)", i, got[i], y[i])
		}
	}
}

func TestShardWireEncodeGuards(t *testing.T) {
	if _, err := EncodeShardPanel(4, 2, [][]float64{nil}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted request range: err = %v, want ErrWireRange", err)
	}
	if _, err := EncodeShardPanel(-1, 2, [][]float64{nil}); !errors.Is(err, ErrWireRange) {
		t.Errorf("negative row0: err = %v, want ErrWireRange", err)
	}
	if _, err := EncodePartialPanel(5, 3, [][]float64{nil}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted partial range: err = %v, want ErrWireRange", err)
	}
	// A partial frame whose element count disagrees with its range is a
	// lie about which rows it carries; the encoder refuses to build it.
	if _, err := EncodePartialPanel(0, 3, [][]float64{{1, 2}}); !errors.Is(err, ErrWirePanel) {
		t.Errorf("partial range/len mismatch: err = %v, want ErrWirePanel", err)
	}
}

func TestShardWireDecodeErrors(t *testing.T) {
	req := mustEncodePanelReq(t, 2, 6, [][]float64{{1, 2, 3}})
	part := mustEncodePanelPart(t, 2, 5, [][]float64{{1, 2, 3}})

	corrupt := func(data []byte, at int) []byte {
		c := append([]byte{}, data...)
		c[at] ^= 0x40
		return c
	}

	reqCases := []struct {
		name string
		data []byte
		maxN int
		want error
	}{
		{"empty", nil, 8, ErrWireTruncated},
		{"short header", req[:20], 8, ErrWireTruncated},
		{"vector magic", mustEncode(t, []float64{1, 2, 3}), 8, ErrWireMagic},
		{"partial magic", part, 8, ErrWireMagic},
		{"oversized", req, 2, ErrWireTooLarge},
		{"truncated body", req[:len(req)-1], 8, ErrWireTruncated},
		{"trailing", append(append([]byte{}, req...), 0), 8, ErrWireTrailing},
		{"corrupt element", corrupt(req, panelReqHeaderLen+5), 8, ErrWireChecksum},
		{"corrupt crc", corrupt(req, 25), 8, ErrWireChecksum},
	}
	for _, tc := range reqCases {
		if _, _, _, _, _, err := DecodePanelInto(nil, tc.data, tc.maxN, 1); !errors.Is(err, tc.want) {
			t.Errorf("request %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	partCases := []struct {
		name    string
		data    []byte
		maxRows int
		want    error
	}{
		{"empty", nil, 8, ErrWireTruncated},
		{"short header", part[:16], 8, ErrWireTruncated},
		{"request magic", req, 8, ErrWireMagic},
		{"oversized range", part, 2, ErrWireTooLarge},
		{"truncated body", part[:len(part)-2], 8, ErrWireTruncated},
		{"trailing", append(append([]byte{}, part...), 0), 8, ErrWireTrailing},
		{"corrupt element", corrupt(part, panelPartHeaderLen), 8, ErrWireChecksum},
	}
	for _, tc := range partCases {
		if _, _, _, _, err := DecodePartialPanelInto(nil, tc.data, tc.maxRows, 1); !errors.Is(err, tc.want) {
			t.Errorf("partial %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A forged range cannot drive a large allocation: the range is
	// validated against maxRows and the body length before the slice
	// exists.
	forged := append([]byte{}, part...)
	forged[12], forged[13] = 0xff, 0xff
	if _, _, _, _, err := DecodePartialPanelInto(nil, forged, 1<<30, 1); !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("forged partial range: err = %v, want ErrWireTruncated", err)
	}
}

// TestShardWireZeroAlloc pins the pooled decode paths used on the shard
// hot path: steady-state single-vector request and partial decodes into
// sufficient scratch perform no allocations.
func TestShardWireZeroAlloc(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	req := mustEncodePanelReq(t, 0, 9, [][]float64{x})
	part := mustEncodePanelPart(t, 0, 7, [][]float64{x})
	scratch := make([]float64, 0, 16)

	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, _, err := DecodePanelInto(scratch, req, 16, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state k=1 DecodePanelInto allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, err := DecodePartialPanelInto(scratch, part, 16, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state k=1 DecodePartialPanelInto allocates %.1f/op, want 0", allocs)
	}
}
