package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
)

// randBlocks builds a random block row for a shape: n blocks with random
// interior start columns over a width-w input vector.
func randBlocks[T floats.Float](s blocks.Shape, n, w int, rng *rand.Rand) (bval []T, bcol []int32) {
	span := s.C
	if s.Kind == blocks.Diag {
		span = s.R
	}
	bval = make([]T, n*s.Elems())
	for i := range bval {
		bval[i] = T(rng.Float64()*2 - 1)
	}
	bcol = make([]int32, n)
	for i := range bcol {
		bcol[i] = int32(rng.Intn(w - span + 1))
	}
	return bval, bcol
}

// TestGeneratedMatchGeneric verifies every generated kernel against the
// loop-based generic kernel on random block rows, for both precisions and
// both implementation classes.
func TestGeneratedMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range blocks.AllShapes() {
		for _, impl := range blocks.Impls() {
			gen := ForShape[float64](s, impl)
			if gen == nil {
				t.Fatalf("no kernel for %v/%v", s, impl)
			}
			ref := Generic[float64](s)
			for _, n := range []int{0, 1, 2, 3, 7, 64} {
				bval, bcol := randBlocks[float64](s, n, 100, rng)
				x := floats.RandVector[float64](100, 9)
				h := s.R
				got := make([]float64, h)
				want := make([]float64, h)
				gen(bval, bcol, x, got)
				ref(bval, bcol, x, want)
				if !floats.EqualWithin(got, want, 1e-12) {
					t.Fatalf("%v/%v n=%d: %v, want %v", s, impl, n, got, want)
				}
			}
		}
	}
}

func TestGeneratedMatchGenericSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range blocks.AllShapes() {
		gen := ForShape[float32](s, blocks.Vector)
		ref := Generic[float32](s)
		bval, bcol := randBlocks[float32](s, 33, 80, rng)
		x := floats.RandVector[float32](80, 10)
		got := make([]float32, s.R)
		want := make([]float32, s.R)
		gen(bval, bcol, x, got)
		ref(bval, bcol, x, want)
		if !floats.EqualWithin(got, want, 1e-4) {
			t.Fatalf("%v: %v, want %v", s, got, want)
		}
	}
}

// TestKernelsAccumulate verifies kernels add into y rather than
// overwriting it: decomposed formats rely on accumulation.
func TestKernelsAccumulate(t *testing.T) {
	for _, s := range blocks.AllShapes() {
		k := ForShape[float64](s, blocks.Scalar)
		bval := make([]float64, s.Elems())
		for i := range bval {
			bval[i] = 1
		}
		x := make([]float64, 16)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, s.R)
		for i := range y {
			y[i] = 100
		}
		k(bval, []int32{0}, x, y)
		for i, v := range y {
			rowSum := float64(s.C)
			if s.Kind == blocks.Diag {
				rowSum = 1
			}
			if v != 100+rowSum {
				t.Errorf("%v: y[%d] = %g, want %g (accumulation)", s, i, v, 100+rowSum)
			}
		}
	}
}

func TestDispatchUnknownShapes(t *testing.T) {
	if Rect[float64](3, 3, blocks.Scalar) != nil {
		t.Error("Rect(3,3) returned a kernel for an invalid shape")
	}
	if DiagIx[float64, int32](1, blocks.Scalar) != nil {
		t.Error("DiagIx(1) returned a kernel")
	}
	if DiagIx[float64, int32](9, blocks.Vector) != nil {
		t.Error("DiagIx(9) returned a kernel")
	}
}

// TestVectorScalarEquivalenceQuick property-checks that for random block
// counts the Vector and Scalar kernels compute identical sums (they only
// reorder the accumulation, which is exact in double precision here since
// all values are small integers).
func TestVectorScalarEquivalenceQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 40)
		for _, s := range []blocks.Shape{blocks.RectShape(2, 2), blocks.RectShape(1, 8), blocks.DiagShape(4)} {
			bval, bcol := randBlocks[float64](s, n, 64, rng)
			// Use exactly representable values so reordering is exact.
			for i := range bval {
				bval[i] = float64(int(bval[i]*8)) / 8
			}
			x := make([]float64, 64)
			for i := range x {
				x[i] = float64(i%16) / 16
			}
			ys := make([]float64, s.R)
			yv := make([]float64, s.R)
			ForShape[float64](s, blocks.Scalar)(bval, bcol, x, ys)
			ForShape[float64](s, blocks.Vector)(bval, bcol, x, yv)
			if floats.MaxAbsDiff(ys, yv) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
