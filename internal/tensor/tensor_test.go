package tensor

import (
	"testing"
	"testing/quick"
)

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int64{FP16: 2, BF16: 2, FP32: 4, INT8: 1, INT32: 4, INT64: 8}
	for d, want := range cases {
		if got := d.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", d, got, want)
		}
	}
}

func TestDTypeString(t *testing.T) {
	if FP16.String() != "float16" {
		t.Errorf("FP16.String() = %q", FP16.String())
	}
	if DType(99).String() != "dtype(99)" {
		t.Errorf("unknown dtype string = %q", DType(99).String())
	}
}

func TestShapeElems(t *testing.T) {
	if got := Of(8, 512, 768).Elems(); got != 8*512*768 {
		t.Errorf("Elems = %d", got)
	}
	if got := Of().Elems(); got != 1 {
		t.Errorf("scalar Elems = %d, want 1", got)
	}
	if got := Of(3, 0, 5).Elems(); got != 0 {
		t.Errorf("zero-dim Elems = %d, want 0", got)
	}
	if got := Of(3, -1).Elems(); got != 0 {
		t.Errorf("negative-dim Elems = %d, want 0", got)
	}
}

func TestShapeBytes(t *testing.T) {
	if got := Of(2, 4).Bytes(FP16); got != 16 {
		t.Errorf("Bytes = %d, want 16", got)
	}
	if got := Of(2, 4).Bytes(INT64); got != 64 {
		t.Errorf("Bytes = %d, want 64", got)
	}
}

func TestShapeString(t *testing.T) {
	if got := Of(8, 512, 768).String(); got != "[8, 512, 768]" {
		t.Errorf("String = %q", got)
	}
	if got := Of().String(); got != "[]" {
		t.Errorf("String = %q", got)
	}
}

func TestMatmulFLOPs(t *testing.T) {
	// 2*m*k*n, batched.
	if got := MatmulFLOPs(1, 2, 3, 4); got != 48 {
		t.Errorf("MatmulFLOPs = %v, want 48", got)
	}
	if got := MatmulFLOPs(5, 2, 3, 4); got != 240 {
		t.Errorf("batched MatmulFLOPs = %v, want 240", got)
	}
}

func TestElementwiseFLOPs(t *testing.T) {
	if got := ElementwiseFLOPs(100, 2.5); got != 250 {
		t.Errorf("ElementwiseFLOPs = %v, want 250", got)
	}
}

// Property: FLOPs scale linearly in every dimension.
func TestMatmulFLOPsLinearity(t *testing.T) {
	f := func(b, m, k, n uint8) bool {
		bb, mm, kk, nn := int64(b%16+1), int64(m%16+1), int64(k%16+1), int64(n%16+1)
		return MatmulFLOPs(2*bb, mm, kk, nn) == 2*MatmulFLOPs(bb, mm, kk, nn) &&
			MatmulFLOPs(bb, 2*mm, kk, nn) == 2*MatmulFLOPs(bb, mm, kk, nn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bytes = Elems * dtype size for random shapes.
func TestShapeBytesProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := Of(int64(a%32+1), int64(b%32+1), int64(c%32+1))
		return s.Bytes(FP16) == 2*s.Elems() && s.Bytes(FP32) == 4*s.Elems()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
