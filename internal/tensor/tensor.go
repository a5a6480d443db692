// Package tensor provides the lightweight shape and dtype arithmetic the
// operator cost models need: element counts, byte sizes, and FLOP
// formulas for the dense kernels that dominate transformer inference.
// There is deliberately no data here — the simulator reasons about
// volumes, not values.
package tensor

import (
	"fmt"
	"strings"
)

// DType identifies an element type, fixing its storage size.
type DType int

const (
	// FP16 is the paper's evaluation precision ("All models used for
	// evaluation are FP16 precision-based PyTorch models").
	FP16 DType = iota
	// FP32 single precision.
	FP32
	// BF16 bfloat16; same size as FP16.
	BF16
	// INT8 quantized.
	INT8
	// INT32 index/mask type.
	INT32
	// INT64 index type used by embedding lookups.
	INT64
)

// Size returns the storage size of one element in bytes.
func (d DType) Size() int64 {
	switch d {
	case FP16, BF16:
		return 2
	case FP32, INT32:
		return 4
	case INT8:
		return 1
	case INT64:
		return 8
	default:
		return 4
	}
}

// String names the dtype as PyTorch would.
func (d DType) String() string {
	switch d {
	case FP16:
		return "float16"
	case FP32:
		return "float32"
	case BF16:
		return "bfloat16"
	case INT8:
		return "int8"
	case INT32:
		return "int32"
	case INT64:
		return "int64"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Shape is a tensor extent, outermost dimension first.
type Shape []int64

// Of builds a shape from dims.
func Of(dims ...int64) Shape { return Shape(dims) }

// Elems returns the number of elements (product of dims; empty shape = 1
// scalar). Negative dims are invalid and yield 0.
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s {
		if d < 0 {
			return 0
		}
		n *= d
	}
	return n
}

// Bytes returns the storage footprint of the shape in the given dtype.
func (s Shape) Bytes(d DType) int64 { return s.Elems() * d.Size() }

// String renders like "[8, 512, 768]".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// MatmulFLOPs returns the multiply-accumulate FLOP count (2·m·k·n) of a
// (m×k)·(k×n) matrix product repeated batch times.
func MatmulFLOPs(batch, m, k, n int64) float64 {
	return 2 * float64(batch) * float64(m) * float64(k) * float64(n)
}

// AttentionScoreFLOPs returns FLOPs for Q·Kᵀ over batch·heads matrices of
// (seq×headDim)·(headDim×seq).
func AttentionScoreFLOPs(batch, heads, seq, headDim int64) float64 {
	return MatmulFLOPs(batch*heads, seq, headDim, seq)
}

// ElementwiseFLOPs approximates FLOPs of a pointwise op as opsPerElem per
// element.
func ElementwiseFLOPs(elems int64, opsPerElem float64) float64 {
	return float64(elems) * opsPerElem
}
