// Package tensor implements a small dense float64 tensor library that backs
// the neural-network framework used by the Viper reproduction. It favours
// clarity and determinism over raw speed: all state is an explicit
// row-major []float64 with a shape vector, and every operation documents
// its shape contract.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative or if the element count overflows int.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: cloneInts(shape), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: cloneInts(shape), data: data}
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = 1
	}
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		if d != 0 && n > math.MaxInt/d {
			panic(fmt.Sprintf("tensor: shape %v overflows", shape))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneInts(t.shape) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// offset computes the flat index for idx, panicking on rank or bounds
// violations.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at idx.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns v to the element at idx.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	data := make([]float64, len(t.data))
	copy(data, t.data)
	return &Tensor{shape: cloneInts(t.shape), data: data}
}

// Reshape returns a view of t with a new shape holding the same number of
// elements. The storage is shared with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: cloneInts(shape), data: t.data}
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// CopyFrom copies o's elements into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(shape=%v, n=%d)", t.shape, len(t.data))
}

// Row returns a view of row i of a 2-D tensor as a 1-D tensor sharing
// storage with t.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	cols := t.shape[1]
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: row %d out of bounds for shape %v", i, t.shape))
	}
	return &Tensor{shape: []int{cols}, data: t.data[i*cols : (i+1)*cols]}
}

// SliceRows returns a view of rows [lo, hi) of a 2-D tensor, sharing
// storage with t.
func (t *Tensor) SliceRows(lo, hi int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SliceRows requires a 2-D tensor")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: rows [%d,%d) out of bounds for shape %v", lo, hi, t.shape))
	}
	cols := t.shape[1]
	return &Tensor{shape: []int{hi - lo, cols}, data: t.data[lo*cols : hi*cols]}
}
