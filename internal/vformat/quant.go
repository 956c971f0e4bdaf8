package vformat

import "math"

// Quantized transfer: inference replicas rarely need full float64
// precision, so the chunk codec (ChunkOptions.Precision) can ship
// checkpoints at float32 or float16, halving or quartering the wire size
// (and thus stall/transfer time) at a bounded precision cost.
// Quantization applies to the transfer encoding only — the consumer
// re-expands to float64 weights.

// Precision selects the on-wire element encoding.
type Precision uint8

// Supported wire precisions.
const (
	// PrecFloat64 is the lossless default.
	PrecFloat64 Precision = 0
	// PrecFloat32 halves the payload (~1e-7 relative error).
	PrecFloat32 Precision = 1
	// PrecFloat16 quarters the payload (~1e-3 relative error; values
	// outside ±65504 saturate).
	PrecFloat16 Precision = 2
)

// BytesPerElement returns the wire size of one element.
func (p Precision) BytesPerElement() int {
	switch p {
	case PrecFloat32:
		return 4
	case PrecFloat16:
		return 2
	default:
		return 8
	}
}

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case PrecFloat32:
		return "float32"
	case PrecFloat16:
		return "float16"
	default:
		return "float64"
	}
}

// Float16FromFloat64 converts to IEEE 754 binary16 (round-to-nearest,
// saturating at ±65504, preserving NaN/Inf and signed zero).
func Float16FromFloat64(v float64) uint16 {
	f32 := float32(v)
	bits := math.Float32bits(f32)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127
	frac := bits & 0x7FFFFF

	switch {
	case exp == 128: // Inf or NaN
		if frac != 0 {
			return sign | 0x7E00 // quiet NaN
		}
		return sign | 0x7C00 // Inf
	case exp > 15: // overflow → saturate to max finite half
		return sign | 0x7BFF
	case exp >= -14: // normal half
		// Round to nearest-even on the 13 truncated bits.
		half := sign | uint16(exp+15)<<10 | uint16(frac>>13)
		round := frac & 0x1FFF
		if round > 0x1000 || (round == 0x1000 && half&1 == 1) {
			half++
		}
		return half
	case exp >= -24: // subnormal half: m = value·2²⁴ = (1.f)·2^(exp+24)
		shift := uint32(-exp - 1) // 14 (exp=-15) .. 23 (exp=-24)
		mant := (frac | 0x800000) >> shift
		return sign | uint16(mant)
	default: // underflow → signed zero
		return sign
	}
}

// Float16ToFloat64 expands an IEEE 754 binary16 value.
func Float16ToFloat64(h uint16) float64 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	frac := uint32(h & 0x3FF)
	var bits uint32
	switch {
	case exp == 0x1F: // Inf / NaN
		bits = sign | 0x7F800000 | frac<<13
	case exp == 0: // zero or subnormal
		if frac == 0 {
			bits = sign
		} else {
			// Normalize the subnormal: value = frac·2⁻²⁴, so with the
			// leading bit at position k the float32 biased exponent is
			// k+103 — start at 113 (= -14+127) and walk down.
			exp32 := uint32(113)
			for frac&0x400 == 0 {
				frac <<= 1
				exp32--
			}
			frac &= 0x3FF
			bits = sign | exp32<<23 | frac<<13
		}
	default:
		bits = sign | (exp-15+127)<<23 | frac<<13
	}
	return float64(math.Float32frombits(bits))
}
