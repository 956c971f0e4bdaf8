package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"viper/internal/tensor"
)

// NamedTensor is one entry of a model snapshot.
type NamedTensor struct {
	// Name is the parameter name, e.g. "conv1/kernel".
	Name string
	// Shape is the tensor shape.
	Shape []int
	// Data is a copy of the tensor contents.
	Data []float64
}

// Snapshot is a deep copy of a model's weights, the unit Viper checkpoints
// and transfers between producer and consumer.
type Snapshot []NamedTensor

// TakeSnapshot deep-copies all parameters of m.
func TakeSnapshot(m Model) Snapshot {
	params := m.Params()
	out := make(Snapshot, len(params))
	for i, p := range params {
		data := make([]float64, p.Value.Len())
		copy(data, p.Value.Data())
		out[i] = NamedTensor{Name: p.Name, Shape: p.Value.Shape(), Data: data}
	}
	return out
}

// RestoreSnapshot writes s back into m's parameters, matching by name.
// It fails if a snapshot entry is missing, superfluous, or shaped
// differently from the model's parameter.
func RestoreSnapshot(m Model, s Snapshot) error {
	params := m.Params()
	byName := make(map[string]*Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	if len(s) != len(params) {
		return fmt.Errorf("nn: snapshot has %d tensors, model has %d parameters", len(s), len(params))
	}
	for _, nt := range s {
		p, ok := byName[nt.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot tensor %q has no matching model parameter", nt.Name)
		}
		if p.Value.Len() != len(nt.Data) {
			return fmt.Errorf("nn: snapshot tensor %q has %d elements, parameter has %d", nt.Name, len(nt.Data), p.Value.Len())
		}
		want := p.Value.Shape()
		if len(want) != len(nt.Shape) {
			return fmt.Errorf("nn: snapshot tensor %q rank %d, parameter rank %d", nt.Name, len(nt.Shape), len(want))
		}
		for i := range want {
			if want[i] != nt.Shape[i] {
				return fmt.Errorf("nn: snapshot tensor %q shape %v, parameter shape %v", nt.Name, nt.Shape, want)
			}
		}
		copy(p.Value.Data(), nt.Data)
	}
	return nil
}

// NumBytes returns the in-memory payload size of the snapshot in bytes
// (8 bytes per element, ignoring names and shape headers).
func (s Snapshot) NumBytes() int64 {
	var n int64
	for _, nt := range s {
		n += int64(len(nt.Data)) * 8
	}
	return n
}

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := make(Snapshot, len(s))
	for i, nt := range s {
		shape := make([]int, len(nt.Shape))
		copy(shape, nt.Shape)
		data := make([]float64, len(nt.Data))
		copy(data, nt.Data)
		out[i] = NamedTensor{Name: nt.Name, Shape: shape, Data: data}
	}
	return out
}

// Tensors converts the snapshot entries to tensors (sharing Data).
func (s Snapshot) Tensors() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(s))
	for i, nt := range s {
		out[i] = tensor.FromSlice(nt.Data, nt.Shape...)
	}
	return out
}

const snapshotMagic = uint32(0x56495052) // "VIPR"

// MarshalBinary serializes the snapshot in a compact little-endian format:
// magic, tensor count, then per tensor: name, rank, dims, float64 payload.
func (s Snapshot) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := func(v interface{}) {
		// bytes.Buffer writes never fail.
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	w(snapshotMagic)
	w(uint32(len(s)))
	for _, nt := range s {
		name := []byte(nt.Name)
		w(uint32(len(name)))
		buf.Write(name)
		w(uint32(len(nt.Shape)))
		for _, d := range nt.Shape {
			w(uint64(d))
		}
		w(uint64(len(nt.Data)))
		payload := make([]byte, 8*len(nt.Data))
		for i, v := range nt.Data {
			binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
		}
		buf.Write(payload)
	}
	return buf.Bytes(), nil
}

// UnmarshalSnapshot parses a snapshot produced by MarshalBinary.
func UnmarshalSnapshot(b []byte) (Snapshot, error) {
	r := bytes.NewReader(b)
	var magic, count uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("nn: snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("nn: bad snapshot magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("nn: snapshot count: %w", err)
	}
	// Every length field below is checked against the bytes actually left
	// before it sizes an allocation: the input may come off a socket.
	const minTensorBytes = 4 + 4 + 8 // name length, rank, element count
	if uint64(count)*minTensorBytes > uint64(r.Len()) {
		return nil, fmt.Errorf("nn: snapshot: implausible tensor count %d", count)
	}
	out := make(Snapshot, 0, count)
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("nn: snapshot tensor %d name length: %w", i, err)
		}
		if uint64(nameLen) > uint64(r.Len()) {
			return nil, fmt.Errorf("nn: snapshot tensor %d: implausible name length %d", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("nn: snapshot tensor %d name: %w", i, err)
		}
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return nil, fmt.Errorf("nn: snapshot tensor %d rank: %w", i, err)
		}
		if uint64(rank)*8 > uint64(r.Len()) {
			return nil, fmt.Errorf("nn: snapshot tensor %d: implausible rank %d", i, rank)
		}
		shape := make([]int, rank)
		n := 1
		for j := range shape {
			var d uint64
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return nil, fmt.Errorf("nn: snapshot tensor %d dim %d: %w", i, j, err)
			}
			shape[j] = int(d)
			n *= int(d)
		}
		var elems uint64
		if err := binary.Read(r, binary.LittleEndian, &elems); err != nil {
			return nil, fmt.Errorf("nn: snapshot tensor %d element count: %w", i, err)
		}
		if int(elems) != n {
			return nil, fmt.Errorf("nn: snapshot tensor %d: %d elements does not match shape %v", i, elems, shape)
		}
		if elems > uint64(len(b)) { // payload cannot exceed the input
			return nil, fmt.Errorf("nn: snapshot tensor %d: implausible element count %d", i, elems)
		}
		payload := make([]byte, 8*int(elems))
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("nn: snapshot tensor %d payload: %w", i, err)
		}
		data := make([]float64, elems)
		for j := range data {
			data[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*j:]))
		}
		out = append(out, NamedTensor{Name: string(name), Shape: shape, Data: data})
	}
	return out, nil
}
