package nn

import (
	"fmt"

	"viper/internal/tensor"
)

// Model is the training-framework surface Viper interacts with: it can run
// a training step, predict, and snapshot/restore its weights.
type Model interface {
	// Name returns the model identifier (e.g. "tc1").
	Name() string
	// Params returns all trainable parameters.
	Params() []*Param
	// Predict runs inference on a batch input.
	Predict(x *tensor.Tensor) *tensor.Tensor
	// NumParams returns the total scalar parameter count.
	NumParams() int
}

// Sequential chains layers in order, mirroring Keras's Sequential model.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential constructs a sequential model from the given layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	if len(layers) == 0 {
		panic(fmt.Sprintf("nn: Sequential %s: no layers", name))
	}
	return &Sequential{name: name, layers: layers}
}

// Name implements Model.
func (s *Sequential) Name() string { return s.name }

// Params implements Model.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams implements Model.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Value.Len()
	}
	return n
}

// Forward runs all layers. When train is true, activations are cached for
// a subsequent Backward.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the output gradient through all layers in reverse,
// accumulating parameter gradients, and returns dLoss/dInput.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// Predict implements Model (inference mode, no caching, no dropout).
func (s *Sequential) Predict(x *tensor.Tensor) *tensor.Tensor {
	return s.Forward(x, false)
}

// TrainStep runs one forward/backward/update cycle on a batch and returns
// the batch loss.
func (s *Sequential) TrainStep(x, y *tensor.Tensor, loss Loss, opt Optimizer) float64 {
	pred := s.Forward(x, true)
	lv, grad := loss.Compute(pred, y)
	s.Backward(grad)
	opt.Step(s.Params())
	return lv
}

// Validate checks that the per-sample input shape flows through every
// layer that implements OutputShaper, returning the final sample shape.
func (s *Sequential) Validate(sampleShape []int) ([]int, error) {
	shape := append([]int(nil), sampleShape...)
	for _, l := range s.layers {
		os, ok := l.(OutputShaper)
		if !ok {
			continue
		}
		var err error
		shape, err = os.OutputShape(shape)
		if err != nil {
			return nil, err
		}
	}
	return shape, nil
}

// TwoHead is an encoder with two decoder heads sharing the encoding — the
// PtychoNN architecture (one head predicts real-space amplitude, the other
// phase). The training loss is the sum of per-head losses; encoder
// gradients are the sum of the gradients flowing back from both heads.
type TwoHead struct {
	name    string
	Encoder *Sequential
	Head1   *Sequential
	Head2   *Sequential
}

// NewTwoHead constructs a two-headed encoder/decoder model.
func NewTwoHead(name string, encoder, head1, head2 *Sequential) *TwoHead {
	return &TwoHead{name: name, Encoder: encoder, Head1: head1, Head2: head2}
}

// Name implements Model.
func (t *TwoHead) Name() string { return t.name }

// Params implements Model.
func (t *TwoHead) Params() []*Param {
	out := t.Encoder.Params()
	out = append(out, t.Head1.Params()...)
	out = append(out, t.Head2.Params()...)
	return out
}

// NumParams implements Model.
func (t *TwoHead) NumParams() int {
	n := 0
	for _, p := range t.Params() {
		n += p.Value.Len()
	}
	return n
}

// Forward runs the encoder and both heads, returning both head outputs.
func (t *TwoHead) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, *tensor.Tensor) {
	enc := t.Encoder.Forward(x, train)
	return t.Head1.Forward(enc, train), t.Head2.Forward(enc, train)
}

// Predict implements Model, returning the first head's output; use
// PredictBoth for both heads.
func (t *TwoHead) Predict(x *tensor.Tensor) *tensor.Tensor {
	y1, _ := t.Forward(x, false)
	return y1
}

// PredictBoth runs inference and returns both head outputs.
func (t *TwoHead) PredictBoth(x *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	return t.Forward(x, false)
}

// TrainStep runs one combined step: loss = loss1(head1, y1) +
// loss2(head2, y2), with encoder gradients summed across heads.
func (t *TwoHead) TrainStep(x, y1, y2 *tensor.Tensor, loss1, loss2 Loss, opt Optimizer) float64 {
	p1, p2 := t.Forward(x, true)
	l1, g1 := loss1.Compute(p1, y1)
	l2, g2 := loss2.Compute(p2, y2)
	encGrad := t.Head1.Backward(g1)
	encGrad.AddInPlace(t.Head2.Backward(g2))
	t.Encoder.Backward(encGrad)
	opt.Step(t.Params())
	return l1 + l2
}
