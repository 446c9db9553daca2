package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fedgpo/internal/data"
	"fedgpo/internal/stats"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	if x.Size() != 6 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatal("tensor shape wrong")
	}
	x.Set2(1, 2, 5)
	if x.At2(1, 2) != 5 {
		t.Error("At2/Set2 broken")
	}
	c := x.Clone()
	c.Data[0] = 9
	if x.Data[0] == 9 {
		t.Error("Clone aliases storage")
	}
	if !SameShape(x, c) {
		t.Error("SameShape false negative")
	}
	if SameShape(x, NewTensor(3, 2)) {
		t.Error("SameShape false positive")
	}
}

func TestTensorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewTensor() },
		func() { NewTensor(2, 0) },
		func() { FromSlice([]float64{1, 2}, 3) },
		func() { MatMul(NewTensor(2, 3), NewTensor(2, 3)) },
		func() { Transpose(NewTensor(2, 2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMatMulKnownResult(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	tt := Transpose(Transpose(a))
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("double transpose changed data")
		}
	}
}

// numericalGradCheck compares a layer's analytic input gradient with a
// finite-difference estimate on a scalar loss L = sum(outputs).
func numericalGradCheck(t *testing.T, layer Layer, x *Tensor, tol float64) {
	t.Helper()
	out := layer.Forward(x)
	ones := NewTensor(out.Shape...)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	analytic := layer.Backward(ones)

	const h = 1e-5
	for i := 0; i < len(x.Data); i += max(1, len(x.Data)/20) {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := sum(layer.Forward(x).Data)
		x.Data[i] = orig - h
		down := sum(layer.Forward(x).Data)
		x.Data[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-analytic.Data[i]) > tol {
			t.Errorf("grad mismatch at %d: analytic %v vs numeric %v",
				i, analytic.Data[i], numeric)
		}
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

func randTensor(rng *stats.RNG, shape ...int) *Tensor {
	x := NewTensor(shape...)
	for i := range x.Data {
		x.Data[i] = rng.Gaussian(0, 1)
	}
	return x
}

func TestDenseGradCheck(t *testing.T) {
	rng := stats.NewRNG(1)
	numericalGradCheck(t, NewDense(5, 4, rng), randTensor(rng, 3, 5), 1e-6)
}

func TestActivationGradChecks(t *testing.T) {
	rng := stats.NewRNG(2)
	numericalGradCheck(t, &Tanh{}, randTensor(rng, 4, 6), 1e-6)
	numericalGradCheck(t, &Sigmoid{}, randTensor(rng, 4, 6), 1e-6)
	// ReLU: keep inputs away from the kink.
	x := randTensor(rng, 4, 6)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] = 0.5
		}
	}
	numericalGradCheck(t, &ReLU{}, x, 1e-6)
}

func TestConvGradCheck(t *testing.T) {
	rng := stats.NewRNG(3)
	numericalGradCheck(t, NewConv2D(2, 3, 3, rng), randTensor(rng, 2, 2, 5, 5), 1e-5)
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := stats.NewRNG(4)
	x := randTensor(rng, 2, 2, 4, 4)
	numericalGradCheck(t, &MaxPool2D{}, x, 1e-5)
}

func TestLSTMGradCheck(t *testing.T) {
	rng := stats.NewRNG(5)
	numericalGradCheck(t, NewLSTM(3, 4, rng), randTensor(rng, 2, 5, 3), 1e-4)
}

func TestDenseWeightGradients(t *testing.T) {
	// Finite-difference check on the weight gradient.
	rng := stats.NewRNG(6)
	d := NewDense(3, 2, rng)
	x := randTensor(rng, 4, 3)
	out := d.Forward(x)
	ones := NewTensor(out.Shape...)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	d.W.Grad.Zero()
	d.Backward(ones)
	const h = 1e-6
	for i := 0; i < len(d.W.Value.Data); i++ {
		orig := d.W.Value.Data[i]
		d.W.Value.Data[i] = orig + h
		up := sum(d.Forward(x).Data)
		d.W.Value.Data[i] = orig - h
		down := sum(d.Forward(x).Data)
		d.W.Value.Data[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-d.W.Grad.Data[i]) > 1e-4 {
			t.Fatalf("weight grad mismatch at %d: %v vs %v", i, d.W.Grad.Data[i], numeric)
		}
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := FromSlice([]float64{2, 1, 0.1, 0, 0, 5}, 2, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 2})
	if loss <= 0 {
		t.Errorf("loss = %v, want > 0", loss)
	}
	// Gradient rows sum to ~0 (softmax minus one-hot).
	for n := 0; n < 2; n++ {
		s := grad.Data[n*3] + grad.Data[n*3+1] + grad.Data[n*3+2]
		if math.Abs(s) > 1e-9 {
			t.Errorf("row %d gradient sums to %v", n, s)
		}
	}
	// A confident correct prediction has near-zero loss contribution.
	confident := FromSlice([]float64{10, -10, -10}, 1, 3)
	l2, _ := SoftmaxCrossEntropy(confident, []int{0})
	if l2 > 1e-6 {
		t.Errorf("confident correct loss = %v", l2)
	}
}

func TestMSEAndMasked(t *testing.T) {
	pred := FromSlice([]float64{1, 2}, 1, 2)
	target := FromSlice([]float64{0, 2}, 1, 2)
	loss, grad := MSE(pred, target)
	if math.Abs(loss-0.5) > 1e-12 {
		t.Errorf("MSE = %v, want 0.5", loss)
	}
	if grad.Data[1] != 0 || grad.Data[0] != 1 {
		t.Errorf("MSE grad = %v", grad.Data)
	}
	mLoss, mGrad := MaskedMSE(pred, target, []bool{true, false})
	if math.Abs(mLoss-1) > 1e-12 {
		t.Errorf("masked MSE = %v, want 1", mLoss)
	}
	if mGrad.Data[1] != 0 {
		t.Error("masked-out entry should have zero gradient")
	}
}

func TestTrainXOR(t *testing.T) {
	// The classic non-linear sanity check: a 2-layer MLP must fit XOR.
	rng := stats.NewRNG(7)
	model := NewSequential(
		NewDense(2, 8, rng),
		&Tanh{},
		NewDense(8, 2, rng),
	)
	opt := NewAdam(0.05)
	xs := FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	ys := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 300; epoch++ {
		logits := model.Forward(xs)
		_, grad := SoftmaxCrossEntropy(logits, ys)
		model.Backward(grad)
		opt.Step(model.Params())
	}
	if acc := Accuracy(model.Forward(xs), ys); acc != 1 {
		t.Errorf("XOR accuracy = %v, want 1.0", acc)
	}
}

func TestTrainGaussianBlobsWithCNNStack(t *testing.T) {
	// End-to-end: a small conv net learns a synthetic image task.
	rng := stats.NewRNG(8)
	ds := data.GaussianBlobs(3, 36, 40, 0.6, rng) // 6x6 "images"
	model := NewSequential(
		NewConv2D(1, 4, 3, rng),
		&ReLU{},
		&MaxPool2D{},
		&Flatten{},
		NewDense(4*3*3, 3, rng),
	)
	opt := NewSGD(0.05, 0.9)
	batch := 20
	for epoch := 0; epoch < 15; epoch++ {
		for i := 0; i+batch <= len(ds); i += batch {
			x := NewTensor(batch, 1, 6, 6)
			labels := make([]int, batch)
			for n := 0; n < batch; n++ {
				copy(x.Data[n*36:(n+1)*36], ds[i+n].X)
				labels[n] = ds[i+n].Y
			}
			logits := model.Forward(x)
			_, grad := SoftmaxCrossEntropy(logits, labels)
			model.Backward(grad)
			opt.Step(model.Params())
		}
	}
	x := NewTensor(len(ds), 1, 6, 6)
	labels := make([]int, len(ds))
	for n := range ds {
		copy(x.Data[n*36:(n+1)*36], ds[n].X)
		labels[n] = ds[n].Y
	}
	if acc := Accuracy(model.Forward(x), labels); acc < 0.9 {
		t.Errorf("CNN training accuracy = %v, want >= 0.9", acc)
	}
}

func TestFedAvgWeightedAverage(t *testing.T) {
	a := []*Tensor{FromSlice([]float64{1, 1}, 2)}
	b := []*Tensor{FromSlice([]float64{3, 5}, 2)}
	avg := FedAvg([][]*Tensor{a, b}, []float64{1, 3})
	want := []float64{2.5, 4}
	for i, v := range want {
		if math.Abs(avg[0].Data[i]-v) > 1e-12 {
			t.Fatalf("FedAvg = %v, want %v", avg[0].Data, want)
		}
	}
}

func TestFedAvgPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { FedAvg(nil, nil) },
		func() { FedAvg([][]*Tensor{{NewTensor(1)}}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestParamSnapshotRoundTrip(t *testing.T) {
	rng := stats.NewRNG(9)
	m := NewSequential(NewDense(3, 2, rng))
	snap := ParamSnapshot(m)
	m.Params()[0].Value.Data[0] = 99
	LoadParams(m, snap)
	if m.Params()[0].Value.Data[0] == 99 {
		t.Error("LoadParams did not restore values")
	}
	encoded, err := EncodeParams(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeParams(encoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		for j := range snap[i].Data {
			if snap[i].Data[j] != decoded[i].Data[j] {
				t.Fatal("gob round trip changed parameters")
			}
		}
	}
}

func TestOptimizerPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewSGD(0, 0) },
		func() { NewSGD(0.1, 1) },
		func() { NewAdam(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	// Minimize (w-3)^2 with momentum SGD.
	w := &Param{Value: FromSlice([]float64{0}, 1), Grad: NewTensor(1)}
	opt := NewSGD(0.1, 0.9)
	for i := 0; i < 200; i++ {
		w.Grad.Data[0] = 2 * (w.Value.Data[0] - 3)
		opt.Step([]*Param{w})
	}
	if math.Abs(w.Value.Data[0]-3) > 0.01 {
		t.Errorf("SGD converged to %v, want 3", w.Value.Data[0])
	}
}

func TestPropertySoftmaxGradRowsSumZero(t *testing.T) {
	f := func(seed int64, classesRaw, batchRaw uint8) bool {
		classes := int(classesRaw%8) + 2
		batch := int(batchRaw%5) + 1
		rng := stats.NewRNG(seed)
		logits := randTensor(rng, batch, classes)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		_, grad := SoftmaxCrossEntropy(logits, labels)
		for n := 0; n < batch; n++ {
			s := 0.0
			for j := 0; j < classes; j++ {
				s += grad.Data[n*classes+j]
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
