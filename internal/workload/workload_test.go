package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAllWorkloadsValidate(t *testing.T) {
	ws := All()
	if len(ws) != 3 {
		t.Fatalf("want the paper's 3 workloads, got %d", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestLayerCountsMatchArchitectures(t *testing.T) {
	cnn := CNNMNIST()
	if cnn.RCLayers != 0 || cnn.ConvLayers == 0 || cnn.FCLayers == 0 {
		t.Errorf("CNN layer mix wrong: %+v", cnn)
	}
	lstm := LSTMShakespeare()
	if lstm.RCLayers == 0 || lstm.ConvLayers != 0 {
		t.Errorf("LSTM layer mix wrong: %+v", lstm)
	}
	mob := MobileNetImageNet()
	if mob.ConvLayers < 20 {
		t.Errorf("MobileNet should have ~27 conv layers, got %d", mob.ConvLayers)
	}
}

func TestWorkloadCharacterDifferences(t *testing.T) {
	cnn, lstm, mob := CNNMNIST(), LSTMShakespeare(), MobileNetImageNet()
	// Paper §2.1: LSTM-Shakespeare is memory-intensive vs CNN-MNIST.
	if lstm.Shape.MemoryIntensity <= cnn.Shape.MemoryIntensity {
		t.Error("LSTM should be more memory-intensive than CNN")
	}
	// LSTM prefers smaller batches, more iterations (Fig. 2).
	if lstm.Learn.OptimalB >= cnn.Learn.OptimalB {
		t.Error("LSTM optimal B should be below CNN's")
	}
	if lstm.Learn.OptimalE <= cnn.Learn.OptimalE {
		t.Error("LSTM optimal E should exceed CNN's")
	}
	// MobileNet-ImageNet is the heaviest compute per sample.
	if mob.Shape.FLOPsPerSample <= cnn.Shape.FLOPsPerSample ||
		mob.Shape.FLOPsPerSample <= lstm.Shape.FLOPsPerSample {
		t.Error("MobileNet should have the largest per-sample FLOPs")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"CNN-MNIST", "LSTM-Shakespeare", "MobileNet-ImageNet"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if w.Name != name {
			t.Errorf("got %q", w.Name)
		}
	}
	if _, err := ByName("ResNet"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestValidateCatchesBadWorkloads(t *testing.T) {
	base := CNNMNIST()
	mutations := []func(*Workload){
		func(w *Workload) { w.Name = "" },
		func(w *Workload) { w.NumClasses = 1 },
		func(w *Workload) { w.SamplesPerDevice = 0 },
		func(w *Workload) { w.Shape.FLOPsPerSample = 0 },
		func(w *Workload) { w.Learn.MaxAccuracy = w.Learn.InitialAccuracy },
		func(w *Workload) { w.Learn.TargetAccuracy = 2 },
		func(w *Workload) { w.Learn.BaseGain = 0 },
		func(w *Workload) { w.Learn.OptimalB = 0 },
	}
	for i, mut := range mutations {
		w := base
		mut(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

// Every float field of Shape and Learn rejects NaN, +Inf and -Inf with
// an error naming the field; the fields are found by reflection, so a
// field added later is covered too.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, part := range []string{"Shape", "Learn"} {
		typ := reflect.TypeOf(Workload{})
		sf, _ := typ.FieldByName(part)
		for i := range sf.Type.NumField() {
			f := sf.Type.Field(i)
			if f.Type.Kind() != reflect.Float64 {
				continue
			}
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				w := CNNMNIST()
				reflect.ValueOf(&w).Elem().FieldByName(part).Field(i).SetFloat(v)
				name := part + "." + f.Name
				if err := w.Validate(); err == nil || !strings.Contains(err.Error(), name) {
					t.Errorf("%s = %v: Validate returned %v, want an error naming %s", name, v, err, name)
				}
			}
		}
	}
}

func TestStringIsName(t *testing.T) {
	if CNNMNIST().String() != "CNN-MNIST" {
		t.Error("String() should return the display name")
	}
}
