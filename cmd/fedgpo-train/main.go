// Command fedgpo-train demonstrates that the repository's from-scratch
// NN library actually learns: it trains a small CNN on a synthetic
// image-classification task (a stand-in for MNIST) with plain
// centralized minibatch SGD and prints the loss/accuracy trajectory.
//
// It registers the same shared runtime flag block as the other fedgpo
// CLIs (-list-scenarios, -cachedir, -workers, ...), so the flag
// surface is uniform across the toolchain. The training loop itself is
// a single in-process run — it emits no simulation cells, so beyond
// -list-scenarios the runtime flags are validated (a malformed
// -workers address fails at startup, exactly like the other CLIs) but
// leave the trainer's behavior unchanged.
//
// Usage:
//
//	fedgpo-train [-epochs 10] [-batch 16] [-samples 600]
//	fedgpo-train -list-scenarios
package main

import (
	"flag"
	"fmt"
	"os"

	"fedgpo/internal/cli"
	"fedgpo/internal/data"
	"fedgpo/internal/nn"
	"fedgpo/internal/stats"
)

func main() {
	epochs := flag.Int("epochs", 10, "training epochs")
	batch := flag.Int("batch", 16, "minibatch size")
	perClass := flag.Int("samples", 60, "samples per class (10 classes)")
	rtFlags := cli.Register(flag.CommandLine)
	flag.Parse()

	if rtFlags.HandleListScenarios(os.Stdout) {
		return
	}
	// The trainer runs no simulation cells, but a misconfigured runtime
	// block should fail here like everywhere else, not be silently
	// accepted.
	if _, err := rtFlags.Runtime(); err != nil {
		fmt.Fprintln(os.Stderr, "fedgpo-train:", err)
		os.Exit(1)
	}

	const classes, side = 10, 8
	rng := stats.NewRNG(1)
	dataset := data.GaussianBlobs(classes, side*side, *perClass, 0.7, rng)
	train, test := data.TrainTestSplit(dataset, 0.2, rng)
	fmt.Printf("synthetic %d-class image task: %d train / %d test samples (%dx%d)\n",
		classes, len(train), len(test), side, side)

	model := nn.NewSequential(
		nn.NewConv2D(1, 8, 3, rng),
		&nn.ReLU{},
		&nn.MaxPool2D{},
		&nn.Flatten{},
		nn.NewDense(8*(side/2)*(side/2), 32, rng),
		&nn.ReLU{},
		nn.NewDense(32, classes, rng),
	)
	opt := nn.NewSGD(0.03, 0.9)

	evaluate := func(ds []data.Labeled) float64 {
		x := nn.NewTensor(len(ds), 1, side, side)
		labels := make([]int, len(ds))
		for i, s := range ds {
			copy(x.Data[i*side*side:(i+1)*side*side], s.X)
			labels[i] = s.Y
		}
		return nn.Accuracy(model.Forward(x), labels)
	}

	for epoch := 1; epoch <= *epochs; epoch++ {
		totalLoss, batches := 0.0, 0
		for i := 0; i+*batch <= len(train); i += *batch {
			x := nn.NewTensor(*batch, 1, side, side)
			labels := make([]int, *batch)
			for n := 0; n < *batch; n++ {
				copy(x.Data[n*side*side:(n+1)*side*side], train[i+n].X)
				labels[n] = train[i+n].Y
			}
			logits := model.Forward(x)
			loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
			model.Backward(grad)
			opt.Step(model.Params())
			totalLoss += loss
			batches++
		}
		fmt.Printf("epoch %2d  loss %.4f  test accuracy %.1f%%\n",
			epoch, totalLoss/float64(batches), 100*evaluate(test))
	}
}
