// Multi-fidelity modelling without optimization (the paper's Figure 1
// experiment): fit the nonlinear fusion model on the pedagogical pair and
// compare its accuracy against a single-fidelity GP trained on the expensive
// points alone.
//
//	go run ./examples/mfmodel
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mfgp"
	"repro/internal/testfunc"
)

func main() {
	// 50 cheap observations of f_l(x) = sin(8πx)…
	var Xl [][]float64
	var yl []float64
	for i := 0; i < 50; i++ {
		x := float64(i) / 49
		Xl = append(Xl, []float64{x})
		yl = append(yl, testfunc.PedagogicalLow(x))
	}
	// …and only 14 expensive observations of f_h(x) = (x−√2)·f_l(x)².
	var Xh [][]float64
	var yh []float64
	for i := 0; i < 14; i++ {
		x := float64(i) / 13
		Xh = append(Xh, []float64{x})
		yh = append(yh, testfunc.PedagogicalHigh(x))
	}

	noise := 1e-6
	rng := rand.New(rand.NewSource(2))
	fused, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
		Restarts: 3, FixedNoise: &noise,
		Propagation: mfgp.MonteCarlo, NumSamples: 50,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	single, err := gp.Fit(Xh, yh, gp.Config{
		Kernel: kernel.NewSEARD(1), Restarts: 3, FixedNoise: &noise,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	var mfSq, sfSq float64
	const n = 201
	for i := 0; i < n; i++ {
		x := float64(i) / (n - 1)
		truth := testfunc.PedagogicalHigh(x)
		muMF, _ := fused.Predict([]float64{x})
		muSF, _ := single.PredictLatent([]float64{x})
		mfSq += (muMF - truth) * (muMF - truth)
		sfSq += (muSF - truth) * (muSF - truth)
	}
	mfRMSE := math.Sqrt(mfSq / n)
	sfRMSE := math.Sqrt(sfSq / n)

	fmt.Println("pedagogical pair: f_l = sin(8πx), f_h = (x−√2)·f_l²")
	fmt.Printf("training data: %d low-fidelity + %d high-fidelity points\n", len(Xl), len(Xh))
	fmt.Printf("multi-fidelity RMSE:  %.4f\n", mfRMSE)
	fmt.Printf("single-fidelity RMSE: %.4f\n", sfRMSE)
	fmt.Printf("improvement: %.0f× more accurate with the same expensive data\n", sfRMSE/mfRMSE)
}
