// Command figures regenerates the data behind the paper's figures:
//
//	figures -fig 1   multi-fidelity vs single-fidelity GP posterior (CSV)
//	figures -fig 2   multi-fidelity posterior + EI acquisition (CSV)
//	figures -fig 3   nonlinear low/high-fidelity PA correlation (CSV)
//	figures -fig 4   charge-pump schematic netlist (text)
//
// CSV series go to stdout; plot with any tool.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mfgp"
	"repro/internal/problem"
	"repro/internal/testbench"
	"repro/internal/testfunc"
)

func main() {
	log.SetFlags(0)
	fig := flag.Int("fig", 1, "figure number to regenerate (1-4)")
	seed := flag.Int64("seed", 1, "random seed")
	points := flag.Int("points", 201, "grid resolution for CSV output")
	flag.Parse()

	switch *fig {
	case 1:
		figure1(*seed, *points)
	case 2:
		figure2(*seed, *points)
	case 3:
		figure3(*points)
	case 4:
		figure4()
	default:
		log.Fatalf("figures: unknown figure %d (want 1-4)", *fig)
	}
}

// pedagogicalModels fits the fused two-fidelity model and the 14-point
// single-fidelity GP of the paper's Figure 1.
func pedagogicalModels(seed int64) (*mfgp.MultiLevel, *gp.Model) {
	var Xl, Xh [][]float64
	var yl, yh []float64
	for i := 0; i < 50; i++ {
		x := float64(i) / 49
		Xl = append(Xl, []float64{x})
		yl = append(yl, testfunc.PedagogicalLow(x))
	}
	for i := 0; i < 14; i++ {
		x := float64(i) / 13
		Xh = append(Xh, []float64{x})
		yh = append(yh, testfunc.PedagogicalHigh(x))
	}
	noise := 1e-6
	rng := rand.New(rand.NewSource(seed))
	mf, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
		Restarts: 3, FixedNoise: &noise, Propagation: mfgp.MonteCarlo, NumSamples: 50,
	}, rng)
	if err != nil {
		log.Fatalf("figures: fusion fit: %v", err)
	}
	single, err := gp.Fit(Xh, yh, gp.Config{
		Kernel: kernel.NewSEARD(1), Restarts: 3, FixedNoise: &noise,
	}, rng)
	if err != nil {
		log.Fatalf("figures: single-fidelity fit: %v", err)
	}
	return mf, single
}

// figure1 emits the posterior comparison of the paper's Figure 1.
func figure1(seed int64, points int) {
	mf, single := pedagogicalModels(seed)
	fmt.Println("x,exact_high,mf_mean,mf_lo3sd,mf_hi3sd,sf_mean,sf_lo3sd,sf_hi3sd")
	for i := 0; i < points; i++ {
		x := float64(i) / float64(points-1)
		exact := testfunc.PedagogicalHigh(x)
		mu, va := mf.Predict([]float64{x})
		sd := 3 * math.Sqrt(math.Max(va, 0))
		mu2, va2 := single.PredictLatent([]float64{x})
		sd2 := 3 * math.Sqrt(math.Max(va2, 0))
		fmt.Printf("%.4f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			x, exact, mu, mu-sd, mu+sd, mu2, mu2-sd2, mu2+sd2)
	}
	fmt.Fprintln(os.Stderr, "figure 1: multi-fidelity vs single-fidelity posterior written")
}

// figure2 emits the posterior + EI curves of the paper's Figure 2.
func figure2(seed int64, points int) {
	mf, _ := pedagogicalModels(seed)
	// Incumbent: best high-fidelity training value.
	tau := math.Inf(1)
	for i := 0; i < 14; i++ {
		if v := testfunc.PedagogicalHigh(float64(i) / 13); v < tau {
			tau = v
		}
	}
	fmt.Println("x,exact_high,mf_mean,mf_lo3sd,mf_hi3sd,ei")
	for i := 0; i < points; i++ {
		x := float64(i) / float64(points-1)
		mu, va := mf.Predict([]float64{x})
		sd := 3 * math.Sqrt(math.Max(va, 0))
		ei := acq.EI(mu, va, tau)
		fmt.Printf("%.4f,%.6f,%.6f,%.6f,%.6f,%.8g\n",
			x, testfunc.PedagogicalHigh(x), mu, mu-sd, mu+sd, ei)
	}
	fmt.Fprintln(os.Stderr, "figure 2: posterior + EI written (incumbent τ =", tau, ")")
}

// figure3 emits the PA Vb sweep of the paper's Figure 3: efficiency at both
// fidelities with the other four design variables fixed.
func figure3(points int) {
	pa := testbench.NewPowerAmp()
	x := []float64{12.94, 0.77, 0.42, 1.66, 0} // Cs, Cp, W, Vdd fixed
	fmt.Println("vb,eff_low,eff_high")
	for i := 0; i < points; i++ {
		vb := 1.0 + float64(i)/float64(points-1)
		x[4] = vb
		l := pa.Simulate(x, problem.Low)
		h := pa.Simulate(x, problem.High)
		fmt.Printf("%.4f,%.4f,%.4f\n", vb, l.EffPct, h.EffPct)
	}
	fmt.Fprintln(os.Stderr, "figure 3: low/high fidelity Vb sweep written")
}

// figure4 prints the charge-pump netlist (the paper's schematic, Figure 4).
func figure4() {
	cp := testbench.NewChargePump()
	// Mid-range sizing for the listing.
	x := make([]float64, cp.Dim())
	for k := 0; k < cp.Dim()/2; k++ {
		x[2*k], x[2*k+1] = 10, 0.2
	}
	ckt := cp.Netlist(x, testbench.NominalCorner(), true, false, 0.9)
	fmt.Println("* Charge pump core (paper Figure 4), nominal corner, UP phase")
	fmt.Print(ckt.String())
	fmt.Println("* Design variables (width, length per transistor):")
	for i, n := range testbench.TransistorNames() {
		fmt.Printf("*   x[%2d], x[%2d]: %s W/L\n", 2*i, 2*i+1, n)
	}
}
