package eval

import (
	"fmt"

	"nwade/internal/nwade"
)

// Eq2Result tabulates the paper's Eq. 2 detection-probability model.
type Eq2Result struct {
	PV    float64
	Omega float64
	K     []int
	PD    []float64
}

func init() {
	// The closed-form curves take the paper's worked-example parameters;
	// they ignore the sweep config entirely.
	Register("eq2", Meta{Desc: "Eq. 2 — analytic detection probability vs coalition size", Order: 70},
		func(Config) (Result, error) { return Eq2(0.1, 5, 12), nil })
	Register("eq3", Meta{Desc: "Eq. 3 — analytic self-evacuation probability vs coalition size", Order: 71},
		func(Config) (Result, error) { return Eq3(0.001, 0.1, 15), nil })
}

// Eq2 evaluates P_d over a range of coalition sizes.
func Eq2(pv, omega float64, maxK int) *Eq2Result {
	if maxK < 1 {
		maxK = 10
	}
	out := &Eq2Result{PV: pv, Omega: omega}
	for k := 1; k <= maxK; k++ {
		out.K = append(out.K, k)
		out.PD = append(out.PD, nwade.DetectProbability(k, pv, omega))
	}
	return out
}

// String renders the curve.
func (e *Eq2Result) String() string {
	header := []string{"k (colluders)", "P_d"}
	var rows [][]string
	for i, k := range e.K {
		rows = append(rows, []string{fmt.Sprintf("%d", k), fmt.Sprintf("%.6f", e.PD[i])})
	}
	return fmt.Sprintf("Eq. 2 — Detection probability (pv=%.2f, omega=%.1f)\n%s",
		e.PV, e.Omega, table(header, rows))
}

// Eq3Result tabulates the paper's Eq. 3 self-evacuation probability.
type Eq3Result struct {
	PIM, PVLoc float64
	K          []int
	PE         []float64
}

// Eq3 evaluates P_e for the paper's worked example parameters.
func Eq3(pim, pvloc float64, maxK int) *Eq3Result {
	if maxK < 1 {
		maxK = 15
	}
	out := &Eq3Result{PIM: pim, PVLoc: pvloc}
	for k := 1; k <= maxK; k++ {
		out.K = append(out.K, k)
		out.PE = append(out.PE, nwade.SelfEvacProbability(pim, pvloc, 1.0, k))
	}
	return out
}

// String renders the curve, highlighting the paper's k=11 example.
func (e *Eq3Result) String() string {
	header := []string{"k (majority colluders)", "P_e"}
	var rows [][]string
	for i, k := range e.K {
		mark := ""
		if k == 11 {
			mark = "  <- paper example (~0.1%)"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", k), fmt.Sprintf("%.6f%s", e.PE[i], mark)})
	}
	return fmt.Sprintf("Eq. 3 — Self-evacuation probability (pim=%.4f, pv*ploc=%.2f)\n%s",
		e.PIM, e.PVLoc, table(header, rows))
}
