package eval

import (
	"fmt"
	"math"
	"time"

	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/sched"
	"nwade/internal/traffic"
)

// Fig6Row is one (intersection, density) measurement of blockchain
// management cost.
type Fig6Row struct {
	Kind    intersection.Kind
	Density float64
	Batch   int // plans per block at this density
	// PackageTime: Merkle root + RSA-2048 signature (IM side).
	PackageTime time.Duration
	// VerifyTime: signature + root + link + plan-conflict verification
	// (vehicle side, Algorithm 1).
	VerifyTime time.Duration
}

// Fig6Result reproduces Fig. 6: block packaging and verification time per
// intersection type and vehicle density. Unlike the protocol experiments
// this one measures real wall-clock cost of the paper's crypto (SHA-256,
// RSA-2048), which is substrate-independent.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6Densities are the density labels shown in the paper's Fig. 6.
var Fig6Densities = []float64{20, 80, 120}

func init() {
	Register("fig6", Meta{Desc: "Fig. 6 — blockchain cost per intersection kind", Order: 40},
		func(cfg Config) (Result, error) { return Fig6(cfg, nil) })
}

// Fig6 measures chain costs for every intersection kind. Nil densities
// uses the paper's {20, 80, 120}.
func Fig6(cfg Config, densities []float64) (*Fig6Result, error) {
	cfg = cfg.Normalize()
	if densities == nil {
		densities = Fig6Densities
	}
	signer, err := chain.NewSigner(chain.DefaultKeyBits)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{}
	for _, kind := range intersection.Kinds() {
		inter, err := intersection.Build(kind, intersection.Config{})
		if err != nil {
			return nil, err
		}
		for _, d := range densities {
			row, err := measureChainCost(signer, inter, d)
			if err != nil {
				return nil, fmt.Errorf("fig6 %v d=%v: %w", kind, d, err)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// measureChainCost builds a realistic batch for the density and times
// packaging and Algorithm 1 verification.
func measureChainCost(signer *chain.Signer, inter *intersection.Intersection, density float64) (Fig6Row, error) {
	// Batch size: arrivals in one batch window at this density, at
	// least one.
	batch := int(math.Max(1, math.Round(density/60)))
	// Realistic conflict-free plans from the real scheduler.
	g := traffic.NewGenerator(inter, traffic.Config{RatePerMin: density}, 42)
	ledger := sched.NewLedger(inter)
	var reqs []sched.Request
	for len(reqs) < batch {
		for _, a := range g.Until(time.Duration(len(reqs)+1) * 10 * time.Second) {
			reqs = append(reqs, sched.Request{
				Vehicle: a.Vehicle, Char: a.Char, Route: a.Route,
				ArriveAt: a.At, Speed: a.Speed,
			})
			if len(reqs) == batch {
				break
			}
		}
	}
	plans, err := (&sched.Reservation{}).Schedule(reqs, 0, ledger)
	if err != nil {
		return Fig6Row{}, err
	}
	const iters = 20
	// Packaging cost (IM side).
	var b *chain.Block
	sw := obs.StartStopwatch()
	for i := 0; i < iters; i++ {
		b, err = chain.Package(signer, nil, time.Second, plans)
		if err != nil {
			return Fig6Row{}, err
		}
	}
	pkg := sw.Elapsed() / iters
	// Verification cost (vehicle side, fresh cache each time).
	checker := &plan.ConflictChecker{Inter: inter}
	sw = obs.StartStopwatch()
	for i := 0; i < iters; i++ {
		c := chain.NewChain(signer.Public(), 0)
		if err := nwade.VerifyBlock(c, checker, b, nil); err != nil {
			return Fig6Row{}, err
		}
	}
	ver := sw.Elapsed() / iters
	return Fig6Row{
		Kind:        inter.Kind,
		Density:     density,
		Batch:       len(plans),
		PackageTime: pkg,
		VerifyTime:  ver,
	}, nil
}

// String renders the cost table.
func (f *Fig6Result) String() string {
	header := []string{"Intersection", "Density", "Plans/block", "Package", "Verify"}
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Kind.String(),
			fmt.Sprintf("%g/min", r.Density),
			fmt.Sprintf("%d", r.Batch),
			r.PackageTime.Round(10 * time.Microsecond).String(),
			r.VerifyTime.Round(10 * time.Microsecond).String(),
		})
	}
	return "Fig. 6 — Blockchain Management and Verification Time (RSA-2048, SHA-256)\n" + table(header, rows)
}
