package eval

import (
	"fmt"
	"time"

	"nwade/internal/attack"
	"nwade/internal/intersection"
	"nwade/internal/nwade"
	"nwade/internal/sim"
	"nwade/internal/units"
)

// The ablation experiments extend the paper's evaluation along the design
// choices DESIGN.md §6 calls out: the scheduler family NWADE runs over,
// the vehicles' sensing radius, packet loss, and the second verification
// round.

func init() {
	Register("ablation-scheduler", Meta{
		Desc:        "Ablation — detection across scheduler families",
		Group:       "ablations",
		MinDuration: 90 * time.Second,
		Order:       90,
	}, func(cfg Config) (Result, error) { return SchedulerAblation(cfg) })
	Register("ablation-sensing", Meta{
		Desc:        "Ablation — detection vs sensing radius",
		Group:       "ablations",
		MinDuration: 90 * time.Second,
		Order:       91,
	}, func(cfg Config) (Result, error) { return SensingSweep(cfg, nil) })
	Register("ablation-doublecheck", Meta{
		Desc:  "Ablation — double-check defense on/off under framing",
		Group: "ablations",
		Order: 92,
	}, func(cfg Config) (Result, error) { return DoubleCheckAblation(cfg) })
	Register("ablation-loss", Meta{
		Desc:        "Ablation — detection under per-receiver packet loss",
		Group:       "ablations",
		MinDuration: 90 * time.Second,
		Order:       93,
	}, func(cfg Config) (Result, error) { return PacketLoss(cfg, nil) })
}

// SchedulerAblationRow is one scheduler family's outcome under attack.
type SchedulerAblationRow struct {
	Scheduler  string
	Throughput float64
	Detected   int
	Rounds     int
}

// SchedulerAblationResult shows that NWADE detects attacks over every
// intersection-management family the paper names (Section III):
// reservation, traffic-light and platoon scheduling.
type SchedulerAblationResult struct {
	Rows []SchedulerAblationRow
	Cfg  Config
}

// SchedulerAblation runs the V1 attack over each scheduler family.
func SchedulerAblation(cfg Config) (*SchedulerAblationResult, error) {
	cfg = cfg.Normalize()
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	inter, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		return nil, err
	}
	// Rounds name their scheduler rather than share an instance:
	// sim.New builds one per round, so parallel rounds never write the
	// same scheduler.
	scheds := []string{"reservation", "traffic-light", "platoon"}
	sc, _ := attack.ByName("V1", cfg.AttackAt)
	var specs []simSpec
	for _, s := range scheds {
		for i := 0; i < cfg.Rounds; i++ {
			specs = append(specs, simSpec{
				label: fmt.Sprintf("ablation sched %s round %d", s, i),
				cfg: sim.Scenario{
					Inter: inter, Sched: s, Duration: cfg.Duration,
					RatePerMin: cfg.Density, Seed: cfg.BaseSeed + int64(i)*211,
					Attack: sc, NWADE: true,
				},
			})
		}
	}
	outs, err := r.runSpecs(specs)
	if err != nil {
		return nil, fmt.Errorf("scheduler ablation: %w", err)
	}
	out := &SchedulerAblationResult{Cfg: cfg}
	k := 0
	for _, s := range scheds {
		row := SchedulerAblationRow{Scheduler: s}
		for i := 0; i < cfg.Rounds; i++ {
			o := outs[k]
			k++
			row.Rounds++
			if detected(o) {
				row.Detected++
			}
			row.Throughput += o.res.Throughput()
		}
		row.Throughput /= float64(row.Rounds)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the ablation table.
func (a *SchedulerAblationResult) String() string {
	header := []string{"Scheduler", "Detection", "Throughput (veh/min)"}
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{r.Scheduler, pct(r.Detected, r.Rounds), fmt.Sprintf("%.1f", r.Throughput)})
	}
	return "Ablation — NWADE over different intersection managers (V1 attack)\n" + table(header, rows)
}

// SensingSweepRow is one sensing radius's detection outcome.
type SensingSweepRow struct {
	RadiusFt  float64
	Detected  int
	Rounds    int
	MeanDelay time.Duration
}

// SensingSweepResult reproduces the paper's sensing-radius sweep
// (Section VI-A varies 300–1000 ft).
type SensingSweepResult struct {
	Rows []SensingSweepRow
	Cfg  Config
}

// SensingSweep measures V1 detection across sensing radii.
func SensingSweep(cfg Config, radiiFt []float64) (*SensingSweepResult, error) {
	cfg = cfg.Normalize()
	if radiiFt == nil {
		radiiFt = []float64{300, 500, 700, 1000}
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	inter, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		return nil, err
	}
	sc, _ := attack.ByName("V1", cfg.AttackAt)
	var specs []simSpec
	for _, ft := range radiiFt {
		vcfg := nwade.DefaultVehicleConfig()
		vcfg.SensingRadius = units.Feet(ft)
		for i := 0; i < cfg.Rounds; i++ {
			specs = append(specs, simSpec{
				label: fmt.Sprintf("ablation sensing %gft round %d", ft, i),
				cfg: sim.Scenario{
					Inter: inter, Duration: cfg.Duration,
					RatePerMin: cfg.Density, Seed: cfg.BaseSeed + int64(i)*223,
					Attack: sc, NWADE: true, VehicleConfig: vcfg,
				},
			})
		}
	}
	outs, err := r.runSpecs(specs)
	if err != nil {
		return nil, fmt.Errorf("sensing sweep: %w", err)
	}
	out := &SensingSweepResult{Cfg: cfg}
	k := 0
	for _, ft := range radiiFt {
		row := SensingSweepRow{RadiusFt: ft}
		var delays []time.Duration
		for i := 0; i < cfg.Rounds; i++ {
			o := outs[k]
			k++
			row.Rounds++
			if detected(o) {
				row.Detected++
				if d, ok := detectionTime(o); ok {
					delays = append(delays, d)
				}
			}
		}
		var sum time.Duration
		for _, d := range delays {
			sum += d
		}
		if len(delays) > 0 {
			row.MeanDelay = sum / time.Duration(len(delays))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the sweep.
func (s *SensingSweepResult) String() string {
	header := []string{"Sensing radius", "Detection", "Mean latency"}
	var rows [][]string
	for _, r := range s.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g ft", r.RadiusFt),
			pct(r.Detected, r.Rounds),
			r.MeanDelay.Round(time.Millisecond).String(),
		})
	}
	return "Ablation — Sensing radius sweep (V1 attack)\n" + table(header, rows)
}

// DoubleCheckRow compares the voting defense with and without round 2.
type DoubleCheckRow struct {
	DoubleCheck    bool
	Rounds         int
	FalseTriggered int // framed benign vehicle still under evacuation at end
	Exposed        int // false alarm identified
}

// DoubleCheckResult isolates the paper's two-group defense: a V5
// coalition frames a benign vehicle; with the second round the false
// alarm is exposed, without it the first colluder-stacked majority
// stands.
type DoubleCheckResult struct {
	Rows []DoubleCheckRow
	Cfg  Config
}

// DoubleCheckAblation runs the framing attack with the defense on/off.
func DoubleCheckAblation(cfg Config) (*DoubleCheckResult, error) {
	cfg = cfg.Normalize()
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	inter, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		return nil, err
	}
	sc, _ := attack.ByName("V5", cfg.AttackAt)
	var specs []simSpec
	for _, enabled := range []bool{true, false} {
		imCfg := nwade.DefaultIMConfig()
		imCfg.DisableDoubleCheck = !enabled
		// Push verification into the voting path: a nearly blind
		// IM must rely on the verifier groups.
		imCfg.PerceptionRadius = 30
		for i := 0; i < cfg.Rounds; i++ {
			specs = append(specs, simSpec{
				label: fmt.Sprintf("ablation double-check=%v round %d", enabled, i),
				cfg: sim.Scenario{
					Inter: inter, Duration: cfg.Duration,
					RatePerMin: cfg.Density, Seed: cfg.BaseSeed + int64(i)*227,
					Attack: sc, NWADE: true, IMConfig: imCfg,
				},
			})
		}
	}
	outs, err := r.runSpecs(specs)
	if err != nil {
		return nil, fmt.Errorf("double-check ablation: %w", err)
	}
	out := &DoubleCheckResult{Cfg: cfg}
	k := 0
	for _, enabled := range []bool{true, false} {
		row := DoubleCheckRow{DoubleCheck: enabled}
		for i := 0; i < cfg.Rounds; i++ {
			o := outs[k]
			k++
			_, trig, det := typeAOutcome(o)
			row.Rounds++
			if trig && !det {
				row.FalseTriggered++
			}
			if det {
				row.Exposed++
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the comparison.
func (d *DoubleCheckResult) String() string {
	header := []string{"Double-check", "Unexposed false evacuations", "False alarms exposed"}
	var rows [][]string
	for _, r := range d.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%v", r.DoubleCheck),
			pct(r.FalseTriggered, r.Rounds),
			pct(r.Exposed, r.Rounds),
		})
	}
	return "Ablation — Two-group report verification (V5 framing attack, blind IM)\n" + table(header, rows)
}

// PacketLossRow is one loss rate's outcome.
type PacketLossRow struct {
	LossRate   float64
	Rounds     int
	Detected   int
	Recovered  int // rounds where block re-requests repaired the cache
	Throughput float64
}

// PacketLossResult exercises the paper's packet-loss story: lost blocks
// are re-requested from the IM or neighbors, and detection still works.
type PacketLossResult struct {
	Rows []PacketLossRow
	Cfg  Config
}

// PacketLoss sweeps the per-receiver drop rate under the V1 attack.
func PacketLoss(cfg Config, rates []float64) (*PacketLossResult, error) {
	cfg = cfg.Normalize()
	if rates == nil {
		rates = []float64{0, 0.01, 0.05, 0.10}
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	inter, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		return nil, err
	}
	sc, _ := attack.ByName("V1", cfg.AttackAt)
	var specs []simSpec
	for _, rate := range rates {
		for i := 0; i < cfg.Rounds; i++ {
			specs = append(specs, simSpec{
				label: fmt.Sprintf("ablation loss=%.2f round %d", rate, i),
				cfg: sim.Scenario{
					Inter: inter, Duration: cfg.Duration,
					RatePerMin: cfg.Density, Seed: cfg.BaseSeed + int64(i)*233,
					Attack: sc, NWADE: true,
					Net: vnetConfigWithLoss(rate),
				},
			})
		}
	}
	outs, err := r.runSpecs(specs)
	if err != nil {
		return nil, fmt.Errorf("packet loss: %w", err)
	}
	out := &PacketLossResult{Cfg: cfg}
	k := 0
	for _, rate := range rates {
		row := PacketLossRow{LossRate: rate}
		for i := 0; i < cfg.Rounds; i++ {
			o := outs[k]
			k++
			res := o.res
			row.Rounds++
			// Under loss, a dropped incident report degrades to the
			// reporter's fallback (self-evacuation plus a global
			// warning); count either path as detection.
			globals := res.Collector.DistinctActors(func(e nwade.Event) bool {
				return e.Type == nwade.EvGlobalSent && o.benignActor(e.Actor)
			})
			if detected(o) || len(globals) > 0 {
				row.Detected++
			}
			if res.Net.Packets[nwade.KindBlockResp] > 0 {
				row.Recovered++
			}
			row.Throughput += res.Throughput()
		}
		row.Throughput /= float64(row.Rounds)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the sweep.
func (p *PacketLossResult) String() string {
	header := []string{"Loss rate", "Detection", "Rounds w/ block re-requests", "Throughput"}
	var rows [][]string
	for _, r := range p.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", r.LossRate*100),
			pct(r.Detected, r.Rounds),
			pct(r.Recovered, r.Rounds),
			fmt.Sprintf("%.1f", r.Throughput),
		})
	}
	return "Ablation — Packet loss with block re-request recovery (V1 attack)\n" + table(header, rows)
}
