// Network-scale experiments: how the neighborhood watch behaves when
// intersections are composed into a city grid. These extend the paper's
// single-intersection evaluation along the axis its discussion section
// sketches — attack information propagating between intersection
// managers — using the roadnet engine.
package eval

import (
	"fmt"
	"time"

	"nwade/internal/attack"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/roadnet"
	"nwade/internal/sim"
)

func init() {
	Register("netevac", Meta{
		Desc:        "Network-wide alert coverage latency vs network size",
		Group:       "network",
		MinDuration: 60 * time.Second,
		Order:       130,
	}, func(cfg Config) (Result, error) { return NetEvac(cfg) })
	Register("netprop", Meta{
		Desc:        "Cross-intersection report latency and remote evacuation vs hop distance",
		Group:       "network",
		MinDuration: 60 * time.Second,
		Order:       131,
	}, func(cfg Config) (Result, error) { return NetProp(cfg) })
}

// netScenario is the common network round setup: a V3 coalition in
// region 0, advisory strength at the vehicles' global quorum so a
// relayed report is actionable on its own, under the harness's fault
// profile and resilience switch.
func netScenario(cfg Config, network string, seed int64) sim.Scenario {
	sc, _ := attack.ByName("V3", cfg.AttackAt)
	return cfg.applyHarness(sim.Scenario{
		Network:         network,
		Duration:        cfg.Duration,
		RatePerMin:      cfg.Density,
		Seed:            seed,
		Attack:          sc,
		AttackRegion:    0,
		NWADE:           true,
		KeyBits:         cfg.KeyBits,
		AdvisoryReports: nwade.DefaultVehicleConfig().GlobalQuorum,
	})
}

// netCell is one round of a network experiment.
type netCell struct {
	network string
	round   int
}

// runNetRounds runs cfg.Rounds rounds of every network across the
// worker pool and returns the outcomes network by network, rounds in
// order. exp names the experiment in error messages.
func runNetRounds(cfg Config, exp string, networks []string) ([]*netRound, error) {
	var cells []netCell
	for _, network := range networks {
		for round := 0; round < cfg.Rounds; round++ {
			cells = append(cells, netCell{network: network, round: round})
		}
	}
	return RunCells(cfg.Workers, cells, func(c netCell) (*netRound, error) {
		r, err := runNetRound(netScenario(cfg, c.network, cfg.BaseSeed+int64(c.round)), cfg.Obs)
		if err != nil {
			return nil, fmt.Errorf("%s %s round %d: %w", exp, c.network, c.round, err)
		}
		return r, nil
	})
}

// netRound is one network run's distilled outcome.
type netRound struct {
	originAt time.Duration         // when region 0 confirmed the suspect (hop 0)
	seenAt   map[int]time.Duration // region -> first knowledge of the suspect
	quorumAt map[int]time.Duration // region -> first remote evacuation (suspect quorum)
	regions  int
	detected bool
}

// runNetRound executes one network round and extracts, for the first
// suspect region 0 reported, when every other region learned of it and
// when its vehicles acted on it.
func runNetRound(cfg sim.Scenario, sink *obs.Sink) (*netRound, error) {
	n, err := roadnet.New(cfg, roadnet.WithObs(sink))
	if err != nil {
		return nil, err
	}
	results := n.Run()
	out := &netRound{
		seenAt:   make(map[int]time.Duration),
		quorumAt: make(map[int]time.Duration),
		regions:  n.Regions(),
	}
	// The origin's earliest hop-0 suspect is the reference event. The
	// knowledge table persists after suspects leave, unlike the IM's
	// live suspect set.
	first := time.Duration(-1)
	for _, entry := range n.SuspectsSeen(0) {
		if entry.Hop != 0 {
			continue
		}
		if first < 0 || entry.At < first {
			first = entry.At
		}
		for i := 1; i < n.Regions(); i++ {
			if rs, ok := n.FirstSeen(i, entry.Suspect); ok {
				if cur, ok := out.seenAt[i]; !ok || rs.At < cur {
					out.seenAt[i] = rs.At
				}
			}
		}
	}
	if first < 0 {
		return out, nil
	}
	out.detected = true
	out.originAt = first
	for i, res := range results {
		if i == 0 {
			continue
		}
		if ev, ok := res.Collector.First(nwade.EvSuspectQuorum); ok && ev.At >= first {
			out.quorumAt[i] = ev.At
		}
	}
	return out, nil
}

// --- netevac -----------------------------------------------------------

// NetEvacRow aggregates one network size.
type NetEvacRow struct {
	Network  string
	Regions  int
	Rounds   int
	Detected int
	// Covered counts rounds where every region learned of the suspect.
	Covered int
	// CoverageLatency is the mean time from the origin's confirmation to
	// the last region's first knowledge, over covered rounds.
	CoverageLatency time.Duration
	// RemoteEvacRegions is the mean number of non-origin regions whose
	// vehicles reached the suspect quorum (acted on the alert).
	RemoteEvacRegions float64
}

// NetEvacResult is the network-size sweep.
type NetEvacResult struct {
	Rounds int
	Rows   []NetEvacRow
}

// NetEvac measures how alert coverage scales with network size: a V3
// coalition attacks region 0 and the row records how long the resulting
// cross-intersection report takes to reach the whole network, and how
// many remote regions act on it.
func NetEvac(cfg Config) (*NetEvacResult, error) {
	cfg = cfg.Normalize()
	if cfg.Rounds > 3 {
		cfg.Rounds = 3
	}
	networks := []string{"corridor:2", "grid:2x2", "grid:2x3", "grid:3x3"}
	rounds, err := runNetRounds(cfg, "netevac", networks)
	if err != nil {
		return nil, err
	}
	out := &NetEvacResult{Rounds: cfg.Rounds}
	for i, network := range networks {
		row := NetEvacRow{Network: network, Rounds: cfg.Rounds}
		var latSum time.Duration
		var evacSum int
		for _, r := range rounds[i*cfg.Rounds : (i+1)*cfg.Rounds] {
			row.Regions = r.regions
			if !r.detected {
				continue
			}
			row.Detected++
			evacSum += len(r.quorumAt)
			if len(r.seenAt) == r.regions-1 {
				row.Covered++
				var worst time.Duration
				for _, at := range r.seenAt {
					if d := at - r.originAt; d > worst {
						worst = d
					}
				}
				latSum += worst
			}
		}
		if row.Covered > 0 {
			row.CoverageLatency = latSum / time.Duration(row.Covered)
		}
		if row.Detected > 0 {
			row.RemoteEvacRegions = float64(evacSum) / float64(row.Detected)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the network-size table.
func (r *NetEvacResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Network,
			fmt.Sprintf("%d", row.Regions),
			pct(row.Detected, row.Rounds),
			pct(row.Covered, row.Rounds),
			fmt.Sprintf("%v", row.CoverageLatency.Round(10*time.Millisecond)),
			fmt.Sprintf("%.1f", row.RemoteEvacRegions),
		})
	}
	return "Network-wide alert coverage vs network size (V3 in region 0, " +
		fmt.Sprintf("%d rounds)\n", r.Rounds) +
		table([]string{"network", "regions", "detected", "full coverage", "coverage latency", "remote evac regions"}, rows)
}

// --- netprop -----------------------------------------------------------

// NetPropRow aggregates one hop distance on the corridor.
type NetPropRow struct {
	Hop    int
	Rounds int
	// Reached counts rounds where the region at this hop learned of the
	// suspect at all.
	Reached int
	// ReportLatency is the mean origin-to-knowledge delay.
	ReportLatency time.Duration
	// EvacLatency is the mean origin-to-quorum delay over rounds where
	// the region's vehicles acted; Evacuated counts those rounds.
	EvacLatency time.Duration
	Evacuated   int
}

// NetPropResult is the hop-distance sweep.
type NetPropResult struct {
	Network string
	Rounds  int
	Rows    []NetPropRow
}

// NetProp measures report propagation along a corridor: how the
// cross-intersection gossip's latency — and the remote evacuations it
// triggers — grow with hop distance from the attacked intersection.
func NetProp(cfg Config) (*NetPropResult, error) {
	cfg = cfg.Normalize()
	if cfg.Rounds > 3 {
		cfg.Rounds = 3
	}
	const network = "corridor:4"
	out := &NetPropResult{Network: network, Rounds: cfg.Rounds}
	type agg struct {
		reached, evacuated int
		repSum, evacSum    time.Duration
	}
	rounds, err := runNetRounds(cfg, "netprop", []string{network})
	if err != nil {
		return nil, err
	}
	var hops []agg
	for _, r := range rounds {
		if hops == nil {
			hops = make([]agg, r.regions)
		}
		if !r.detected {
			continue
		}
		// On a corridor, region index == hop distance from region 0.
		for i := 1; i < r.regions; i++ {
			if at, ok := r.seenAt[i]; ok {
				hops[i].reached++
				hops[i].repSum += at - r.originAt
			}
			if at, ok := r.quorumAt[i]; ok {
				hops[i].evacuated++
				hops[i].evacSum += at - r.originAt
			}
		}
	}
	for i := 1; i < len(hops); i++ {
		row := NetPropRow{Hop: i, Rounds: cfg.Rounds, Reached: hops[i].reached, Evacuated: hops[i].evacuated}
		if row.Reached > 0 {
			row.ReportLatency = hops[i].repSum / time.Duration(row.Reached)
		}
		if row.Evacuated > 0 {
			row.EvacLatency = hops[i].evacSum / time.Duration(row.Evacuated)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the hop-distance table.
func (r *NetPropResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		evac := "n/a"
		if row.Evacuated > 0 {
			evac = fmt.Sprintf("%v", row.EvacLatency.Round(10*time.Millisecond))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Hop),
			pct(row.Reached, row.Rounds),
			fmt.Sprintf("%v", row.ReportLatency.Round(10*time.Millisecond)),
			pct(row.Evacuated, row.Rounds),
			evac,
		})
	}
	return fmt.Sprintf("Report propagation vs hop distance (%s, V3 in region 0, %d rounds)\n", r.Network, r.Rounds) +
		table([]string{"hop", "reached", "report latency", "evacuated", "evac latency"}, rows)
}
