package roadnet

import (
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/intersection"
	"nwade/internal/sim"
)

// netScenario is a small, fast network scenario for tests.
func netScenario(network string, seed int64) sim.Scenario {
	return sim.Scenario{
		Network:    network,
		Duration:   20 * time.Second,
		RatePerMin: 80,
		Seed:       seed,
		Attack:     attack.Benign(),
		NWADE:      true,
		KeyBits:    1024,
	}
}

// TestTopologyProperties checks the structural invariants of every
// layout on a 3x3 grid: link endpoints exist, linked legs are real legs
// of both intersections, every link's entry leg has routes (so handoffs
// always find a destination), and links come in opposite-direction
// pairs.
func TestTopologyProperties(t *testing.T) {
	layouts := append(intersection.KindNameList(), "mix")
	for _, layout := range layouts {
		t.Run(layout, func(t *testing.T) {
			topo, err := BuildTopology(sim.Scenario{Network: "grid:3x3", Intersection: layout})
			if err != nil {
				t.Fatal(err)
			}
			if len(topo.Regions) != 9 {
				t.Fatalf("got %d regions, want 9", len(topo.Regions))
			}
			type pair struct{ a, b int }
			dir := make(map[pair]int)
			for _, lk := range topo.Links {
				if lk.From < 0 || lk.From >= 9 || lk.To < 0 || lk.To >= 9 {
					t.Fatalf("link %+v endpoints out of range", lk)
				}
				from, to := topo.Regions[lk.From], topo.Regions[lk.To]
				if lk.FromLeg < 0 || lk.FromLeg >= len(from.Inter.LegHeadings) {
					t.Errorf("link %+v: FromLeg not a leg of %s", lk, from.Inter.Name)
				}
				if lk.ToLeg < 0 || lk.ToLeg >= len(to.Inter.LegHeadings) {
					t.Errorf("link %+v: ToLeg not a leg of %s", lk, to.Inter.Name)
				}
				if abs(from.Row-to.Row)+abs(from.Col-to.Col) != 1 {
					t.Errorf("link %+v joins non-adjacent regions", lk)
				}
				if len(topo.EntryRoutes(lk.To, lk.ToLeg)) == 0 {
					t.Errorf("link %+v: no entry routes at destination leg", lk)
				}
				dir[pair{lk.From, lk.To}]++
			}
			for p, c := range dir {
				if c != 1 {
					t.Errorf("regions %d->%d have %d links, want 1", p.a, p.b, c)
				}
				if dir[pair{p.b, p.a}] != 1 {
					t.Errorf("link %d->%d has no reverse", p.a, p.b)
				}
			}
			// Every region must be reachable when every layout in play
			// offers a leg for all four compass directions. A 3-leg
			// layout cannot face four neighbors, so uniform grids of it
			// are legitimately not fully connected.
			full := true
			for _, reg := range topo.Regions {
				for _, leg := range matchLegs(reg.Inter) {
					if leg < 0 {
						full = false
					}
				}
			}
			if got := reachable(topo); full && got != len(topo.Regions) {
				t.Errorf("only %d of %d regions reachable from region 0", got, len(topo.Regions))
			} else if !full {
				t.Logf("%s: partial compass coverage, %d/%d reachable", layout, got, len(topo.Regions))
			}
			// Boundary legs and linked legs partition the leg set.
			for _, reg := range topo.Regions {
				linked := 0
				for leg := range reg.Inter.LegHeadings {
					if _, ok := topo.LinkFrom(reg.Index, leg); ok {
						linked++
					}
				}
				if linked+len(reg.BoundaryLegs) != len(reg.Inter.LegHeadings) {
					t.Errorf("region %d (%s): %d linked + %d boundary != %d legs",
						reg.Index, reg.Inter.Name, linked, len(reg.BoundaryLegs), len(reg.Inter.LegHeadings))
				}
			}
		})
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// reachable counts regions reachable from region 0 over links.
func reachable(t *Topology) int {
	seen := map[int]bool{0: true}
	frontier := []int{0}
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		for _, lk := range t.Links {
			if lk.From == i && !seen[lk.To] {
				seen[lk.To] = true
				frontier = append(frontier, lk.To)
			}
		}
	}
	return len(seen)
}

// TestCorridorIsRow checks that corridor:N builds a 1xN grid.
func TestCorridorIsRow(t *testing.T) {
	topo, err := BuildTopology(sim.Scenario{Network: "corridor:4"})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Rows != 1 || topo.Cols != 4 {
		t.Fatalf("corridor:4 built %dx%d", topo.Rows, topo.Cols)
	}
	if len(topo.Links) != 6 {
		t.Fatalf("corridor:4 has %d links, want 6", len(topo.Links))
	}
}

// TestHandoffConservation runs a 2x2 grid and checks vehicle-count
// conservation: every recorded exit is either a handoff or a network
// departure, and at least one vehicle demonstrably crossed between
// regions keeping its identity (an ID from another region's ID block).
func TestHandoffConservation(t *testing.T) {
	cfg := netScenario("grid:2x2", 1)
	cfg.Duration = 45 * time.Second
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := n.Run()
	st := n.Stats()
	var exited, spawned int
	for _, r := range results {
		exited += r.Exited
		spawned += r.Spawned
	}
	if exited != st.Handoffs+st.BoundaryExits {
		t.Errorf("exited %d != handoffs %d + boundary exits %d", exited, st.Handoffs, st.BoundaryExits)
	}
	if st.Handoffs == 0 {
		t.Fatal("no handoffs in 45s on a 2x2 grid")
	}
	if spawned < st.Handoffs {
		t.Errorf("spawned %d < handoffs %d: handoff re-entries must count as spawns", spawned, st.Handoffs)
	}
	foreign := 0
	for i := 0; i < n.Regions(); i++ {
		lo := uint64(1 + i*regionIDStride)
		hi := lo + regionIDStride
		for _, id := range n.Engine(i).PresentVehicles() {
			if uint64(id) < lo || uint64(id) >= hi {
				foreign++
			}
		}
	}
	if foreign == 0 {
		t.Error("no region hosts a vehicle from another region's ID block; handoffs lose identity")
	}
}

// TestWorkerCountInvariance is the network determinism pin: a 2x2 grid
// stepped by 1 worker and by 4 workers must digest bit-identically. Both
// paths must also time every region's steps (RegionWall, which the
// benchmark reads for region imbalance).
func TestWorkerCountInvariance(t *testing.T) {
	digests := make([]string, 2)
	for i, workers := range []int{1, 4} {
		cfg := netScenario("grid:2x2", 3)
		cfg.Duration = 35 * time.Second
		cfg.Workers = workers
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		digests[i] = n.Digest()
		for r, wall := range n.RegionWall() {
			if wall <= 0 {
				t.Errorf("%d workers: region %d RegionWall = %v, want its summed step time", workers, r, wall)
			}
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("digest differs across worker counts:\n  1 worker : %s\n  4 workers: %s", digests[0], digests[1])
	}
}

// TestNetworkCheckpointRoundTrip snapshots a 2x2 run mid-flight, encodes
// the state to JSON and back, restores, and checks the resumed run
// digests identically to the continuous one.
func TestNetworkCheckpointRoundTrip(t *testing.T) {
	cfg := netScenario("grid:2x2", 5)
	cfg.Duration = 40 * time.Second
	cfg.Attack = attack.Scenario{Name: "V3", MaliciousVehicles: 3, PlanViolations: 1, FalseReports: 2, AttackAt: 5 * time.Second}
	cont, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cont.Now() < 20*time.Second {
		cont.Step()
	}
	st, err := cont.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := DecodeState(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical encoding: re-encoding the decoded state is bit-identical.
	raw2, err := st2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Error("state encoding is not canonical across a decode round trip")
	}
	res, err := Restore(cfg, st2)
	if err != nil {
		t.Fatal(err)
	}
	cont.Run()
	res.Run()
	if cont.Digest() != res.Digest() {
		t.Errorf("restored run diverged:\n  continuous: %s\n  restored  : %s", cont.Digest(), res.Digest())
	}
}

// TestReportPropagation pins the neighborhood-watch escalation across a
// corridor: the attack region confirms a suspect, the cross report
// travels hop by hop, and with AdvisoryReports at the global quorum the
// remote regions' vehicles treat it as a confirmed global threat.
func TestReportPropagation(t *testing.T) {
	cfg := netScenario("corridor:3", 7)
	cfg.Duration = 40 * time.Second
	cfg.Attack = attack.Scenario{Name: "V3", MaliciousVehicles: 3, PlanViolations: 1, FalseReports: 2, AttackAt: 10 * time.Second}
	cfg.AttackRegion = 0
	cfg.AdvisoryReports = 3 // DefaultVehicleConfig().GlobalQuorum
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	st := n.Stats()
	if st.Reports == 0 {
		t.Fatal("attack region never originated a cross report")
	}
	// Find a suspect the attack region reported and follow it down the
	// corridor: hop distance must grow with region index and arrival
	// times must be ordered.
	var suspect bool
	for s, seen0 := range n.regs[0].firstSeen {
		if seen0.Hop != 0 {
			continue
		}
		suspect = true
		prevAt := seen0.At
		for i := 1; i < n.Regions(); i++ {
			seen, ok := n.FirstSeen(i, s)
			if !ok {
				t.Errorf("region %d never learned of suspect %v", i, s)
				continue
			}
			if seen.Hop != i {
				t.Errorf("region %d learned of %v over %d hops, want %d", i, s, seen.Hop, i)
			}
			if seen.At < prevAt {
				t.Errorf("region %d learned of %v at %v, before region %d's %v", i, s, seen.At, i-1, prevAt)
			}
			prevAt = seen.At
		}
	}
	if !suspect {
		t.Fatal("attack region has no hop-0 suspect entry")
	}
	if st.Advisories == 0 {
		t.Error("no advisory reports injected downstream")
	}
	if st.HeadBeacons == 0 || st.HeadMismatches != 0 {
		t.Errorf("head exchange: %d beacons, %d mismatches (want >0, 0)", st.HeadBeacons, st.HeadMismatches)
	}
}

// TestDigestStability pins that the digest covers the cross-region
// counters: two different seeds must not digest equal.
func TestDigestStability(t *testing.T) {
	var prev string
	for seed := int64(11); seed <= 12; seed++ {
		n, err := New(netScenario("grid:2x2", seed))
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		d := n.Digest()
		if d == prev {
			t.Errorf("seeds %d and %d digest equal: %s", seed-1, seed, d)
		}
		prev = d
	}
}

// TestRejectsSingleIntersection pins the API boundary with sim.New.
func TestRejectsSingleIntersection(t *testing.T) {
	if _, err := New(sim.Scenario{}); err == nil {
		t.Fatal("roadnet.New accepted a single-intersection scenario")
	}
	if _, err := New(sim.Scenario{Network: "grid:0x9"}); err == nil {
		t.Fatal("roadnet.New accepted a degenerate grid")
	}
	if _, err := New(sim.Scenario{Network: "blob:3"}); err == nil {
		t.Fatal("roadnet.New accepted an unknown topology")
	}
	cfg := netScenario("grid:2x2", 1)
	cfg.AttackRegion = 4
	if _, err := New(cfg); err == nil {
		t.Fatal("roadnet.New accepted an out-of-range attack region")
	}
}

// TestNoGatewayVehicles checks the synthetic advisory reporter IDs never
// materialize as physical vehicles in any region.
func TestNoGatewayVehicles(t *testing.T) {
	cfg := netScenario("grid:2x2", 21)
	cfg.Attack, _ = attack.ByName("V3", 5*time.Second)
	cfg.Duration = 15 * time.Second
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	for i := 0; i < n.Regions(); i++ {
		for _, id := range n.Engine(i).PresentVehicles() {
			if uint64(id) >= gatewayIDBase {
				t.Fatalf("region %d hosts a gateway pseudo-ID %v", i, id)
			}
		}
	}
}
