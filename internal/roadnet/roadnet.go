package roadnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/sim"
	"nwade/internal/traffic"
	"nwade/internal/units"
	"nwade/internal/vnet"
)

// regionIDStride separates the vehicle-ID spaces of adjacent regions:
// region i's generator starts at 1 + i<<20, so IDs stay globally unique
// up to a million vehicles per region and region 0 reproduces the
// classic single-intersection stream bit for bit.
const regionIDStride = 1 << 20

// gatewayIDBase is where the synthetic reporter IDs used for advisory
// global reports live: far above any real vehicle ID, encoding the
// origin region and the advisory index so every advisory has a distinct
// reporter (the vehicle cores count distinct reporters toward the
// global quorum).
const gatewayIDBase = uint64(1) << 40

// backboneSeedOffset separates the backbone's RNG stream from every
// per-region stream (regions use Seed + 1000*i, engines derive +1/+2).
const backboneSeedOffset = 999983

// The cross-region exchange: every exchangeEvery the regions beacon
// their chain heads and gossip newly confirmed suspects to their
// neighbors, and a vehicle that leaves a region on a linked leg enters
// the neighbor linkDelay later. A cross report travels at most the
// topology's diameter in hops.
const (
	exchangeEvery = time.Second
	linkDelay     = 2 * time.Second
)

// KindHeadBeacon and KindCrossReport are the backbone message kinds.
const (
	KindHeadBeacon  = "head-beacon"
	KindCrossReport = "cross-report"
)

// Backbone message sizes (bytes, for load stats): a head beacon is a
// sequence number plus a hash; a cross report is a compact suspect
// descriptor.
const (
	sizeHeadBeacon  = 48
	sizeCrossReport = 64
)

// HeadMsg is a chain-head beacon: region Region advertises that its
// plan chain's head block is Seq with the given hash. Neighbors keep
// the latest per origin and flag any same-Seq hash disagreement — the
// cross-intersection consistency check.
type HeadMsg struct {
	Region int
	Seq    uint64
	Hash   string
	At     time.Duration
}

// CrossReport is a gossiped cross-intersection attack report: region
// Origin confirmed Suspect at time At, and this copy has traversed Hop
// links. Receivers translate it into advisory global reports on their
// local VANET and relay it while Hop is within the TTL.
type CrossReport struct {
	Origin  int
	Suspect plan.VehicleID
	Reason  nwade.GlobalReason
	At      time.Duration
	Hop     int
}

// Seen records when and via how many hops a region first learned of a
// suspect (hop 0 = its own IM confirmed it).
type Seen struct {
	At  time.Duration
	Hop int
}

// Stats counts the cross-region traffic of a network run. All fields
// are deterministic per scenario.
type Stats struct {
	// Handoffs is the number of vehicles carried across links.
	Handoffs int
	// BoundaryExits is the number of vehicles that left the network.
	BoundaryExits int
	// Reports is the number of distinct (origin, suspect) cross reports
	// originated.
	Reports int
	// ReportRelays counts gossip transmissions (originations included).
	ReportRelays int
	// Advisories counts advisory global reports injected into regional
	// VANETs on behalf of remote IMs.
	Advisories int
	// HeadBeacons counts chain-head beacons sent on the backbone.
	HeadBeacons int
	// HeadMismatches counts same-sequence hash disagreements observed by
	// receivers — zero in every honest run.
	HeadMismatches int
}

// region is one intersection's runtime state inside the network.
//
//lint:checkpoint-state encode=Network.Snapshot decode=Restore derived=idx,node,wall
type region struct {
	idx  int
	eng  *sim.Engine
	node vnet.NodeID
	// firstSeen is the suspect knowledge table: every suspect this
	// region knows of, with first-learned time and hop distance. Keys
	// double as the gossip dedup set.
	firstSeen map[plan.VehicleID]Seen
	// heads is the latest chain-head beacon per origin region.
	heads map[int]HeadMsg
	// wall accumulates this region's Step wall time (imbalance stats
	// only — never fed back into the simulation).
	wall time.Duration
}

// Network is a multi-intersection road-network simulation.
//
//lint:checkpoint-state encode=Network.Snapshot decode=Restore
//lint:checkpoint-state derived=cfg,topo,byNode,workers,ttl,pollBuf
type Network struct {
	cfg     sim.Scenario
	topo    *Topology
	regs    []*region
	byNode  map[vnet.NodeID]int
	back    *vnet.Network
	now     time.Duration
	workers int
	ttl     int
	stats   Stats

	pollBuf []vnet.Delivery
}

// Option configures network construction.
type Option func(*options)

type options struct {
	signers []*chain.Signer
	obs     *obs.Sink
}

// WithSigners supplies pre-generated per-region signing keys (index =
// region index). Key generation is the expensive part of construction,
// and the replay bisector needs a rebuilt network whose regions carry
// the checkpointed keys so state digests compare bit for bit.
func WithSigners(ss []*chain.Signer) Option {
	return func(o *options) { o.signers = ss }
}

// WithObs attaches an observability sink shared by every region engine.
// The sink is concurrency-safe, so parallel region ticks may interleave
// their trace records; digests are observability-blind either way.
func WithObs(s *obs.Sink) Option {
	return func(o *options) { o.obs = s }
}

// New builds the road network a scenario describes. The scenario must
// have Network set ("grid:RxC" or "corridor:N"); sim.New handles the
// single-intersection case.
func New(cfg sim.Scenario, opts ...Option) (*Network, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n, scens, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if o.signers != nil && len(o.signers) != len(scens) {
		return nil, fmt.Errorf("roadnet: %d signers for %d regions", len(o.signers), len(scens))
	}
	for i, rc := range scens {
		simOpts := o.simOptions(i)
		eng, err := sim.New(rc, simOpts...)
		if err != nil {
			return nil, fmt.Errorf("roadnet: region %d: %w", i, err)
		}
		n.regs[i].eng = eng
	}
	return n, nil
}

// simOptions translates the network options into region i's engine
// options.
func (o *options) simOptions(i int) []sim.Option {
	var simOpts []sim.Option
	if o.signers != nil {
		simOpts = append(simOpts, sim.WithSigner(o.signers[i]))
	}
	if o.obs != nil {
		simOpts = append(simOpts, sim.WithObs(o.obs))
	}
	return simOpts
}

// build constructs everything but the engines: topology, backbone, and
// the per-region scenarios. Shared by New and Restore so both derive
// identical wiring.
func build(cfg sim.Scenario) (*Network, []sim.Scenario, error) {
	if !cfg.IsNetwork() {
		return nil, nil, fmt.Errorf("roadnet: scenario is a single intersection; build it with sim.New")
	}
	cfg = cfg.Normalize()
	topo, err := BuildTopology(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.AttackRegion < 0 || cfg.AttackRegion >= len(topo.Regions) {
		return nil, nil, fmt.Errorf("roadnet: attack region %d out of range [0,%d)", cfg.AttackRegion, len(topo.Regions))
	}
	n := &Network{
		cfg:     cfg,
		topo:    topo,
		byNode:  make(map[vnet.NodeID]int, len(topo.Regions)),
		back:    vnet.New(vnet.Config{Latency: cfg.Net.Latency}, cfg.Seed+backboneSeedOffset, nil),
		workers: cfg.Workers,
		ttl:     topo.Diameter(),
	}
	scens := make([]sim.Scenario, len(topo.Regions))
	for i, reg := range topo.Regions {
		r := &region{
			idx:       i,
			node:      vnet.NodeID(fmt.Sprintf("im%d", i)),
			firstSeen: make(map[plan.VehicleID]Seen),
			heads:     make(map[int]HeadMsg),
		}
		n.regs = append(n.regs, r)
		n.byNode[r.node] = i
		n.back.Register(r.node)
		scens[i] = regionScenario(cfg, reg)
	}
	return n, scens, nil
}

// regionScenario derives one region's engine scenario from the network
// scenario: its own layout, seed, ID space, boundary-only arrivals, and
// the attack only in the designated region.
func regionScenario(base sim.Scenario, reg *Region) sim.Scenario {
	rc := base
	rc.Network = ""
	rc.Intersection = ""
	rc.Inter = reg.Inter
	rc.Scheduler = nil // per-region instance, built from rc.Sched
	rc.Seed = base.Seed + 1000*int64(reg.Index)
	if reg.Index != base.AttackRegion {
		rc.Attack = attack.Benign()
	}
	// Fresh arrivals only on network-boundary legs, at a rate scaled to
	// the boundary share so per-leg intensity matches the single-
	// intersection baseline; interior regions are fed purely by handoff.
	legs := len(reg.Inter.LegHeadings)
	rc.RatePerMin = base.RatePerMin * float64(len(reg.BoundaryLegs)) / float64(legs)
	rc.Region = sim.RegionConfig{
		FirstID:      1 + uint64(reg.Index)*regionIDStride,
		Legs:         append([]int{}, reg.BoundaryLegs...),
		CaptureExits: true,
	}
	return rc
}

// gatewayReporter is the synthetic reporter identity the k-th advisory
// from origin region uses on a local VANET.
func gatewayReporter(origin, k int) plan.VehicleID {
	return plan.VehicleID(gatewayIDBase + uint64(origin)*256 + uint64(k))
}

// Topology exposes the static network structure.
func (n *Network) Topology() *Topology { return n.topo }

// Regions is the number of regions.
func (n *Network) Regions() int { return len(n.regs) }

// Engine returns region i's simulation engine.
func (n *Network) Engine(i int) *sim.Engine { return n.regs[i].eng }

// Now is the network's simulated time.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns the cross-region counters.
func (n *Network) Stats() Stats { return n.stats }

// BackboneStats returns the backbone network's load statistics.
func (n *Network) BackboneStats() vnet.Stats { return n.back.Stats() }

// FirstSeen reports when region i first learned of a suspect and over
// how many hops; ok=false if it never has.
func (n *Network) FirstSeen(i int, suspect plan.VehicleID) (Seen, bool) {
	s, ok := n.regs[i].firstSeen[suspect]
	return s, ok
}

// SuspectsSeen returns region i's complete suspect knowledge table,
// sorted by suspect ID. Unlike the IM's live suspect set, entries
// persist after the suspect leaves, so post-run analysis sees every
// alert the region ever handled.
func (n *Network) SuspectsSeen(i int) []SuspectSeen {
	r := n.regs[i]
	out := make([]SuspectSeen, 0, len(r.firstSeen))
	for s, seen := range r.firstSeen {
		out = append(out, SuspectSeen{Suspect: s, At: seen.At, Hop: seen.Hop})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Suspect < out[b].Suspect })
	return out
}

// RegionWall returns the accumulated per-region Step wall time — the
// load-imbalance signal behind the repository benchmark's
// roadnet.region_imbalance (bench/README.md). Wall-clock readings never
// influence simulation state.
func (n *Network) RegionWall() []time.Duration {
	out := make([]time.Duration, len(n.regs))
	for i, r := range n.regs {
		out[i] = r.wall
	}
	return out
}

// Step advances every region by one tick (in parallel when the scenario
// allows multiple workers), then applies all cross-region effects
// sequentially in region-index order: backbone deliveries, vehicle
// handoffs, and — on the exchange cadence — suspect gossip and
// chain-head beacons.
func (n *Network) Step() {
	n.stepRegions()
	n.now += n.cfg.Step
	n.deliverBackbone()
	n.handoffs()
	if n.beaconDue() {
		n.beacon()
	}
}

// Run drives the network to the scenario duration and returns the
// per-region results.
func (n *Network) Run() []metrics.RunResult {
	for n.now < n.cfg.Duration {
		n.Step()
	}
	return n.Results()
}

// Results summarises every region's run so far.
func (n *Network) Results() []metrics.RunResult {
	out := make([]metrics.RunResult, len(n.regs))
	for i, r := range n.regs {
		out[i] = r.eng.Result()
	}
	return out
}

// stepRegions advances all regions one tick. Regions share no mutable
// state, so any schedule of the pool produces the same result; the wall
// clock is read only for the imbalance statistic.
func (n *Network) stepRegions() {
	w := n.workers
	if w > len(n.regs) {
		w = len(n.regs)
	}
	if w <= 1 {
		for _, r := range n.regs {
			sw := obs.StartStopwatch()
			r.eng.Step()
			r.wall += sw.Elapsed()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		//lint:parallel-root per-region step worker pool
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(n.regs) {
					return
				}
				r := n.regs[i]
				sw := obs.StartStopwatch()
				r.eng.Step()
				r.wall += sw.Elapsed()
			}
		}()
	}
	wg.Wait()
}

// deliverBackbone drains backbone messages due now, in deterministic
// (deliver time, sequence) order.
func (n *Network) deliverBackbone() {
	n.pollBuf = n.back.PollInto(n.now, n.pollBuf[:0])
	for _, d := range n.pollBuf {
		i, ok := n.byNode[d.To]
		if !ok {
			continue
		}
		switch msg := d.Msg.Payload.(type) {
		case HeadMsg:
			n.handleHead(i, msg)
		case CrossReport:
			n.handleReport(i, msg)
		}
	}
}

// handleHead folds a chain-head beacon into region i's view and flags
// same-sequence hash disagreements.
func (n *Network) handleHead(i int, hm HeadMsg) {
	r := n.regs[i]
	if prev, ok := r.heads[hm.Region]; ok {
		if hm.Seq == prev.Seq && hm.Hash != prev.Hash {
			n.stats.HeadMismatches++
		}
		if hm.Seq < prev.Seq {
			return
		}
	}
	r.heads[hm.Region] = hm
}

// Heads returns region i's latest chain-head view, sorted by origin.
func (n *Network) Heads(i int) []HeadMsg {
	r := n.regs[i]
	out := make([]HeadMsg, 0, len(r.heads))
	for _, hm := range r.heads {
		out = append(out, hm)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Region < out[b].Region })
	return out
}

// handleReport processes a cross report arriving at region i: first
// sighting injects advisories into the local VANET and relays onward.
func (n *Network) handleReport(i int, cr CrossReport) {
	r := n.regs[i]
	if _, ok := r.firstSeen[cr.Suspect]; ok {
		return
	}
	r.firstSeen[cr.Suspect] = Seen{At: n.now, Hop: cr.Hop}
	for k := 0; k < n.cfg.AdvisoryReports; k++ {
		r.eng.BroadcastGlobal(nwade.GlobalReport{
			Reporter: gatewayReporter(cr.Origin, k),
			Reason:   cr.Reason,
			Suspect:  cr.Suspect,
			At:       n.now,
		})
		n.stats.Advisories++
	}
	if cr.Hop < n.ttl {
		cr.Hop++
		n.relay(i, cr)
	}
}

// relay gossips a cross report to every neighbor of region i.
func (n *Network) relay(i int, cr CrossReport) {
	for _, j := range n.neighbors(i) {
		// The backbone is fully registered and lossless; a send can only
		// fail for an unregistered node, which would be a construction
		// bug caught by the property tests.
		if _, err := n.back.Unicast(n.now, n.regs[i].node, n.regs[j].node, KindCrossReport, cr, sizeCrossReport); err != nil {
			panic(fmt.Sprintf("roadnet: relay to unregistered region %d: %v", j, err))
		}
		n.stats.ReportRelays++
	}
}

// neighbors lists the regions adjacent to i (distinct link targets, in
// ascending order).
func (n *Network) neighbors(i int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, lk := range n.topo.Links {
		if lk.From == i && !seen[lk.To] {
			seen[lk.To] = true
			out = append(out, lk.To)
		}
	}
	sort.Ints(out)
	return out
}

// handoffs drains every region's completed crossings and re-injects the
// linked ones into the destination region after the link delay.
func (n *Network) handoffs() {
	for i, r := range n.regs {
		for _, x := range r.eng.TakeExits() {
			lk, ok := n.topo.LinkFrom(i, x.ToLeg)
			if !ok {
				n.stats.BoundaryExits++
				continue
			}
			routes := n.topo.EntryRoutes(lk.To, lk.ToLeg)
			if len(routes) == 0 {
				// A linked entry leg with no routes would be a layout
				// bug; treat the vehicle as leaving the network.
				n.stats.BoundaryExits++
				continue
			}
			rt := routes[int(uint64(x.Vehicle)%uint64(len(routes)))]
			speed := x.Speed
			if speed > units.SpeedLimit {
				speed = units.SpeedLimit
			}
			if speed < 5 {
				speed = 5
			}
			n.regs[lk.To].eng.InjectArrival(traffic.Arrival{
				At:      n.now + linkDelay,
				Vehicle: x.Vehicle,
				Route:   rt,
				Speed:   speed,
				Char:    x.Char,
				Handoff: true,
				Legacy:  x.Legacy,
			})
			n.stats.Handoffs++
		}
	}
}

// beaconDue reports whether this tick crossed an exchange boundary.
// Pure function of the clock, so restore needs no extra state.
func (n *Network) beaconDue() bool {
	return n.now/exchangeEvery > (n.now-n.cfg.Step)/exchangeEvery
}

// beacon runs one exchange round: every region (in index order)
// originates cross reports for newly confirmed suspects and beacons its
// chain head to its neighbors.
func (n *Network) beacon() {
	for i, r := range n.regs {
		for _, s := range r.eng.IM().Suspects() {
			if _, ok := r.firstSeen[s]; ok {
				continue
			}
			r.firstSeen[s] = Seen{At: n.now, Hop: 0}
			n.stats.Reports++
			n.relay(i, CrossReport{
				Origin:  i,
				Suspect: s,
				Reason:  nwade.ReasonAbnormalVehicle,
				At:      n.now,
				Hop:     1,
			})
		}
		if h := r.eng.IM().Head(); h != nil {
			hash := h.HashBlock()
			hm := HeadMsg{Region: i, Seq: h.Seq, Hash: hex.EncodeToString(hash[:]), At: n.now}
			for _, j := range n.neighbors(i) {
				if _, err := n.back.Unicast(n.now, r.node, n.regs[j].node, KindHeadBeacon, hm, sizeHeadBeacon); err != nil {
					panic(fmt.Sprintf("roadnet: beacon to unregistered region %d: %v", j, err))
				}
				n.stats.HeadBeacons++
			}
		}
	}
}

// Digest fingerprints the whole network run: every region's event-log
// digest plus the cross-region counters and backbone load. Two runs of
// the same scenario digest equal regardless of worker count; any
// behavioral divergence in any region changes it.
func (n *Network) Digest() string {
	h := sha256.New()
	for i, r := range n.regs {
		fmt.Fprintf(h, "region%d=%s\n", i, metrics.Digest(r.eng.Result()))
	}
	st := n.stats
	bb := n.back.Stats()
	fmt.Fprintf(h, "now=%d handoffs=%d boundary=%d reports=%d relays=%d advisories=%d beacons=%d mismatches=%d backbone=%d/%d\n",
		n.now, st.Handoffs, st.BoundaryExits, st.Reports, st.ReportRelays,
		st.Advisories, st.HeadBeacons, st.HeadMismatches, bb.Delivered, bb.TotalPackets())
	return hex.EncodeToString(h.Sum(nil))
}
