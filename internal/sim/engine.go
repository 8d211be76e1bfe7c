// Package sim is the discrete-time traffic and protocol simulator that
// hosts NWADE: it owns the intersection, the VANET, the intersection-
// manager core, one protocol core and one physical body per vehicle, the
// Poisson arrival process, and the attack injection. A run is fully
// deterministic given its seed.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/detrand"
	"nwade/internal/geom"
	"nwade/internal/intersection"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/sched"
	"nwade/internal/traffic"
	"nwade/internal/units"
	"nwade/internal/vnet"
)

// Scenario is the single specification of a simulation run: road layout
// (one intersection or a whole network), traffic, attack setting, NWADE
// toggles, network faults, and execution knobs. It is the one input of
// sim.New and roadnet.New; the CLIs build it through internal/cliconf.
type Scenario struct {
	// Network selects a multi-intersection road network: "" (the
	// default) is a single intersection, "grid:RxC" is an R-by-C grid,
	// and "corridor:N" is an N-long arterial (a 1xN grid). Network runs
	// are built by roadnet.New; sim.New rejects them.
	Network string
	// Intersection is the layout name (one of
	// intersection.KindNameList, default "cross4") used when Inter is
	// nil. Network scenarios additionally accept "mix", which cycles
	// through all five layouts across the regions.
	Intersection string
	// Inter overrides Intersection with a prebuilt layout (tests and
	// sweeps construct custom geometry directly). Single-intersection
	// scenarios only.
	Inter *intersection.Intersection
	// Sched is the scheduler name ("", "reservation", "traffic-light",
	// "platoon"; "" is the DASH-like reservation default) used when
	// Scheduler is nil. Network runs build one scheduler per region from
	// this name, so region state never aliases.
	Sched string
	// Scheduler overrides Sched with a prebuilt intersection-management
	// algorithm instance (single-intersection scenarios only).
	Scheduler sched.Scheduler
	// Duration is the simulated time span (default 2 min).
	Duration time.Duration
	// Step is the tick length (default 100 ms).
	Step time.Duration
	// RatePerMin is the Poisson arrival rate (default 80).
	RatePerMin float64
	// Seed drives every stochastic choice of the run.
	Seed int64
	// Attack is the attack setting (default benign).
	Attack attack.Scenario
	// AttackRegion is the region index the attack activates in (network
	// scenarios only; region 0 is the top-left corner of a grid and the
	// west end of a corridor).
	AttackRegion int
	// NWADE disables the security mechanism when false: plans are
	// distributed unverified and nobody watches (the Fig. 8 baseline).
	NWADE bool
	// LegacyFraction is the share of arrivals that are legacy (human-
	// driven) vehicles: they never talk to the intersection manager,
	// cruise with car-following, and cross on gap acceptance. This
	// implements the paper's stated future work — the transitional
	// period with mixed autonomous and legacy traffic.
	LegacyFraction float64
	// IMConfig / VehicleConfig tune the protocol cores.
	IMConfig      nwade.IMConfig
	VehicleConfig nwade.VehicleConfig
	// Net tunes the VANET (including vnet.Config.Faults, the
	// deterministic fault-injection layer).
	Net vnet.Config
	// Resilience turns on the protocol retransmission layer on both
	// sides: vehicle gap re-requests and report retransmission
	// (nwade.DefaultResilienceConfig) plus the IM's periodic head
	// re-broadcast. Off by default — the paper's reliable-delivery
	// assumption — so benign runs stay bit-identical.
	Resilience bool
	// KeyBits sizes the IM's signing key (default 2048; tests may use
	// 1024 for speed).
	KeyBits int
	// Workers bounds the region worker pool of a network run: roadnet
	// steps up to this many regions concurrently (<= 1 = sequential, the
	// default). Results are bit-identical for any worker count. A single
	// intersection ignores it; its tick is sequential.
	Workers int
	// SpawnCutoff stops drawing new arrivals from the traffic generator
	// after this simulated time (0 = never). Arrivals already deferred
	// by queue spill-back still materialise. Used by the allocation and
	// steady-state benchmarks to close the system after a warm-up.
	SpawnCutoff time.Duration

	// AdvisoryReports is how many distinct advisory global reports a
	// region's gateway injects locally when a cross-intersection report
	// arrives (network scenarios; default 1). Raising it to the vehicle
	// cores' GlobalQuorum makes a propagated report trigger the same
	// self-evacuation response as a locally confirmed one.
	AdvisoryReports int

	// Region carries the per-region wiring installed by internal/roadnet
	// when this scenario is one region of a network. Standalone runs
	// leave it zero.
	Region RegionConfig
}

// RegionConfig is the per-region wiring of a network run: internal/roadnet
// derives one Scenario per region and fills these fields; standalone
// scenarios leave them zero.
type RegionConfig struct {
	// FirstID is the traffic generator's first vehicle ID, offset per
	// region so IDs stay globally unique across the network (0 = 1).
	FirstID uint64
	// Legs restricts fresh arrivals to the named legs — the region's
	// network-boundary legs; traffic on linked legs arrives by handoff.
	// nil means every leg; empty (non-nil) disables fresh arrivals.
	Legs []int
	// CaptureExits diverts completed crossings into the engine's exit
	// buffer (TakeExits) instead of letting them leave the world
	// silently, so roadnet can hand them to the next region.
	CaptureExits bool
}

// HeadRebroadcastDefault is the IM head re-broadcast period installed by
// Scenario.Resilience when IMConfig.HeadRebroadcast is unset.
const HeadRebroadcastDefault = 2 * time.Second

// Normalize fills defaults (exported for symmetry with vnet.Config and
// eval.Config).
func (c Scenario) Normalize() Scenario {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Minute
	}
	if c.Inter == nil && c.Intersection == "" {
		c.Intersection = "cross4"
	}
	if c.IsNetwork() && c.AdvisoryReports <= 0 {
		c.AdvisoryReports = 1
	}
	if c.Step <= 0 {
		c.Step = units.SimStep
	}
	if c.RatePerMin <= 0 {
		c.RatePerMin = 80
	}
	if c.IMConfig.BatchWindow <= 0 {
		hr := c.IMConfig.HeadRebroadcast
		c.IMConfig = nwade.DefaultIMConfig()
		c.IMConfig.HeadRebroadcast = hr
	}
	if c.VehicleConfig.SensingRadius <= 0 {
		res := c.VehicleConfig.Resilience
		c.VehicleConfig = nwade.DefaultVehicleConfig()
		c.VehicleConfig.Resilience = res
	}
	if c.Resilience {
		if !c.VehicleConfig.Resilience.Enabled {
			c.VehicleConfig.Resilience = nwade.DefaultResilienceConfig()
		}
		if c.IMConfig.HeadRebroadcast <= 0 {
			c.IMConfig.HeadRebroadcast = HeadRebroadcastDefault
		}
	}
	if c.KeyBits == 0 {
		c.KeyBits = chain.DefaultKeyBits
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// IsNetwork reports whether the scenario describes a multi-intersection
// road network (built by roadnet.New) rather than a single intersection.
func (c Scenario) IsNetwork() bool { return c.Network != "" }

// NetworkDims parses the Network topology string into grid dimensions:
// "grid:RxC" is R rows by C columns and "corridor:N" is 1 row by N
// columns.
func (c Scenario) NetworkDims() (rows, cols int, err error) {
	switch {
	case strings.HasPrefix(c.Network, "grid:"):
		if _, err := fmt.Sscanf(c.Network, "grid:%dx%d", &rows, &cols); err != nil {
			return 0, 0, fmt.Errorf("sim: bad network %q (want grid:RxC)", c.Network)
		}
	case strings.HasPrefix(c.Network, "corridor:"):
		rows = 1
		if _, err := fmt.Sscanf(c.Network, "corridor:%d", &cols); err != nil {
			return 0, 0, fmt.Errorf("sim: bad network %q (want corridor:N)", c.Network)
		}
	default:
		return 0, 0, fmt.Errorf("sim: unknown network topology %q", c.Network)
	}
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return 0, 0, fmt.Errorf("sim: network %q needs at least two regions", c.Network)
	}
	return rows, cols, nil
}

// BuildInter resolves the scenario's intersection: the prebuilt Inter
// when set, otherwise the named layout.
func (c Scenario) BuildInter() (*intersection.Intersection, error) {
	if c.Inter != nil {
		return c.Inter, nil
	}
	kind, err := c.LayoutKind()
	if err != nil {
		return nil, err
	}
	return intersection.Build(kind, intersection.Config{})
}

// LayoutKind resolves the layout name Intersection (default "cross4")
// without building its geometry, so a caller can refuse an unknown name
// cheaply; BuildInter builds what it resolves.
func (c Scenario) LayoutKind() (intersection.Kind, error) {
	name := c.Intersection
	if name == "" {
		name = "cross4"
	}
	kind, ok := intersection.KindByName(name)
	if !ok {
		return 0, fmt.Errorf("sim: unknown intersection layout %q (want one of %v)",
			name, intersection.KindNameList())
	}
	return kind, nil
}

// BuildScheduler resolves the scenario's scheduler for the given
// intersection: the prebuilt Scheduler instance when set, otherwise the
// named algorithm with default parameters. Network runs call this once
// per region so schedulers with intersection state never alias.
func (c Scenario) BuildScheduler(inter *intersection.Intersection) (sched.Scheduler, error) {
	if c.Scheduler != nil {
		return c.Scheduler, nil
	}
	switch c.Sched {
	case "", "reservation":
		return &sched.Reservation{}, nil
	case "traffic-light":
		return &sched.TrafficLight{Inter: inter}, nil
	case "platoon":
		return &sched.Platoon{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q", c.Sched)
	}
}

// body is a vehicle's physical state, advanced by the engine.
type body struct {
	id      plan.VehicleID
	core    *nwade.VehicleCore
	route   *intersection.Route
	s       float64 // arc length along route
	v       float64
	lat     float64 // lateral offset (lane changes, pull-over)
	arrive  time.Duration
	exited  bool
	stopped bool // permanently stopped (collision or completed pull-over)
	// legacy marks a human-driven vehicle outside the AIM system.
	legacy bool
	// waitingSince tracks how long a legacy vehicle has held at the
	// entry line (impatience eventually overrides gap acceptance).
	waitingSince time.Duration
	// stoppedAt is when the body stopped for good; wrecks and pulled-
	// over vehicles are towed off the road after WreckClearance.
	stoppedAt time.Duration
	// orderIdx is the body's index in the engine's deterministic
	// iteration order; spatial-grid queries sort candidates by it so
	// grid results match the sequential scans exactly.
	orderIdx int

	posCache geom.Vec2
	// sensed is the body's ground-truth status as sensors observe it
	// this tick: set for every present body after the protocol-phase
	// regrid, so the IM, the vehicle itself and every neighbor that
	// senses it copy one value instead of each rebuilding it.
	sensed plan.Status

	// node is the body's network address, computed once at spawn so the
	// per-tick phases never re-format it.
	node vnet.NodeID
}

// WreckClearance is how long a permanently stopped vehicle blocks the
// road before it is towed away.
const WreckClearance = 20 * time.Second

// Exit is one vehicle that completed its route while Region.CaptureExits
// was set: everything the next region needs to re-admit it with its
// identity intact. Towed wrecks are not exits — they leave the road, not
// the region.
type Exit struct {
	Vehicle plan.VehicleID
	// ToLeg is the leg the vehicle left the intersection on; roadnet
	// maps it to a directed link (or to the network boundary).
	ToLeg  int
	Speed  float64
	Legacy bool
	At     time.Duration
	Char   plan.Characteristics
}

// pos returns the body's ground-truth position (cached per tick).
func (b *body) pos() geom.Vec2 { return b.posCache }

// refreshPos recomputes the cached position after the body moved.
func (b *body) refreshPos() { b.posCache = b.route.Full.Offset(b.s, b.lat) }

// present reports whether the body is physically on the road at now.
func (b *body) present(now time.Duration) bool { return !b.exited && now >= b.arrive }

// status returns the ground-truth status observable by sensors.
func (b *body) status(now time.Duration) plan.Status {
	return plan.Status{
		Pos:     b.pos(),
		Speed:   b.v,
		Heading: b.route.Full.HeadingAt(b.s),
		At:      now,
	}
}

// Engine is one simulation run.
//
//lint:checkpoint-state encode=Engine.Snapshot,Engine.AttackOnsets,Engine.Violations decode=Restore,newEngine
//lint:checkpoint-state derived=cfg,rng,bodies,grid,moveSlack,lanes,byNode,spawnScratch,obs,emit,verdicts,table
//lint:checkpoint-state derived=pollBuf,visBuf,neigh,blocked
type Engine struct {
	cfg Scenario
	rng *rand.Rand
	// rngSrc is rng's counting source, so checkpoints can capture the
	// engine's exact position in its random stream.
	rngSrc *detrand.Source
	signer *chain.Signer
	im     *nwade.IMCore
	net    *vnet.Network
	gen    *traffic.Generator
	col    *metrics.Collector
	bodies map[plan.VehicleID]*body
	// all is the dense body list in deterministic spawn order — the
	// engine's hot loops iterate it directly instead of chasing the map.
	all []*body
	now time.Duration

	// verdicts is the intersection's block verdict table, shared by
	// every vehicle's chain view: the first view to pass a block's
	// signature and root check records it.
	verdicts *chain.Verdicts
	// table is the intersection's tick table: the watch verdicts and
	// block conflict proofs its vehicles share within a tick. The
	// vehicle cores' handlers and ticks write it; the tick is
	// sequential, so they never race.
	table *nwade.TickTable

	// grid indexes present bodies for radius queries (sensing, legacy
	// gap acceptance, IM visibility). Rebuilt twice per tick.
	grid *spatialGrid
	// moveSlack widens physics-phase grid queries by the farthest any
	// body can travel in one tick, so mid-tick position updates can
	// never move a body past a stale cell boundary undetected.
	moveSlack float64
	// lanes groups non-exited bodies by entry lane for the same-lane
	// car-following scans. Rebuilt once per tick after spawning.
	lanes map[intersection.LaneRef][]*body
	// byNode resolves network addresses to bodies in O(1) for message
	// delivery and the network locator.
	byNode map[vnet.NodeID]*body

	roles         attack.Roles
	rolesAssigned bool
	attackOnsets  map[plan.VehicleID]time.Duration
	// violations records when each violator first executed its physical
	// plan violation — ground truth for "did the attack materialize",
	// which can differ from attackOnsets when the violator was already
	// pulling over (self-evacuating) at its scheduled violation time.
	violations map[plan.VehicleID]time.Duration

	// deferred holds arrivals whose spawn point is still occupied by a
	// queued vehicle (queue spill-back past the spawn location), plus
	// handoff arrivals still in transit on an inter-region link.
	deferred []traffic.Arrival
	// exits buffers completed crossings for roadnet handoff when
	// Region.CaptureExits is set; TakeExits drains it.
	exits []Exit
	// spawnScratch is the spawn phase's double buffer: due arrivals are
	// staged here each tick so the loop can rebuild deferred in place
	// without aliasing the slice it is ranging over.
	spawnScratch []traffic.Arrival

	// obs is the nil-by-default observability sink: phase spans, protocol
	// counters, and the structured event trace. When nil (the default)
	// the hot path pays one pointer check per instrumentation point.
	obs *obs.Sink

	// emit is the engine-level event sink (metrics collector plus the
	// optional obs trace tee), wired into every protocol core.
	emit nwade.EventSink

	// Reusable per-tick buffers (allocation-free steady state): polled
	// deliveries, IM perception, sensed neighbors, and the spawn phase's
	// blocked-lane set.
	pollBuf []vnet.Delivery
	visBuf  []nwade.VehicleObs
	neigh   []nwade.Neighbor
	blocked map[intersection.LaneRef]bool
}

// Option configures an Engine beyond its Config.
type Option func(*options)

type options struct {
	signer *chain.Signer
	obs    *obs.Sink
}

// WithSigner reuses a pre-generated signing key. Key generation is the
// slow part of engine construction (especially at 2048 bits), so sweeps
// share one signer across rounds.
func WithSigner(s *chain.Signer) Option {
	return func(o *options) { o.signer = s }
}

// WithObs installs an observability sink: phase spans, protocol counters
// and histograms, and (when the sink has a trace writer) the structured
// protocol event trace. The sink observes without perturbing the run —
// results are bit-identical with and without it.
func WithObs(s *obs.Sink) Option {
	return func(o *options) { o.obs = s }
}

// New builds an engine from a single-intersection scenario. A signer is
// generated unless WithSigner provides one. Network scenarios
// (Scenario.IsNetwork) are built by roadnet.New, which composes one
// engine per region. Scenario.Workers does not apply: the tick is
// sequential.
func New(cfg Scenario, opts ...Option) (*Engine, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if cfg.IsNetwork() {
		return nil, fmt.Errorf("sim: scenario %q is a road network; build it with roadnet.New", cfg.Network)
	}
	signer := o.signer
	if signer == nil {
		var err error
		signer, err = chain.NewSigner(cfg.Normalize().KeyBits)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	e, err := newEngine(cfg, signer, o.obs)
	if err != nil {
		return nil, err
	}
	e.net.Register(vnet.IMNode)
	return e, nil
}

// newEngine wires a fresh engine at time zero: the layout and
// scheduler, the random stream, the network, the traffic generator and
// the IM core, each seeded from cfg and observed by sink. New registers
// the IM node on top; Restore overlays a snapshot's state.
func newEngine(cfg Scenario, signer *chain.Signer, sink *obs.Sink) (*Engine, error) {
	cfg = cfg.Normalize()
	inter, err := cfg.BuildInter()
	if err != nil {
		return nil, err
	}
	cfg.Inter = inter
	scheduler, err := cfg.BuildScheduler(inter)
	if err != nil {
		return nil, err
	}
	cfg.Scheduler = scheduler
	e := &Engine{
		cfg:          cfg,
		signer:       signer,
		verdicts:     chain.NewVerdicts(signer.Public()),
		table:        nwade.NewTickTable(),
		col:          metrics.NewCollector(),
		bodies:       make(map[plan.VehicleID]*body),
		attackOnsets: make(map[plan.VehicleID]time.Duration),
		violations:   make(map[plan.VehicleID]time.Duration),
		grid:         newSpatialGrid(cfg.VehicleConfig.SensingRadius),
		// 45 m/s (~100 mph) bounds every motion mode, including the
		// speeding violation's overshoot.
		moveSlack: 45 * cfg.Step.Seconds(),
		lanes:     make(map[intersection.LaneRef][]*body),
		byNode:    make(map[vnet.NodeID]*body),
		obs:       sink,
	}
	e.emit = e.sink()
	e.rng, e.rngSrc = detrand.New(cfg.Seed)
	e.net = vnet.New(cfg.Net, cfg.Seed+1, e.locate)
	e.net.SetObs(e.obs)
	e.gen = traffic.NewGenerator(cfg.Inter, e.genConfig(), cfg.Seed+2)
	e.im = nwade.NewIMCore(cfg.IMConfig, cfg.Inter, signer, cfg.Scheduler, e.emit, cfg.Attack.IMMalice())
	e.im.SetObs(e.obs)
	return e, nil
}

// genConfig derives the traffic generator's configuration, including the
// per-region wiring of network runs.
func (e *Engine) genConfig() traffic.Config {
	return traffic.Config{
		RatePerMin: e.cfg.RatePerMin,
		FirstID:    e.cfg.Region.FirstID,
		Legs:       e.cfg.Region.Legs,
	}
}

// sink returns the protocol event sink: the metrics collector, teed into
// the observability trace when one is installed. The tee only forwards
// to the trace — counters belong to the protocol cores, so the trace
// layer never double-counts.
func (e *Engine) sink() nwade.EventSink {
	base := e.col.Sink()
	if e.obs == nil {
		return base
	}
	o := e.obs
	return func(ev nwade.Event) {
		base(ev)
		o.Event(ev.At, ev.Type.String(), uint64(ev.Actor), uint64(ev.Subject), ev.Info)
	}
}

// Collector exposes the run's metrics.
func (e *Engine) Collector() *metrics.Collector { return e.col }

// Net exposes the network (for load statistics).
func (e *Engine) Net() *vnet.Network { return e.net }

// IM exposes the manager core.
func (e *Engine) IM() *nwade.IMCore { return e.im }

// Roles returns the attack role assignment (zero value when benign or
// not yet activated).
func (e *Engine) Roles() attack.Roles { return e.roles }

// AttackOnsets returns when each compromised vehicle began acting.
func (e *Engine) AttackOnsets() map[plan.VehicleID]time.Duration {
	out := make(map[plan.VehicleID]time.Duration, len(e.attackOnsets))
	for k, v := range e.attackOnsets {
		out[k] = v
	}
	return out
}

// Violations returns when each violator first physically deviated from
// its plan. A violator scheduled to deviate (see AttackOnsets) that was
// already self-evacuating never appears here: its attack never
// materialized on the road.
func (e *Engine) Violations() map[plan.VehicleID]time.Duration {
	out := make(map[plan.VehicleID]time.Duration, len(e.violations))
	for k, v := range e.violations {
		out[k] = v
	}
	return out
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// locate implements the network's Locator.
func (e *Engine) locate(id vnet.NodeID) (geom.Vec2, bool) {
	if id == vnet.IMNode {
		return geom.V(0, 0), true
	}
	if b := e.byNode[id]; b != nil && !b.exited {
		return b.pos(), true
	}
	return geom.Vec2{}, false
}

// Run advances the simulation to the configured duration and returns the
// result summary.
func (e *Engine) Run() metrics.RunResult {
	for e.now < e.cfg.Duration {
		e.step()
	}
	return e.Result()
}

// Result summarises the run so far. Run calls it at the configured
// duration; roadnet calls it per region after driving Step itself.
func (e *Engine) Result() metrics.RunResult {
	return metrics.RunResult{
		Scenario:    e.cfg.Attack.Name,
		Seed:        e.cfg.Seed,
		Duration:    e.cfg.Duration,
		Spawned:     e.col.Spawned,
		Exited:      e.col.Exited,
		Collisions:  e.col.Collisions,
		Retransmits: e.col.Count(nwade.EvRetransmit),
		Net:         e.net.Stats(),
		Collector:   e.col,
	}
}

// Results is Result as a one-region list, the shape
// roadnet.Network.Results reports.
func (e *Engine) Results() []metrics.RunResult { return []metrics.RunResult{e.Result()} }

// Digest fingerprints the run so far: metrics.Digest of its result.
func (e *Engine) Digest() string { return metrics.Digest(e.Result()) }

// TakeExits returns the crossings completed since the last call (only
// populated under Region.CaptureExits) and resets the buffer. The
// returned slice is valid until the engine's next Step.
func (e *Engine) TakeExits() []Exit {
	out := e.exits
	e.exits = e.exits[:0]
	return out
}

// InjectArrival schedules an externally built arrival — a vehicle handed
// off from an adjacent region. Call it between Steps; the arrival
// materialises at its At time through the regular spawn path (per-lane
// FIFO and spill-back rules included).
func (e *Engine) InjectArrival(a traffic.Arrival) {
	e.deferred = append(e.deferred, a)
}

// BroadcastGlobal puts a global attack report on this region's VANET from
// the roadside unit, between Steps. Roadnet gateways use it to replay
// cross-intersection reports into the local neighborhood watch.
func (e *Engine) BroadcastGlobal(r nwade.GlobalReport) {
	o := nwade.GlobalBroadcast(r)
	e.net.BroadcastMsg(e.now, vnet.IMNode, o.Kind, o.Payload, o.Size)
}

// PresentVehicles returns the IDs of vehicles currently on the road, in
// spawn order (tests and the network conservation checks).
func (e *Engine) PresentVehicles() []plan.VehicleID {
	var out []plan.VehicleID
	for _, b := range e.all {
		if b.present(e.now) {
			out = append(out, b.id)
		}
	}
	return out
}

// Step advances the simulation by one tick; Run calls it in a loop, and
// tests and tools may drive it manually for instrumentation.
func (e *Engine) Step() { e.step() }

// step advances one tick. The phase spans are straight-line Begin/End
// pairs (no closures) so a disabled sink costs one nil check per phase;
// span durations are sim-clock based and therefore zero within a tick —
// the spans carry per-phase call and item counts, and wall-clock time
// only under the sanctioned profiling mode.
func (e *Engine) step() {
	e.now += e.cfg.Step
	now := e.now

	tick := e.obs.Begin("tick", now)
	sp := e.obs.Begin("spawn", now)
	e.spawn(now)
	e.activateAttack(now)
	sp.End(now)
	// Index positions as they stand entering the physics phase; queries
	// issued while bodies move widen by moveSlack.
	sp = e.obs.Begin("reindex", now)
	e.reindex(now)
	sp.End(now)
	sp = e.obs.Begin("deliver", now)
	sp.AddItems(e.deliver(now))
	sp.End(now)
	sp = e.obs.Begin("physics", now)
	e.physics(now)
	sp.End(now)
	// Reindex settled positions for the protocol phase (IM perception
	// and vehicle sensing read exact post-physics state).
	sp = e.obs.Begin("regrid", now)
	e.grid.rebuild(e.all, now)
	e.senseAll(now)
	sp.End(now)
	sp = e.obs.Begin("im", now)
	sp.AddItems(e.tickIM(now))
	sp.End(now)
	sp = e.obs.Begin("vehicles", now)
	sp.AddItems(e.tickVehicles(now))
	sp.End(now)
	sp = e.obs.Begin("collisions", now)
	e.collisions(now)
	sp.End(now)
	tick.End(now)
}

// reindex rebuilds the per-tick spatial structures: the hash grid and the
// per-lane body lists. Lane membership never changes, so the lane lists
// stay valid for the whole tick; grid positions go stale during physics
// and are compensated by moveSlack.
func (e *Engine) reindex(now time.Duration) {
	e.grid.rebuild(e.all, now)
	for ref, s := range e.lanes {
		e.lanes[ref] = s[:0]
	}
	for _, b := range e.all {
		if b.exited {
			continue
		}
		e.lanes[b.route.From] = append(e.lanes[b.route.From], b)
	}
}

// spawn materialises arrivals due this tick. An arrival whose entry lane
// is still occupied near the spawn point (a queue reaching back to the
// edge of the simulated area) is deferred until the lane clears.
func (e *Engine) spawn(now time.Duration) {
	// Stage this tick's candidates in the scratch buffer: appending to
	// e.deferred directly would alias its backing array while the loop
	// below truncates and refills it.
	pending := append(e.spawnScratch[:0], e.deferred...)
	if e.cfg.SpawnCutoff <= 0 || now <= e.cfg.SpawnCutoff {
		pending = append(pending, e.gen.Until(now)...)
	}
	e.spawnScratch = pending[:0]
	e.deferred = e.deferred[:0]
	if e.blocked == nil {
		e.blocked = make(map[intersection.LaneRef]bool)
	} else {
		clear(e.blocked)
	}
	blockedLanes := e.blocked
	for _, a := range pending {
		// An arrival only materialises at its due time, on an
		// unblocked lane, preserving per-lane FIFO order. Until then
		// it simply does not exist in the world.
		if a.At > now || blockedLanes[a.Route.From] || e.spawnBlocked(a, now) {
			blockedLanes[a.Route.From] = true
			e.deferred = append(e.deferred, a)
			continue
		}
		b := &body{id: a.Vehicle, route: a.Route, v: a.Speed, arrive: now,
			orderIdx: len(e.all), node: vnet.VehicleNode(uint64(a.Vehicle))}
		b.core = nwade.NewVehicleCore(a.Vehicle, a.Char, a.Route, e.cfg.Inter, e.verdicts, e.table,
			e.cfg.VehicleConfig, e.emit, nil, now, a.Speed)
		b.core.SetObs(e.obs)
		if a.Handoff {
			// A handoff keeps its identity: the legacy flag crosses the
			// link with the vehicle, and the fresh-arrival RNG stream is
			// untouched, so regions digest identically with or without
			// inbound links. A looping vehicle may re-enter a region it
			// exited earlier; clear its gone flag so it can be scheduled
			// again.
			b.legacy = a.Legacy
			e.im.Returning(a.Vehicle)
		} else if e.cfg.LegacyFraction > 0 && e.rng.Float64() < e.cfg.LegacyFraction {
			b.legacy = true
		}
		b.refreshPos()
		e.bodies[a.Vehicle] = b
		e.all = append(e.all, b)
		e.byNode[b.node] = b
		if !b.legacy {
			// Legacy vehicles carry no radio: they never join the
			// network or the protocol.
			e.net.Register(b.node)
		}
		e.col.Spawned++
		// Only one vehicle can materialise per lane per tick; the next
		// one must wait for this one to move clear of the spawn point.
		blockedLanes[a.Route.From] = true
	}
}

// spawnBlocked reports whether another vehicle occupies the arrival's
// entry lane near the spawn point. The lane index is one tick old here
// (spawn runs before reindex), which is exact: arrivals admitted earlier
// in the same tick already blocked the lane via the caller's per-tick
// lane set, and exits are re-checked live.
func (e *Engine) spawnBlocked(a traffic.Arrival, now time.Duration) bool {
	for _, o := range e.lanes[a.Route.From] {
		if o.exited {
			continue
		}
		if o.s < 12 {
			return true
		}
	}
	return false
}

// activateAttack assigns coalition roles once the attack time arrives:
// an anchor vehicle mid-approach plus its nearest active peers, so the
// coalition is spatially clustered (threat category ii).
func (e *Engine) activateAttack(now time.Duration) {
	sc := e.cfg.Attack
	if e.rolesAssigned || sc.Name == "" || sc.Name == "benign" || now < sc.AttackAt {
		return
	}
	if sc.MaliciousVehicles == 0 {
		e.rolesAssigned = true // IM-only attack needs no vehicle roles
		return
	}
	// Candidates: active vehicles with plans, still on approach or in
	// the conflict area.
	var cands []*body
	for _, b := range e.all {
		if !b.present(now) || b.core.Plan() == nil {
			continue
		}
		if b.s > b.route.CrossEnd {
			continue
		}
		cands = append(cands, b)
	}
	if len(cands) == 0 {
		return // try again next tick
	}
	anchor := cands[e.rng.Intn(len(cands))]
	sort.Slice(cands, func(i, j int) bool {
		di := cands[i].pos().Dist(anchor.pos())
		dj := cands[j].pos().Dist(anchor.pos())
		//lint:ignore floateq exact tie-break: bit-equal distances fall through to the ID order
		if di != dj {
			return di < dj
		}
		return cands[i].id < cands[j].id
	})
	n := sc.MaliciousVehicles
	if n > len(cands) {
		n = len(cands)
	}
	members := make([]plan.VehicleID, 0, n)
	for _, b := range cands[:n] {
		members = append(members, b.id)
	}
	e.roles = sc.Assign(members)
	for _, id := range members {
		if m := sc.MaliceFor(id, e.roles); m != nil {
			e.bodies[id].core.SetMalice(m)
			e.attackOnsets[id] = now
		}
	}
	e.rolesAssigned = true
}

// deliver routes due network messages into the protocol cores, in
// delivery order, returning the number of deliveries processed.
func (e *Engine) deliver(now time.Duration) int {
	due := e.net.PollInto(now, e.pollBuf[:0])
	e.pollBuf = due
	for _, d := range due {
		if d.To == vnet.IMNode {
			e.dispatch(now, vnet.IMNode, e.im.HandleMessage(now, d.Msg))
			continue
		}
		b := e.byNode[d.To]
		if b == nil || b.exited || b.legacy {
			continue
		}
		if !e.cfg.NWADE {
			e.plainHandle(b, d.Msg)
			continue
		}
		e.dispatch(now, d.To, b.core.HandleMessage(now, d.Msg))
	}
	return len(due)
}

// plainHandle is the no-NWADE baseline: adopt plans without verification,
// ignore everything else.
func (e *Engine) plainHandle(b *body, msg vnet.Message) {
	bm, ok := msg.Payload.(nwade.BlockMsg)
	if !ok || bm.Block == nil {
		return
	}
	if p, ok := bm.Block.PlanFor(b.id); ok {
		b.core.AdoptPlanUnverified(p)
	}
}

// dispatch puts protocol outputs on the network.
func (e *Engine) dispatch(now time.Duration, from vnet.NodeID, outs []nwade.Out) {
	for _, o := range outs {
		if o.To == vnet.Broadcast {
			e.net.BroadcastMsg(now, from, o.Kind, o.Payload, o.Size)
			continue
		}
		// Unicast errors mean the receiver left; ignore.
		_, _ = e.net.Unicast(now, from, o.To, o.Kind, o.Payload, o.Size)
	}
}

// senseAll stores each present body's sensed status for the protocol
// phase. Nothing moves a body between here and the collision phase,
// which refreshes the speed of the bodies it stops.
func (e *Engine) senseAll(now time.Duration) {
	for _, b := range e.all {
		if b.present(now) {
			b.sensed = b.status(now)
		}
	}
}

// tickIM feeds the manager its perception snapshot and pumps its outputs.
// Visibility is a grid query around the intersection center; the grid was
// rebuilt after physics, so indexed positions are exact.
func (e *Engine) tickIM(now time.Duration) int {
	visible := e.visBuf[:0]
	r := e.cfg.IMConfig.PerceptionRadius
	e.grid.forEachOrdered(geom.V(0, 0), r, 0, func(b *body) bool {
		if b.present(now) && b.pos().Len() <= r {
			visible = append(visible, nwade.VehicleObs{ID: b.id, Status: b.sensed})
		}
		return true
	})
	e.visBuf = visible
	e.dispatch(now, vnet.IMNode, e.im.Tick(now, visible))
	return len(visible)
}

// tickVehicles runs each protocol vehicle's core with its sensed
// neighborhood, in spawn order, returning the number of cores ticked.
func (e *Engine) tickVehicles(now time.Duration) int {
	var ticked int
	for _, b := range e.all {
		if !b.present(now) || b.legacy {
			continue
		}
		if e.cfg.NWADE {
			e.dispatch(now, b.node, b.core.Tick(now, b.sensed, e.sense(b)))
		} else {
			// Baseline: only the plan request is needed.
			e.dispatch(now, b.node, b.core.TickRequestOnly(now))
		}
		ticked++
	}
	return ticked
}

// sense returns the ground-truth statuses of vehicles within the sensing
// radius of b, in the engine's deterministic iteration order. The grid
// query and the all-pairs scan (senseScan) are equivalent by
// construction; grid_test.go asserts it tick by tick. The returned slice
// is valid until the next sense call; cores do not retain it.
//
// The range test compares squared distances. Only inside a 1e-9
// relative band around r² can the squared test and Dist(bp) <= r
// disagree on rounding, so there it falls back to the distance itself.
func (e *Engine) sense(b *body) []nwade.Neighbor {
	out := e.neigh[:0]
	r := e.cfg.VehicleConfig.SensingRadius
	near, far := r*r*(1-1e-9), r*r*(1+1e-9)
	bp := b.pos()
	e.grid.forEachOrdered(bp, r, 0, func(o *body) bool {
		if o == b || !o.present(e.now) {
			return true
		}
		if d2 := o.pos().DistSq(bp); d2 <= near || (d2 <= far && o.pos().Dist(bp) <= r) {
			out = append(out, nwade.Neighbor{ID: o.id, Status: o.sensed})
		}
		return true
	})
	e.neigh = out
	return out
}

// senseScan is the original O(V²) neighbor scan, kept as the reference
// implementation for the grid equivalence tests.
func (e *Engine) senseScan(b *body) []nwade.Neighbor {
	var out []nwade.Neighbor
	r := e.cfg.VehicleConfig.SensingRadius
	for _, o := range e.all {
		if o.id == b.id || !o.present(e.now) {
			continue
		}
		if o.pos().Dist(b.pos()) <= r {
			//lint:ignore hotalloc reference implementation, not on the tick path
			out = append(out, nwade.Neighbor{ID: o.id, Status: o.status(e.now)})
		}
	}
	return out
}

// physics advances every body one tick.
func (e *Engine) physics(now time.Duration) {
	dt := e.cfg.Step.Seconds()
	for _, b := range e.all {
		if b.exited || now < b.arrive {
			continue
		}
		e.move(b, now, dt)
		b.refreshPos()
		// Tow permanently stopped vehicles (wrecks, completed
		// pull-overs) off the road once the scene is cleared.
		if b.stopped && now-b.stoppedAt > WreckClearance {
			b.exited = true
			b.core.MarkExited(now)
			e.im.VehicleGone(b.id)
			e.net.Unregister(b.node)
			e.col.Towed++
			continue
		}
		if b.s >= b.route.Full.Length()-0.5 && !b.exited {
			b.exited = true
			b.core.MarkExited(now)
			e.im.VehicleGone(b.id)
			e.net.Unregister(b.node)
			e.col.RecordExit(now)
			if e.cfg.Region.CaptureExits {
				e.exits = append(e.exits, Exit{
					Vehicle: b.id, ToLeg: b.route.ToLeg, Speed: b.v,
					Legacy: b.legacy, At: now, Char: b.core.Char(),
				})
			}
		}
	}
}

// move applies the body's motion mode.
func (e *Engine) move(b *body, now time.Duration, dt float64) {
	if b.stopped {
		b.v = 0
		if b.stoppedAt == 0 {
			b.stoppedAt = now
		}
		return
	}
	if b.legacy {
		e.legacyMove(b, now, dt)
		return
	}
	mal := b.core.Malice()
	violating := mal != nil && mal.ViolateAt > 0 && now >= mal.ViolateAt
	switch {
	case b.core.SelfEvacuating():
		// Pull over: brake hard, drift to the shoulder.
		b.v -= 1.2 * units.MaxDecel * dt
		if b.v <= 0 {
			b.v = 0
			b.stopped = true
			b.stoppedAt = now
		}
		b.s += b.v * dt
		if b.lat > -3.0 {
			b.lat -= 1.2 * dt
		}
	case violating:
		if _, seen := e.violations[b.id]; !seen {
			e.violations[b.id] = now
		}
		e.violate(b, mal, now, dt)
	case b.core.Plan() != nil:
		// Benign with a plan: follow it exactly — unless collision
		// avoidance overrides (a stopped vehicle dead ahead).
		if e.obstacleAhead(b) {
			b.v = 0
			return
		}
		s, v := b.core.Plan().StateAt(now)
		if s > b.s {
			// Track the plan, but never faster than physically
			// possible (after an emergency stop the plan may be far
			// ahead; catch up gradually instead of teleporting), and
			// never into the vehicle ahead. For on-plan traffic the
			// scheduler's gaps (>= 8 m) make both caps inactive.
			step := s - b.s
			if max := 1.1 * units.SpeedLimit * dt; step > max {
				step = max
			}
			if gap, ok := e.leaderGap(b); ok {
				if maxStep := gap - 5; step > maxStep {
					step = maxStep
				}
			}
			if step > 0 {
				b.s += step
			}
		}
		b.v = v
		// Ease any residual lateral offset back to the lane center.
		if b.lat > 0.05 {
			b.lat -= 1.0 * dt
		} else if b.lat < -0.05 {
			b.lat += 1.0 * dt
		}
	default:
		// No plan yet: cruise with car-following, and never enter the
		// conflict area unscheduled.
		if gap, ok := e.leaderGap(b); ok {
			maxV := (gap - 9) / 1.2
			if maxV < 0 {
				maxV = 0
			}
			if b.v > maxV {
				b.v = maxV
			}
		}
		stopLine := b.route.CrossStart - 15
		if b.s+b.v*dt >= stopLine {
			b.v -= units.MaxDecel * dt
			if b.v < 0 {
				b.v = 0
			}
		}
		b.s += b.v * dt
	}
}

// legacyMove drives a human vehicle: cruise with car-following on the
// approach, yield at the entry line until the conflict area looks clear
// (gap acceptance), cross at a cautious speed, then resume cruising.
func (e *Engine) legacyMove(b *body, now time.Duration, dt float64) {
	const (
		crossSpeed = 9.0  // cautious crossing speed, m/s
		impatience = 25.0 // seconds a human waits before chancing it
	)
	stopLine := b.route.CrossStart - 12
	switch {
	case b.s >= b.route.CrossStart && b.s < b.route.CrossEnd:
		// Committed: cross steadily.
		if b.v < crossSpeed {
			b.v += units.MaxAccel * dt
		}
	case b.s >= stopLine && b.s < b.route.CrossStart:
		// At the line: yield until the box looks clear, with human
		// impatience as the tiebreaker against endless streams.
		waited := now - b.waitingSince
		if b.waitingSince == 0 {
			b.waitingSince = now
			waited = 0
		}
		if !e.boxClearFor(b) && waited < time.Duration(impatience*float64(time.Second)) {
			b.v -= 1.2 * units.MaxDecel * dt
			if b.v < 0 {
				b.v = 0
			}
		} else if b.v < crossSpeed {
			b.v += units.MaxAccel * dt
		}
	default:
		// Approach and exit: ordinary cruising with car-following.
		if gap, ok := e.leaderGap(b); ok {
			maxV := (gap - 9) / 1.2
			if maxV < 0 {
				maxV = 0
			}
			if b.v > maxV {
				b.v = maxV
			}
		} else if b.v < units.SpeedLimit*0.85 {
			b.v += units.MaxAccel * dt
		}
	}
	b.s += b.v * dt
}

// boxClearFor reports whether the conflict area looks passable to a
// yielding legacy driver: no other vehicle inside or about to enter it.
// It runs mid-physics, so the grid query widens by moveSlack and the
// distance test reads live positions; the result is order-independent.
func (e *Engine) boxClearFor(b *body) bool {
	clear := true
	e.grid.forEach(geom.V(0, 0), 110, e.moveSlack, func(o *body) bool {
		if o == b || !o.present(e.now) {
			return true
		}
		d := o.pos().Len()
		if d < 45 || (d < 110 && o.v > 8) {
			clear = false
			return false
		}
		return true
	})
	return clear
}

// violate executes the physical plan violation.
func (e *Engine) violate(b *body, mal *nwade.VehicleMalice, now time.Duration, dt float64) {
	p := b.core.Plan()
	switch mal.Violation {
	case nwade.ViolationSpeeding:
		// Run well above the scheduled speed.
		target := units.SpeedLimit * 1.4
		if p != nil {
			_, pv := p.StateAt(now)
			if pv+10 > target {
				target = pv + 10
			}
		}
		if b.v < target {
			b.v += 2 * units.MaxAccel * dt
		}
		b.s += b.v * dt
	case nwade.ViolationHardBrake:
		b.v -= 1.5 * units.MaxDecel * dt
		if b.v < 0 {
			b.v = 0
		}
		b.s += b.v * dt
	case nwade.ViolationLaneChange:
		// Keep the scheduled longitudinal motion but swerve across
		// two lane widths.
		if p != nil {
			s, v := p.StateAt(now)
			b.s, b.v = s, v
		} else {
			b.s += b.v * dt
		}
		if b.lat < 7.0 {
			b.lat += 2.5 * dt
		}
	default:
		b.s += b.v * dt
	}
}

// obstacleAhead reports a stopped vehicle directly ahead on the same
// incoming lane — the trigger for on-board emergency braking. The range
// is deliberately below the scheduler's minimum car-following gap (8 m),
// so plan-conformant traffic — including creeping queues at the entry
// line — never triggers it; only vehicles that stopped outside their
// plans (attackers, pull-overs, collisions) do. It only applies on the
// approach: inside the conflict area, crossing traffic legitimately
// passes close by and plans govern separation.
func (e *Engine) obstacleAhead(b *body) bool {
	if b.s >= b.route.CrossStart-2 {
		return false
	}
	for _, o := range e.lanes[b.route.From] {
		if o == b || !o.present(e.now) || o.v >= 1.0 {
			continue
		}
		if o.s >= o.route.CrossStart {
			continue
		}
		if gap := o.s - b.s; gap > 0 && gap < 6 {
			return true
		}
	}
	return false
}

// leaderGap returns the arc distance to the nearest vehicle ahead on the
// same incoming lane, within following range and while both are on the
// approach.
func (e *Engine) leaderGap(b *body) (float64, bool) {
	if b.s >= b.route.CrossStart-2 {
		return 0, false
	}
	best := 60.0
	found := false
	for _, o := range e.lanes[b.route.From] {
		if o == b || !o.present(e.now) {
			continue
		}
		if o.s >= o.route.CrossStart {
			continue
		}
		if gap := o.s - b.s; gap > 0 && gap < best {
			best = gap
			found = true
		}
	}
	return best, found
}

// collisions detects physical contact and stops the involved bodies. The
// grid was rebuilt after physics, so indexed positions are exact; each
// unordered pair is visited once (o.orderIdx > a.orderIdx), in the same
// (i, j>i) order as the original all-pairs scan.
func (e *Engine) collisions(now time.Duration) {
	for _, a := range e.all {
		if !a.present(now) {
			continue
		}
		e.grid.forEachOrdered(a.pos(), collisionDist, 0, func(c *body) bool {
			if c.orderIdx <= a.orderIdx || !c.present(now) {
				return true
			}
			if a.pos().Dist(c.pos()) < collisionDist {
				if !a.stopped || !c.stopped {
					e.col.Collisions++
				}
				if !a.stopped {
					a.stopped, a.stoppedAt = true, now
				}
				if !c.stopped {
					c.stopped, c.stoppedAt = true, now
				}
				a.v, c.v = 0, 0
				a.sensed.Speed, c.sensed.Speed = 0, 0
			}
			return true
		})
	}
}

// collisionDist is the center-to-center contact threshold in meters.
const collisionDist = 2.2

// ActiveVehicles returns the number of vehicles currently in the
// simulation.
func (e *Engine) ActiveVehicles() int {
	var n int
	for _, b := range e.bodies {
		if !b.exited {
			n++
		}
	}
	return n
}

// BodyState reports a vehicle's physical state (for tests).
func (e *Engine) BodyState(id plan.VehicleID) (s, v, lat float64, ok bool) {
	b, found := e.bodies[id]
	if !found {
		return 0, 0, 0, false
	}
	return b.s, b.v, b.lat, true
}

// CoreOf returns a vehicle's protocol core (for tests).
func (e *Engine) CoreOf(id plan.VehicleID) (*nwade.VehicleCore, bool) {
	b, found := e.bodies[id]
	if !found {
		return nil, false
	}
	return b.core, true
}
