// Checkpoint/restore for a whole simulation run. A snapshot is taken at
// a tick boundary (between Step calls) and captures every bit of mutable
// state the next tick can observe: the clock, the engine's RNG position,
// the physical bodies in iteration order, deferred arrivals, the attack
// ground truth, the arrival generator, the network (delivery heap, fault
// model, statistics), the protocol cores with the signing key, and the
// metrics collector. Derived structures — the spatial grid, the per-lane
// lists, the node locator — are rebuilt on restore.
//
// The state is grouped by subsystem so the replay bisector can attribute
// a divergence: Engine (physical world), Traffic, Net, Protocol,
// Collector.
package sim

import (
	"fmt"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/detrand"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/plan"
	"nwade/internal/traffic"
	"nwade/internal/vnet"
)

// BodyState is one vehicle's physical state.
//
//lint:checkpoint-state encode=Engine.Snapshot decode=Restore
type BodyState struct {
	ID           plan.VehicleID
	RouteID      int
	S            float64
	V            float64
	Lat          float64
	Arrive       time.Duration
	Exited       bool
	Stopped      bool
	Legacy       bool
	WaitingSince time.Duration
	StoppedAt    time.Duration
}

// ArrivalState is one deferred arrival, with the route by ID. Handoff
// and Legacy carry the road-network handoff marker across checkpoints,
// so an in-transit vehicle restores with its identity rules intact.
//
//lint:checkpoint-state encode=Engine.Snapshot decode=Restore
type ArrivalState struct {
	At      time.Duration
	Vehicle plan.VehicleID
	RouteID int
	Speed   float64
	Char    plan.Characteristics
	Handoff bool `json:",omitempty"`
	Legacy  bool `json:",omitempty"`
}

// EngineState is the physical-world subsystem: clock, engine RNG, bodies
// in deterministic iteration order, spill-back queue, and the attack
// ground truth.
//
//lint:checkpoint-state encode=Engine.Snapshot decode=Restore
type EngineState struct {
	Now           time.Duration
	RNG           detrand.State
	Bodies        []BodyState
	Deferred      []ArrivalState
	Roles         attack.Roles
	RolesAssigned bool
	AttackOnsets  map[plan.VehicleID]time.Duration
	Violations    map[plan.VehicleID]time.Duration
	// Exits are captured crossings not yet drained by TakeExits
	// (network regions only; roadnet drains every tick, so this is
	// normally empty at checkpoint boundaries).
	Exits []Exit `json:",omitempty"`
}

// ProtocolState is the NWADE subsystem: the signing key, the manager
// core, and one vehicle core per body (same order as EngineState.Bodies).
//
//lint:checkpoint-state encode=Engine.Snapshot decode=Restore
type ProtocolState struct {
	Signer   chain.SignerState
	IM       nwade.IMCoreState
	Vehicles []nwade.VehicleCoreState
}

// State is a complete simulation snapshot.
//
//lint:checkpoint-state encode=Engine.Snapshot decode=Restore
type State struct {
	Engine    EngineState
	Traffic   traffic.GeneratorState
	Net       vnet.NetworkState
	Protocol  ProtocolState
	Collector metrics.CollectorState
}

// Snapshot captures the engine's complete state. Call it only at a tick
// boundary — between Step calls (or before Run) — never mid-tick.
func (e *Engine) Snapshot() (*State, error) {
	imState, err := e.im.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	netState, err := e.net.Snapshot(nwade.EncodePayload)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	st := &State{
		Engine: EngineState{
			Now:           e.now,
			RNG:           e.rngSrc.State(),
			Bodies:        make([]BodyState, 0, len(e.all)),
			Roles:         copyRoles(e.roles),
			RolesAssigned: e.rolesAssigned,
			AttackOnsets:  e.AttackOnsets(),
			Violations:    e.Violations(),
		},
		Traffic: e.gen.Snapshot(),
		Net:     netState,
		Protocol: ProtocolState{
			Signer:   e.signer.Snapshot(),
			IM:       imState,
			Vehicles: make([]nwade.VehicleCoreState, 0, len(e.all)),
		},
		Collector: e.col.Snapshot(),
	}
	for _, a := range e.deferred {
		st.Engine.Deferred = append(st.Engine.Deferred, ArrivalState{
			At: a.At, Vehicle: a.Vehicle, RouteID: a.Route.ID, Speed: a.Speed, Char: a.Char,
			Handoff: a.Handoff, Legacy: a.Legacy,
		})
	}
	st.Engine.Exits = append(st.Engine.Exits, e.exits...)
	for _, b := range e.all {
		st.Engine.Bodies = append(st.Engine.Bodies, BodyState{
			ID: b.id, RouteID: b.route.ID, S: b.s, V: b.v, Lat: b.lat,
			Arrive: b.arrive, Exited: b.exited, Stopped: b.stopped,
			Legacy: b.legacy, WaitingSince: b.waitingSince, StoppedAt: b.stoppedAt,
		})
		st.Protocol.Vehicles = append(st.Protocol.Vehicles, b.core.Snapshot())
	}
	return st, nil
}

// Restore rebuilds an engine from a snapshot. cfg must be the original
// run's configuration (same intersection, scenario, rates, seeds); the
// signing key always comes from the snapshot, so restored block
// signatures keep verifying. WithObs is honored; WithSigner is ignored.
//
// The restored engine is bit-identical to the snapshotted one: stepping
// both produces the same event log, network schedule and digests.
func Restore(cfg Scenario, st *State, opts ...Option) (*Engine, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	signer, err := chain.RestoreSigner(st.Protocol.Signer)
	if err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	if len(st.Engine.Bodies) != len(st.Protocol.Vehicles) {
		return nil, fmt.Errorf("sim: restore: %d bodies but %d vehicle cores",
			len(st.Engine.Bodies), len(st.Protocol.Vehicles))
	}
	e, err := newEngine(cfg, signer, o.obs)
	if err != nil {
		return nil, err
	}
	e.now = st.Engine.Now
	e.rngSrc.Restore(st.Engine.RNG)
	if err := e.net.RestoreState(st.Net, nwade.DecodePayload); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	e.gen.RestoreState(st.Traffic)
	if err := e.im.RestoreState(st.Protocol.IM); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	e.col.RestoreState(st.Collector)
	e.roles = copyRoles(st.Engine.Roles)
	e.rolesAssigned = st.Engine.RolesAssigned
	for id, t := range st.Engine.AttackOnsets {
		e.attackOnsets[id] = t
	}
	for id, t := range st.Engine.Violations {
		e.violations[id] = t
	}
	for _, a := range st.Engine.Deferred {
		route, err := e.cfg.Inter.Route(a.RouteID)
		if err != nil {
			return nil, fmt.Errorf("sim: restore deferred arrival %v: %w", a.Vehicle, err)
		}
		e.deferred = append(e.deferred, traffic.Arrival{
			At: a.At, Vehicle: a.Vehicle, Route: route, Speed: a.Speed, Char: a.Char,
			Handoff: a.Handoff, Legacy: a.Legacy,
		})
	}
	e.exits = append(e.exits, st.Engine.Exits...)
	for i, bs := range st.Engine.Bodies {
		cs := st.Protocol.Vehicles[i]
		if cs.ID != bs.ID {
			return nil, fmt.Errorf("sim: restore: body %d is %v but core is %v", i, bs.ID, cs.ID)
		}
		route, err := e.cfg.Inter.Route(bs.RouteID)
		if err != nil {
			return nil, fmt.Errorf("sim: restore body %v: %w", bs.ID, err)
		}
		b := &body{
			id: bs.ID, route: route, s: bs.S, v: bs.V, lat: bs.Lat,
			arrive: bs.Arrive, exited: bs.Exited, stopped: bs.Stopped,
			legacy: bs.Legacy, waitingSince: bs.WaitingSince, stoppedAt: bs.StoppedAt,
			orderIdx: i, node: vnet.VehicleNode(uint64(bs.ID)),
		}
		core := nwade.NewVehicleCore(bs.ID, cs.Char, route, e.cfg.Inter, e.verdicts, e.table,
			e.cfg.VehicleConfig, e.emit, nil, cs.ArriveAt, cs.Speed0)
		core.SetObs(e.obs)
		if cs.Malice != nil {
			m := e.cfg.Attack.MaliceFor(bs.ID, e.roles)
			if m == nil {
				return nil, fmt.Errorf("sim: restore body %v: snapshot has malice flags but scenario assigns none", bs.ID)
			}
			core.SetMalice(m)
		}
		if err := core.RestoreState(cs); err != nil {
			return nil, fmt.Errorf("sim: restore: %w", err)
		}
		b.core = core
		b.refreshPos()
		e.bodies[bs.ID] = b
		e.all = append(e.all, b)
		e.byNode[b.node] = b
		if !b.exited {
			e.lanes[b.route.From] = append(e.lanes[b.route.From], b)
		}
	}
	// Node registration was restored with the network state; the grid is
	// rebuilt at the next tick's reindex phase, and the lane lists above
	// match what the continuous run's spawn phase would have observed
	// (exited entries are filtered live there).
	return e, nil
}

// copyRoles deep-copies a role assignment.
func copyRoles(r attack.Roles) attack.Roles {
	out := attack.Roles{
		Violator:       r.Violator,
		FalseReporters: append([]plan.VehicleID(nil), r.FalseReporters...),
	}
	if r.All != nil {
		out.All = make(map[plan.VehicleID]bool, len(r.All))
		for id, v := range r.All {
			out.All[id] = v
		}
	}
	return out
}
