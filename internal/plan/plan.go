// Package plan defines travel plans — the unit of scheduling in NWADE.
//
// A TravelPlan is the paper's tuple ⟨id, char, status, inst⟩: the vehicle
// identity, its static characteristics, its dynamic status at issue time,
// and the instruction to follow. The instruction is a time-parametrised
// trajectory along one route of the intersection: a monotone sequence of
// (time, arc-length, speed) waypoints.
//
// Plans are hashed and signed into blockchain blocks, so the package also
// provides a deterministic binary encoding, and a ConflictChecker that
// both the intersection manager (when scheduling) and every vehicle (when
// validating received blocks) use to decide whether two plans can collide.
package plan

import (
	"errors"
	"fmt"
	"time"

	"nwade/internal/geom"
)

// VehicleID identifies a vehicle. The paper allows anonymous identities;
// an opaque integer serves both cases.
type VehicleID uint64

// String implements fmt.Stringer.
func (v VehicleID) String() string { return fmt.Sprintf("V%d", uint64(v)) }

// Characteristics are a vehicle's static, externally observable features,
// used in incident reports and evacuation alerts (car brand, model, color)
// and in separation checks (dimensions).
type Characteristics struct {
	Brand  string
	Model  string
	Color  string
	Length float64
	Width  float64
}

// Status is a vehicle's dynamic state at a point in time.
type Status struct {
	Pos     geom.Vec2
	Speed   float64
	Heading float64
	At      time.Duration // simulation time of the observation
}

// Waypoint is one sample of a trajectory: at absolute simulation time T
// the vehicle is at arc length S along its route, moving at speed V.
type Waypoint struct {
	T time.Duration
	S float64
	V float64
}

// TravelPlan is an instruction issued by the intersection manager to one
// vehicle: follow route RouteID according to the waypoint schedule.
type TravelPlan struct {
	Vehicle    VehicleID
	Char       Characteristics
	Status     Status
	RouteID    int
	Waypoints  []Waypoint
	Issued     time.Duration
	Evacuation bool // true when the plan is part of an evacuation broadcast
}

// Errors returned by plan validation.
var (
	ErrEmptyPlan    = errors.New("plan: no waypoints")
	ErrNonMonotonic = errors.New("plan: waypoints not monotone")
)

// Validate checks that the waypoint schedule is non-empty and monotone in
// both time and arc length.
func (p *TravelPlan) Validate() error {
	if len(p.Waypoints) == 0 {
		return ErrEmptyPlan
	}
	for i := 1; i < len(p.Waypoints); i++ {
		if p.Waypoints[i].T < p.Waypoints[i-1].T {
			return fmt.Errorf("%w: time decreases at waypoint %d", ErrNonMonotonic, i)
		}
		if p.Waypoints[i].S < p.Waypoints[i-1].S-1e-9 {
			return fmt.Errorf("%w: arc length decreases at waypoint %d", ErrNonMonotonic, i)
		}
	}
	return nil
}

// Start returns the time of the first waypoint.
func (p *TravelPlan) Start() time.Duration { return p.Waypoints[0].T }

// End returns the time of the last waypoint.
func (p *TravelPlan) End() time.Duration { return p.Waypoints[len(p.Waypoints)-1].T }

// Done reports whether the plan is fully executed at time t.
func (p *TravelPlan) Done(t time.Duration) bool {
	return len(p.Waypoints) == 0 || t >= p.End()
}

// StateAt returns the scheduled arc length and speed at time t,
// interpolating linearly between waypoints and clamping outside the
// schedule (a vehicle waits at the first waypoint before Start and stays
// at the last after End).
func (p *TravelPlan) StateAt(t time.Duration) (s, v float64) {
	ws := p.Waypoints
	if len(ws) == 0 {
		return 0, 0
	}
	if t <= ws[0].T {
		// Before the schedule begins the vehicle is expected at the
		// first waypoint, moving at its recorded speed (it is cruising
		// toward the plan's start, not parked).
		return ws[0].S, ws[0].V
	}
	if t >= ws[len(ws)-1].T {
		return ws[len(ws)-1].S, 0
	}
	// Binary search for the segment containing t.
	lo, hi := 0, len(ws)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ws[mid].T <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := ws[lo], ws[hi]
	if b.T == a.T {
		return b.S, b.V
	}
	f := float64(t-a.T) / float64(b.T-a.T)
	return a.S + (b.S-a.S)*f, a.V + (b.V-a.V)*f
}

// TimeAt returns the first time at which the plan reaches arc length s,
// and reports whether the plan ever reaches it.
func (p *TravelPlan) TimeAt(s float64) (time.Duration, bool) {
	ws := p.Waypoints
	if len(ws) == 0 || s > ws[len(ws)-1].S+1e-9 {
		return 0, false
	}
	if s <= ws[0].S {
		return ws[0].T, true
	}
	// Binary search for the first waypoint i >= 1 with S >= s. Every plan
	// producer emits waypoints non-decreasing in S, so this is the
	// waypoint a front-to-back scan would stop at.
	lo, hi := 1, len(ws)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ws[mid].S >= s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(ws) {
		return ws[len(ws)-1].T, true
	}
	a, b := ws[lo-1], ws[lo]
	//lint:ignore floateq degenerate-interval guard: exact equality is what makes the division below safe
	if b.S == a.S {
		return a.T, true
	}
	f := (s - a.S) / (b.S - a.S)
	return a.T + time.Duration(f*float64(b.T-a.T)), true
}

// FinalS returns the arc length of the last waypoint.
func (p *TravelPlan) FinalS() float64 {
	if len(p.Waypoints) == 0 {
		return 0
	}
	return p.Waypoints[len(p.Waypoints)-1].S
}

// Clone returns a deep copy of the plan.
func (p *TravelPlan) Clone() *TravelPlan {
	q := *p
	q.Waypoints = make([]Waypoint, len(p.Waypoints))
	copy(q.Waypoints, p.Waypoints)
	return &q
}
