// Package sched implements the intersection-manager scheduling algorithms
// that NWADE layers its security mechanism over.
//
// The paper integrates NWADE with DASH, a reservation-style trajectory
// scheduler that handles arbitrary intersection shapes; it also names
// traffic-light scheduling and platoon-based scheduling as alternative
// managers. This package provides all three behind one Scheduler
// interface, plus the shared Ledger of accepted plans used for conflict-
// free admission.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nwade/internal/intersection"
	"nwade/internal/obs"
	"nwade/internal/ordered"
	"nwade/internal/plan"
)

// Request is a vehicle's scheduling request: its identity, route choice
// and kinematic state. CurrentS > 0 marks a re-scheduling request for a
// vehicle already on its route (evacuation and recovery).
type Request struct {
	Vehicle  plan.VehicleID
	Char     plan.Characteristics
	Route    *intersection.Route
	ArriveAt time.Duration // when the vehicle is (was) at CurrentS
	Speed    float64
	CurrentS float64
}

// Scheduler computes conflict-free travel plans for a batch of requests.
// Implementations must not mutate the ledger; the caller commits accepted
// plans.
type Scheduler interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Schedule plans the batch at time now against already-accepted
	// plans in the ledger, returning one plan per request (same order).
	Schedule(reqs []Request, now time.Duration, ledger *Ledger) ([]*plan.TravelPlan, error)
}

// ObsAware is implemented by schedulers that accept an observability
// sink. All three built-in schedulers do; the engine (and the IM core for
// its internal evacuation/recovery schedulers) install the sink through
// this interface so custom Scheduler implementations stay untouched.
type ObsAware interface {
	SetObs(*obs.Sink)
}

// obsRecord folds one Schedule call's outcome into the sink: request and
// admission counters plus the granted-delay histogram (plan start
// relative to the batch time). Nil sinks cost one pointer check.
func obsRecord(o *obs.Sink, reqs []Request, now time.Duration, plans []*plan.TravelPlan, err error) {
	if o == nil {
		return
	}
	o.Add(obs.CntSchedRequests, uint64(len(reqs)))
	if err != nil {
		o.Add(obs.CntSchedRejected, uint64(len(reqs)))
		return
	}
	o.Add(obs.CntSchedAdmitted, uint64(len(plans)))
	for _, p := range plans {
		d := p.Start() - now
		if d < 0 {
			d = 0
		}
		o.Observe(obs.HistAdmitDelayMS, float64(d.Milliseconds()))
	}
}

// Ledger tracks accepted, still-active travel plans, and provides the
// conflict checking used during admission. It is not safe for concurrent
// use; the simulation engine is single-threaded by design (determinism).
type Ledger struct {
	checker *plan.ConflictChecker
	plans   map[plan.VehicleID]*plan.TravelPlan
}

// NewLedger creates an empty ledger over the intersection's conflict
// table.
func NewLedger(inter *intersection.Intersection) *Ledger {
	return &Ledger{
		checker: &plan.ConflictChecker{Inter: inter},
		plans:   make(map[plan.VehicleID]*plan.TravelPlan),
	}
}

// Checker exposes the shared conflict checker.
func (l *Ledger) Checker() *plan.ConflictChecker { return l.checker }

// Add commits plans to the ledger, replacing any previous plan of the
// same vehicle.
func (l *Ledger) Add(ps ...*plan.TravelPlan) {
	for _, p := range ps {
		l.plans[p.Vehicle] = p
	}
}

// Remove drops a vehicle's plan (vehicle left, or is being re-planned).
func (l *Ledger) Remove(id plan.VehicleID) { delete(l.plans, id) }

// Prune drops plans that completed more than grace ago.
func (l *Ledger) Prune(now, grace time.Duration) {
	for id, p := range l.plans {
		if p.End()+grace < now {
			delete(l.plans, id)
		}
	}
}

// Active returns the current plans in deterministic (vehicle ID) order.
func (l *Ledger) Active() []*plan.TravelPlan {
	return ordered.Values(l.plans)
}

// Len returns the number of active plans.
func (l *Ledger) Len() int { return len(l.plans) }

// Get returns a vehicle's active plan.
func (l *Ledger) Get(id plan.VehicleID) (*plan.TravelPlan, bool) {
	p, ok := l.plans[id]
	return p, ok
}

// ErrUnschedulable is returned when no conflict-free admission was found
// within the search horizon.
var ErrUnschedulable = errors.New("sched: request cannot be scheduled within horizon")

// admit searches for the smallest entry delay that yields a conflict-free
// plan for req, checking against both the ledger and plans accepted
// earlier in the same batch. It is shared by the reservation and platoon
// schedulers.
func admit(req Request, now time.Duration, ledger *Ledger, batch []*plan.TravelPlan, prof profileParams) (*plan.TravelPlan, error) {
	prior := append(ledger.Active(), batch...)
	b := newPlanBuilder(req, now, prof)
	lead := findLeader(req, b.t0, prior, ledger)
	delay := time.Duration(0)
	step := 600 * time.Millisecond
	const maxIter = 400
	for i := 0; i < maxIter; i++ {
		p := b.build(delay, lead)
		ok := true
		for _, q := range prior {
			if cf := ledger.checker.Check(p, q); cf != nil {
				ok = false
				break
			}
		}
		if ok {
			return keep(p), nil
		}
		delay += step
		if delay > 30*time.Second {
			step = 2 * time.Second
		}
	}
	return nil, fmt.Errorf("%w: %v after %v", ErrUnschedulable, req.Vehicle, delay)
}

// sortBatch orders requests by arrival time then vehicle ID (FCFS with a
// deterministic tiebreak).
func sortBatch(reqs []Request) []Request {
	out := make([]Request, len(reqs))
	copy(out, reqs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ArriveAt != out[j].ArriveAt {
			return out[i].ArriveAt < out[j].ArriveAt
		}
		return out[i].Vehicle < out[j].Vehicle
	})
	return out
}
