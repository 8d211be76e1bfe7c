package sched

import (
	"fmt"
	"time"

	"nwade/internal/intersection"
	"nwade/internal/obs"
	"nwade/internal/plan"
)

// TrafficLight is the classic baseline: legs take turns having a
// protected green phase; a vehicle may only enter the conflict area
// during its leg's green window. Within a green window, admission still
// uses the conflict checker (for same-lane following).
type TrafficLight struct {
	Inter *intersection.Intersection
	// Green is the per-leg green duration (default 12 s).
	Green time.Duration
	// AllRed is the clearance interval between phases (default 3 s).
	AllRed time.Duration
	// Profile overrides kinematic limits.
	Profile ProfileConfig

	obs *obs.Sink
}

var _ Scheduler = (*TrafficLight)(nil)

// SetObs implements ObsAware.
func (t *TrafficLight) SetObs(o *obs.Sink) { t.obs = o }

// Name implements Scheduler.
func (t *TrafficLight) Name() string { return "traffic-light" }

func (t *TrafficLight) green() time.Duration {
	if t.Green > 0 {
		return t.Green
	}
	return 12 * time.Second
}

func (t *TrafficLight) allRed() time.Duration {
	if t.AllRed > 0 {
		return t.AllRed
	}
	return 3 * time.Second
}

// cycle returns the full cycle length.
func (t *TrafficLight) cycle() time.Duration {
	legs := time.Duration(len(t.Inter.LegHeadings))
	return legs * (t.green() + t.allRed())
}

// NextGreen returns the start of the first green window for the leg that
// ends no earlier than at.
func (t *TrafficLight) NextGreen(leg int, at time.Duration) (start, end time.Duration) {
	phase := t.green() + t.allRed()
	cyc := t.cycle()
	offset := time.Duration(leg) * phase
	// Find the cycle index k with offset + k*cyc + green > at.
	k := (at - offset - t.green()) / cyc
	if k < 0 {
		k = 0
	}
	for {
		start = offset + k*cyc
		end = start + t.green()
		if end > at {
			return start, end
		}
		k++
	}
}

// Schedule implements Scheduler: hold each vehicle at the line until its
// leg's green, then admit conflict-free.
func (t *TrafficLight) Schedule(reqs []Request, now time.Duration, ledger *Ledger) (out []*plan.TravelPlan, err error) {
	defer func() { obsRecord(t.obs, reqs, now, out, err) }()
	prof := t.Profile.params()
	ordered := sortBatch(reqs)
	accepted := make([]*plan.TravelPlan, 0, len(ordered))
	byVehicle := make(map[plan.VehicleID]*plan.TravelPlan, len(ordered))
	prior := ledger.Active()
	for _, req := range ordered {
		p, err := t.admitInGreen(req, now, ledger, prior, accepted, prof)
		if err != nil {
			return nil, fmt.Errorf("traffic-light: %w", err)
		}
		accepted = append(accepted, p)
		byVehicle[req.Vehicle] = p
	}
	out = make([]*plan.TravelPlan, len(reqs))
	for i, req := range reqs {
		out[i] = byVehicle[req.Vehicle]
	}
	return out, nil
}

// admitInGreen searches successive green windows of the request's leg for
// a conflict-free admission.
func (t *TrafficLight) admitInGreen(req Request, now time.Duration, ledger *Ledger, prior, batch []*plan.TravelPlan, prof profileParams) (*plan.TravelPlan, error) {
	b := newPlanBuilder(req, now, prof)
	lead := findLeader(req, b.t0, append(append([]*plan.TravelPlan{}, prior...), batch...), ledger)
	const maxWindows = 40
	earliest := b.earliest
	entry := earliest
	for w := 0; w < maxWindows; w++ {
		gs, ge := t.NextGreen(req.Route.From.Leg, entry)
		if entry < gs {
			entry = gs
		}
		// Try admissions inside this green window.
		for entry < ge {
			delay := entry - earliest
			if delay < 0 {
				delay = 0
			}
			p := b.build(delay, lead)
			if in, ok := p.TimeAt(req.Route.CrossStart); ok && in >= ge {
				break // integration drifted past the window
			}
			conflict := false
			for _, q := range prior {
				if cf := ledger.Checker().Check(p, q); cf != nil {
					conflict = true
					break
				}
			}
			if !conflict {
				for _, q := range batch {
					if cf := ledger.Checker().Check(p, q); cf != nil {
						conflict = true
						break
					}
				}
			}
			if !conflict {
				return keep(p), nil
			}
			entry += 700 * time.Millisecond
		}
		entry = ge + t.allRed()
	}
	return nil, fmt.Errorf("%w: %v found no green admission", ErrUnschedulable, req.Vehicle)
}
