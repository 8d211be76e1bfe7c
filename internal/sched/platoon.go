package sched

import (
	"fmt"
	"time"

	"nwade/internal/obs"
	"nwade/internal/plan"
)

// Platoon groups consecutive same-route requests into platoons and admits
// each platoon as a unit: the leader reserves, followers trail at a fixed
// headway. Platoon-based scheduling is one of the intersection-manager
// families the paper names (Section III).
type Platoon struct {
	// MaxSize caps platoon length (default 4).
	MaxSize int
	// Gap is the follower headway behind the predecessor (default
	// 1.6 s, just above the conflict checker's headway).
	Gap time.Duration
	// Profile overrides kinematic limits.
	Profile ProfileConfig

	obs *obs.Sink
}

var _ Scheduler = (*Platoon)(nil)

// SetObs implements ObsAware.
func (p *Platoon) SetObs(o *obs.Sink) { p.obs = o }

// Name implements Scheduler.
func (p *Platoon) Name() string { return "platoon" }

func (p *Platoon) maxSize() int {
	if p.MaxSize > 0 {
		return p.MaxSize
	}
	return 4
}

func (p *Platoon) gap() time.Duration {
	if p.Gap > 0 {
		return p.Gap
	}
	return 1600 * time.Millisecond
}

// Schedule implements Scheduler.
func (p *Platoon) Schedule(reqs []Request, now time.Duration, ledger *Ledger) (out []*plan.TravelPlan, err error) {
	defer func() { obsRecord(p.obs, reqs, now, out, err) }()
	prof := p.Profile.params()
	ordered := sortBatch(reqs)
	// Group consecutive same-route requests.
	var groups [][]Request
	for _, req := range ordered {
		n := len(groups)
		if n > 0 && groups[n-1][0].Route.ID == req.Route.ID && len(groups[n-1]) < p.maxSize() {
			groups[n-1] = append(groups[n-1], req)
			continue
		}
		groups = append(groups, []Request{req})
	}
	accepted := make([]*plan.TravelPlan, 0, len(ordered))
	byVehicle := make(map[plan.VehicleID]*plan.TravelPlan, len(ordered))
	for _, grp := range groups {
		plans, err := p.admitGroup(grp, now, ledger, accepted, prof)
		if err != nil {
			return nil, fmt.Errorf("platoon: %w", err)
		}
		accepted = append(accepted, plans...)
		for i, q := range plans {
			byVehicle[grp[i].Vehicle] = q
		}
	}
	out = make([]*plan.TravelPlan, len(reqs))
	for i, req := range reqs {
		out[i] = byVehicle[req.Vehicle]
	}
	return out, nil
}

// admitGroup finds the smallest leader delay such that every member of
// the platoon is conflict-free against prior plans.
func (p *Platoon) admitGroup(grp []Request, now time.Duration, ledger *Ledger, batch []*plan.TravelPlan, prof profileParams) ([]*plan.TravelPlan, error) {
	prior := append(ledger.Active(), batch...)
	builders := make([]*planBuilder, len(grp))
	for i, req := range grp {
		builders[i] = newPlanBuilder(req, now, prof)
	}
	outerLead := findLeader(grp[0], builders[0].t0, prior, ledger)
	delay := time.Duration(0)
	step := 600 * time.Millisecond
	const maxIter = 400
	for iter := 0; iter < maxIter; iter++ {
		plans := make([]*plan.TravelPlan, len(grp))
		ok := true
		for i, req := range grp {
			// Follower i trails the previous platoon member; the
			// platoon leader follows whatever is already on the lane.
			lead := outerLead
			if i > 0 {
				lead = &leadInfo{p: plans[i-1], sharedEnd: req.Route.CrossStart}
			}
			plans[i] = builders[i].build(delay+time.Duration(i)*p.gap(), lead)
		}
		// Check platoon members against prior plans and each other.
	check:
		for i := 0; i < len(plans) && ok; i++ {
			for _, q := range prior {
				if cf := ledger.Checker().Check(plans[i], q); cf != nil {
					ok = false
					break check
				}
			}
			for j := i + 1; j < len(plans); j++ {
				if cf := ledger.Checker().Check(plans[i], plans[j]); cf != nil {
					ok = false
					break check
				}
			}
		}
		if ok {
			for i, q := range plans {
				plans[i] = keep(q)
			}
			return plans, nil
		}
		delay += step
		if delay > 30*time.Second {
			step = 2 * time.Second
		}
	}
	return nil, fmt.Errorf("%w: platoon of %d led by %v", ErrUnschedulable, len(grp), grp[0].Vehicle)
}
