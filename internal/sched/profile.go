package sched

import (
	"math"
	"time"

	"nwade/internal/plan"
	"nwade/internal/units"
)

// profileParams bounds the kinematics of generated trajectories.
type profileParams struct {
	vmax float64       // speed limit
	amax float64       // max acceleration
	bmax float64       // max deceleration
	dt   time.Duration // integration step
	wp   time.Duration // waypoint emission interval
}

// Car-following gap parameters: a follower stays at least
// followGapDist + followGapTime*speed behind its leader.
const (
	followGapDist = 8.0
	followGapTime = 1700 * time.Millisecond
)

// defaultProfile returns the paper's kinematic limits.
func defaultProfile() profileParams {
	return profileParams{
		vmax: units.SpeedLimit,
		amax: units.MaxAccel,
		bmax: units.MaxDecel,
		dt:   250 * time.Millisecond,
		wp:   500 * time.Millisecond,
	}
}

// earliestEntry integrates full-throttle driving to estimate the earliest
// time a vehicle at (s0, v0) at time t0 can reach arc length sT.
func earliestEntry(t0 time.Duration, s0, v0, sT float64, prof profileParams) time.Duration {
	t, s, v := t0, s0, v0
	dt := prof.dt.Seconds()
	for s < sT {
		v += prof.amax * dt
		if v > prof.vmax {
			v = prof.vmax
		}
		s += v * dt
		t += prof.dt
		if t-t0 > 20*time.Minute {
			break
		}
	}
	return t
}

// leadInfo references the plan of the vehicle immediately ahead on the
// same incoming lane. The controller keeps a speed-dependent gap behind it
// while both are on the shared approach (s < sharedEnd).
type leadInfo struct {
	p         *plan.TravelPlan
	sharedEnd float64
}

// findLeader locates, among prior plans, the nearest plan ahead of the
// request on the same incoming lane, so the generated trajectory can
// car-follow it instead of driving into it.
func findLeader(req Request, t0 time.Duration, prior []*plan.TravelPlan, ledger *Ledger) *leadInfo {
	inter := ledger.Checker().Inter
	var best *plan.TravelPlan
	bestS := math.Inf(1)
	for _, q := range prior {
		qr, err := inter.Route(q.RouteID)
		if err != nil || qr.From != req.Route.From {
			continue
		}
		sq, _ := q.StateAt(t0)
		if sq >= req.CurrentS && sq < bestS {
			// Ignore leaders already past the shared approach.
			if sq < math.Min(qr.CrossStart, req.Route.CrossStart)+30 {
				best = q
				bestS = sq
			}
		}
	}
	if best == nil {
		return nil
	}
	br, err := inter.Route(best.RouteID)
	if err != nil {
		return nil
	}
	return &leadInfo{p: best, sharedEnd: math.Min(br.CrossStart, req.Route.CrossStart)}
}

// planBuilder integrates candidate plans for one request. The admission
// loops try one candidate per entry delay until one is conflict-free, so
// the builder computes what does not depend on the delay once: the
// earliest feasible entry, the plan's issue status, and the leader's
// scheduled position at each integration step.
type planBuilder struct {
	req      Request
	now, t0  time.Duration
	prof     profileParams
	earliest time.Duration // earliest arrival at the conflict-area entry
	status   plan.Status
	// leader is the plan the cached positions belong to; leaderS[k] is
	// its scheduled arc length at the end of integration step k.
	leader  *plan.TravelPlan
	leaderS []float64
	// ws is the waypoint scratch every candidate integrates into.
	ws []plan.Waypoint
}

// newPlanBuilder prepares the candidates of req at time now.
func newPlanBuilder(req Request, now time.Duration, prof profileParams) *planBuilder {
	r := req.Route
	t0 := req.ArriveAt
	if now > t0 {
		t0 = now
	}
	return &planBuilder{
		req:      req,
		now:      now,
		t0:       t0,
		prof:     prof,
		earliest: earliestEntry(t0, req.CurrentS, req.Speed, r.CrossStart, prof),
		status:   plan.Status{Pos: r.Full.PointAt(req.CurrentS), Speed: req.Speed, Heading: r.Full.HeadingAt(req.CurrentS), At: t0},
	}
}

// build integrates a simple longitudinal controller into a waypoint
// schedule. Before the conflict-area entry the controller drives at the
// speed that arrives exactly at the target entry time (earliest feasible
// plus the admission delay), which naturally produces slow-downs or a
// stop-and-wait at the entry line; past the entry it accelerates back to
// the limit and holds it to the end of the route. When lead is non-nil
// the controller additionally keeps a speed-dependent gap behind the
// leading vehicle's scheduled position on the shared approach.
//
// Every candidate integrates into the builder's scratch: the returned
// plan's waypoints are valid until the next build, and keep copies out
// the plan a caller accepts.
func (b *planBuilder) build(delay time.Duration, lead *leadInfo) *plan.TravelPlan {
	prof := b.prof
	r := b.req.Route
	entryS := r.CrossStart
	L := r.Full.Length()
	target := b.earliest + delay
	if lead != nil && lead.p != b.leader {
		b.leader, b.leaderS = lead.p, b.leaderS[:0]
	}

	dt := prof.dt.Seconds()
	t, s, v := b.t0, b.req.CurrentS, b.req.Speed
	ws := append(b.ws[:0], plan.Waypoint{T: t, S: s, V: v})
	lastWP := t
	// Guard against runaway integration; generous enough for a stop of
	// several minutes at a saturated intersection.
	deadline := b.t0 + 30*time.Minute

	for k := 0; s < L && t < deadline; k++ {
		var vdes float64
		if s < entryS && t < target {
			rem := entryS - s
			trem := (target - t).Seconds()
			if trem <= dt {
				vdes = prof.vmax
			} else {
				vdes = rem / trem
				// Creep rather than fully stall far from the line,
				// but allow a true stop right at the line.
				if vdes < 0.3 && rem > 5 {
					vdes = 0.3
				}
			}
		} else {
			vdes = prof.vmax
		}
		if vdes > prof.vmax {
			vdes = prof.vmax
		}
		a := (vdes - v) / dt
		a = math.Max(-prof.bmax, math.Min(prof.amax, a))
		v += a * dt
		if v < 0 {
			v = 0
		}
		// Car-following: never advance past the leader's scheduled
		// position minus a speed-dependent gap while on the shared
		// approach. Safety overrides the comfort deceleration limit.
		if lead != nil && s < lead.sharedEnd {
			maxS := b.leaderAt(k) - (followGapDist + followGapTime.Seconds()*v)
			if s+v*dt > maxS {
				v = math.Max(0, (maxS-s)/dt)
			}
		}
		s += v * dt
		if s > L {
			s = L
		}
		t += prof.dt
		if t-lastWP >= prof.wp || s >= L {
			ws = append(ws, plan.Waypoint{T: t, S: s, V: v})
			lastWP = t
		}
	}
	if ws[len(ws)-1].S < L {
		// Integration hit the deadline; close the plan at the end of
		// the route so occupancy stays bounded.
		ws = append(ws, plan.Waypoint{T: t + time.Second, S: L, V: prof.vmax})
	}
	b.ws = ws
	return &plan.TravelPlan{
		Vehicle:   b.req.Vehicle,
		Char:      b.req.Char,
		Status:    b.status,
		RouteID:   r.ID,
		Waypoints: ws,
		Issued:    b.now,
	}
}

// leaderAt returns the leader's scheduled arc length at the end of
// integration step k, t0 + (k+1)·dt. Steps that consult the leader form a
// prefix of the integration, so the cache fills in order.
func (b *planBuilder) leaderAt(k int) float64 {
	for len(b.leaderS) <= k {
		sL, _ := b.leader.StateAt(b.t0 + time.Duration(len(b.leaderS)+1)*b.prof.dt)
		b.leaderS = append(b.leaderS, sL)
	}
	return b.leaderS[k]
}

// keep detaches an accepted candidate from the builder's scratch.
func keep(p *plan.TravelPlan) *plan.TravelPlan {
	p.Waypoints = append([]plan.Waypoint(nil), p.Waypoints...)
	return p
}
