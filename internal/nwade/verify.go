package nwade

import (
	"errors"
	"fmt"
	"time"

	"nwade/internal/chain"
	"nwade/internal/intersection"
	obspkg "nwade/internal/obs"
	"nwade/internal/plan"
)

// Tolerance bounds how far an observed vehicle status may deviate from
// its travel plan before the watcher raises an incident (Algorithm 2,
// line 9).
type Tolerance struct {
	Pos   float64 // position tolerance in meters
	Speed float64 // speed tolerance in m/s
}

// DefaultTolerance is conservative enough to absorb controller and
// queue-estimation noise yet catches real deviations within a second or
// two (a lane change is ~7 m lateral; attack speed deltas exceed 10 m/s).
func DefaultTolerance() Tolerance { return Tolerance{Pos: 5.0, Speed: 5.0} }

// ExpectedStatus computes a vehicle's scheduled status at time t from its
// travel plan and route geometry.
func ExpectedStatus(p *plan.TravelPlan, r *intersection.Route, t time.Duration) plan.Status {
	s, v := p.StateAt(t)
	return plan.Status{
		Pos:     r.Full.PointAt(s),
		Speed:   v,
		Heading: r.Full.HeadingAt(s),
		At:      t,
	}
}

// expectedMotion is ExpectedStatus without the heading, which no
// watcher check compares.
func expectedMotion(p *plan.TravelPlan, r *intersection.Route, t time.Duration) plan.Status {
	s, v := p.StateAt(t)
	return plan.Status{Pos: r.Full.PointAt(s), Speed: v, At: t}
}

// Deviation measures how far an observation diverges from the expected
// status: Euclidean position error and absolute speed error.
func Deviation(expected, observed plan.Status) (posErr, speedErr float64) {
	posErr = expected.Pos.Dist(observed.Pos)
	speedErr = observed.Speed - expected.Speed
	if speedErr < 0 {
		speedErr = -speedErr
	}
	return posErr, speedErr
}

// Violated reports whether a deviation exceeds the tolerance.
func (tol Tolerance) Violated(posErr, speedErr float64) bool {
	return posErr > tol.Pos || speedErr > tol.Speed
}

// CheckConduct is the watcher primitive shared by local verification
// (Algorithm 2) and the IM's direct check: given the suspect's plan and
// route and an observation, it returns the deviation and the verdict.
func CheckConduct(p *plan.TravelPlan, r *intersection.Route, observed plan.Status, tol Tolerance) (posErr, speedErr float64, violated bool) {
	posErr, speedErr = Deviation(expectedMotion(p, r, observed.At), observed)
	return posErr, speedErr, tol.Violated(posErr, speedErr)
}

// Aggressive classifies a plan deviation: true means the vehicle is
// doing something offensive — running faster than scheduled, ahead of its
// slot, or off its lane — the signature of the threat model's attacks.
// A false result on a violating vehicle means it is merely delayed or
// stopped (defensive braking, queue spill-back): a scheduling anomaly to
// re-plan around, not an attack to evacuate from. Watchers only report,
// verifiers only incriminate, and the IM only confirms aggressive
// deviations.
func Aggressive(p *plan.TravelPlan, r *intersection.Route, obs plan.Status, tol Tolerance) bool {
	why, _ := aggressiveWhy(p, r, obs, tol)
	return why != ""
}

// aggressiveWhy names the offensive condition (empty = passive) for
// diagnostics. Being ahead of schedule at the scheduled speed is NOT on
// the list: an attacker only gets ahead by overspeeding, which is caught
// live, while honest vehicles can end up displaced from a stale schedule
// after an evacuation upheaval — re-planning, not evacuation, fixes
// those.
func aggressiveWhy(p *plan.TravelPlan, r *intersection.Route, obs plan.Status, tol Tolerance) (string, float64) {
	exp := expectedMotion(p, r, obs.At)
	if obs.Speed > exp.Speed+tol.Speed {
		return "overspeed", obs.Speed - exp.Speed
	}
	_, lat := r.Full.Project(obs.Pos)
	if lat > tol.Pos*0.8 {
		return "off-lane", lat
	}
	return "", 0
}

// CheckAttack combines CheckConduct with the aggressive classification:
// the verdict is true only for deviations that look like an attack.
func CheckAttack(p *plan.TravelPlan, r *intersection.Route, obs plan.Status, tol Tolerance) (posErr, speedErr float64, attack bool) {
	posErr, speedErr, violated := CheckConduct(p, r, obs, tol)
	if !violated {
		return posErr, speedErr, false
	}
	return posErr, speedErr, Aggressive(p, r, obs, tol)
}

// ErrConflictingPlans is the Algorithm 1 failure arm for a block whose
// plans collide with each other or with previously received plans — the
// signature of a compromised intersection manager.
var ErrConflictingPlans = errors.New("nwade: block contains conflicting travel plans")

// VerifyBlock is Algorithm 1. It checks, in order: the block signature
// with K_u (step i), linkage to the cached chain (step iii), internal
// plan conflicts (step ii), and conflicts against plans in previously
// cached blocks (step iv). On success the block is appended to the cache.
//
// exclude lists vehicles whose cached plans are no longer authoritative —
// confirmed suspects named in an evacuation alert, whose old plans the
// new schedules deliberately conflict with. It may be nil.
func VerifyBlock(c *chain.Chain, checker *plan.ConflictChecker, b *chain.Block, exclude map[plan.VehicleID]bool) error {
	return verifyBlockObs(c, checker, b, exclude, nil, 0, nil)
}

// verifyBlockObs is VerifyBlock with per-check counters and the tick
// table of the receiving intersection at tick now: step iv checks only
// the prior plans that no receiver has proven conflict-free with b this
// tick. Each counter increments only when its check runs, so early exits
// are measured precisely. A nil sink costs one pointer check per
// counter; a nil table proves nothing.
func verifyBlockObs(c *chain.Chain, checker *plan.ConflictChecker, b *chain.Block, exclude map[plan.VehicleID]bool,
	tt *TickTable, now time.Duration, o *obspkg.Sink) error {
	if err := checkBlock(c, checker, b, c.Head(), o); err != nil {
		return err
	}
	// Step iv: consistency against the cached window. A vehicle's plan
	// in the new block supersedes its older plans (rescheduling,
	// evacuation), so prior plans of vehicles re-planned here are
	// excluded from the cross-check. Priors the tick table has proven
	// free are skipped; any conflict falls back to the full check, so a
	// rejection reports the same first conflict either way.
	replanned := make(map[plan.VehicleID]bool, len(b.Plans))
	for _, p := range b.Plans {
		replanned[p.Vehicle] = true
	}
	var prior []*plan.TravelPlan
	for _, p := range c.AllPlans() {
		if !replanned[p.Vehicle] && !exclude[p.Vehicle] {
			prior = append(prior, p)
		}
	}
	if len(prior) > 0 {
		o.Inc(obspkg.CntConflictChecks)
		if !tt.priorsFree(now, checker, b, prior) {
			if cs := checker.CheckAll(b.Plans, prior); len(cs) > 0 {
				return fmt.Errorf("%w: %v", ErrConflictingPlans, cs[0])
			}
		}
	}
	// Signature, root, and head linkage were verified above (steps i and
	// iii), so the append must not repeat the RSA work.
	return c.AppendVerified(b)
}

// checkBlock is Algorithm 1 up to the cached window: the signature and
// Merkle root (step i), the link to head when there is one (step iii),
// and the consistency of b's own plans (step ii). The cheap
// cryptographic checks run before the plan math.
func checkBlock(c *chain.Chain, checker *plan.ConflictChecker, b, head *chain.Block, o *obspkg.Sink) error {
	if err := checkContent(c, b, o); err != nil {
		return err
	}
	if head != nil {
		o.Inc(obspkg.CntLinkChecks)
		if err := chain.VerifyLink(head, b); err != nil {
			return err
		}
	}
	o.Inc(obspkg.CntConflictChecks)
	if cs := checker.CheckAll(b.Plans, nil); len(cs) > 0 {
		return fmt.Errorf("%w: %v", ErrConflictingPlans, cs[0])
	}
	return nil
}

// checkContent is the chain view's CheckContent with the signature and
// Merkle-root checks each counted when it runs.
func checkContent(c *chain.Chain, b *chain.Block, o *obspkg.Sink) error {
	ran, err := c.CheckContent(b)
	if ran {
		o.Inc(obspkg.CntSigChecks)
		if !errors.Is(err, chain.ErrBadSignature) {
			o.Inc(obspkg.CntMerkleChecks)
		}
	}
	return err
}
