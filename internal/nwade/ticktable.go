package nwade

import (
	"math"
	"time"

	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/plan"
)

// TickTable is one intersection's table of results that its vehicles
// would otherwise each compute alike within a tick: the Algorithm 2
// verdict on each watched plan, and the Algorithm 1 step-iv proofs of
// each received block. Every entry is exact: a hit needs the very inputs
// the result was computed from, so a vehicle reading the table reaches
// the result it would have computed itself.
//
// The table holds one tick's entries and clears itself when a call
// names another tick. It is derived state and never checkpointed. The
// engine builds one and hands it to every vehicle core; the cores' tick
// and message handlers write it, which is safe because an engine's tick
// is sequential and each region of a network owns its engine. A nil
// table remembers nothing: every call computes in full.
type TickTable struct {
	now   time.Duration
	watch map[*plan.TravelPlan]watchEntry
	// proofs lists, per block, the prior plans proven conflict-free
	// with every plan of that block by its checker.
	proofs map[*chain.Block]*blockProofs
}

// watchEntry is one CheckAttack result and the inputs it was computed
// from (the plan is the map key).
type watchEntry struct {
	route            *intersection.Route
	obs              plan.Status
	tol              Tolerance
	posErr, speedErr float64
	attack           bool
}

// blockProofs records the prior plans proven conflict-free with all
// plans of one block under one checker.
type blockProofs struct {
	checker plan.ConflictChecker
	free    map[*plan.TravelPlan]bool
}

// NewTickTable returns an empty table.
func NewTickTable() *TickTable {
	return &TickTable{
		watch:  make(map[*plan.TravelPlan]watchEntry),
		proofs: make(map[*chain.Block]*blockProofs),
	}
}

// at clears the table when now is a different tick from its entries'.
func (t *TickTable) at(now time.Duration) {
	if now != t.now {
		clear(t.watch)
		clear(t.proofs)
		t.now = now
	}
}

// checkAttack is CheckAttack(p, r, obs, tol), remembered per plan for
// the tick. Watchers of one suspect observe the same sensed status and
// share the engine's tolerance, so all but the first read the result.
func (t *TickTable) checkAttack(now time.Duration, p *plan.TravelPlan, r *intersection.Route, obs plan.Status, tol Tolerance) (posErr, speedErr float64, attack bool) {
	if t == nil {
		return CheckAttack(p, r, obs, tol)
	}
	t.at(now)
	if e, ok := t.watch[p]; ok && e.route == r && sameStatus(e.obs, obs) && sameTolerance(e.tol, tol) {
		return e.posErr, e.speedErr, e.attack
	}
	posErr, speedErr, attack = CheckAttack(p, r, obs, tol)
	t.watch[p] = watchEntry{route: r, obs: obs, tol: tol, posErr: posErr, speedErr: speedErr, attack: attack}
	return posErr, speedErr, attack
}

// priorsFree reports whether every plan of prior is proven free of
// conflicts with every plan of b, checking only the priors no receiver
// has proven yet this tick and recording those that pass. A false
// result proves nothing: the caller runs the full check, which finds the
// conflict and its exact report. A nil table proves nothing either.
func (t *TickTable) priorsFree(now time.Duration, checker *plan.ConflictChecker, b *chain.Block, prior []*plan.TravelPlan) bool {
	if t == nil {
		return false
	}
	t.at(now)
	bp := t.proofs[b]
	if bp == nil || bp.checker != *checker {
		bp = &blockProofs{checker: *checker, free: make(map[*plan.TravelPlan]bool, len(prior))}
		t.proofs[b] = bp
	}
	for _, q := range prior {
		if bp.free[q] {
			continue
		}
		for _, p := range b.Plans {
			if checker.Check(p, q) != nil {
				return false
			}
		}
		bp.free[q] = true
	}
	return true
}

// sameStatus reports whether two statuses are bit-identical.
func sameStatus(a, b plan.Status) bool {
	return a.At == b.At && sameFloat(a.Pos.X, b.Pos.X) && sameFloat(a.Pos.Y, b.Pos.Y) &&
		sameFloat(a.Speed, b.Speed) && sameFloat(a.Heading, b.Heading)
}

// sameTolerance reports whether two tolerances are bit-identical.
func sameTolerance(a, b Tolerance) bool {
	return sameFloat(a.Pos, b.Pos) && sameFloat(a.Speed, b.Speed)
}

// sameFloat compares bits, not values: only an identical input may
// reuse a result.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
