package sim

import (
	"sort"
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/intersection"
	"nwade/internal/plan"
)

// admittedConflicts returns every conflicting pair among the newest
// plans the engine's manager packaged for each vehicle, checked pairwise
// with the plain conflict checker rather than the scheduler's own
// bookkeeping.
func admittedConflicts(e *Engine) []*plan.Conflict {
	newest := map[plan.VehicleID]*plan.TravelPlan{}
	for _, b := range e.IM().Blocks() {
		for _, p := range b.Plans {
			newest[p.Vehicle] = p
		}
	}
	plans := make([]*plan.TravelPlan, 0, len(newest))
	for _, p := range newest {
		plans = append(plans, p)
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Vehicle < plans[j].Vehicle })
	cc := plan.ConflictChecker{Inter: e.cfg.Inter}
	return cc.CheckAll(plans, nil)
}

// TestHonestIMAdmitsConflictFreePlans is the end-to-end oracle for the
// scheduler: on every layout, in dense benign traffic with an honest
// manager, no two vehicles' newest admitted plans conflict. Legacy
// traffic is kept out: at a 0.2 legacy share the same check reports
// conflicting pairs on four of the five layouts, an open defect this
// oracle does not cover.
func TestHonestIMAdmitsConflictFreePlans(t *testing.T) {
	for _, name := range intersection.KindNameList() {
		inter, err := Scenario{Intersection: name}.BuildInter()
		if err != nil {
			t.Fatal(err)
		}
		e := testEngine(t, Scenario{Inter: inter, Duration: time.Minute, RatePerMin: 120,
			Seed: 1, Attack: attack.Benign()})
		e.Run()
		if n := len(e.IM().Blocks()); n < 10 {
			t.Fatalf("%s: only %d blocks packaged; run too sparse to be meaningful", name, n)
		}
		for _, c := range admittedConflicts(e) {
			t.Errorf("%s: %v", name, c)
		}
	}
}
