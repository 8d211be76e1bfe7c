package nwade

import (
	"slices"
	"testing"
	"time"

	"nwade/internal/geom"
	"nwade/internal/plan"
	"nwade/internal/sched"
	"nwade/internal/vnet"
)

// pump runs the bus for a span, ticking the IM with the provided
// visibility and each car with the provided neighbor view.
func pump(b *bus, from, to, step time.Duration,
	visible func(now time.Duration) []VehicleObs,
	selfStatus func(id plan.VehicleID, now time.Duration) plan.Status,
	neighbors func(id plan.VehicleID, now time.Duration) []Neighbor) {
	for now := from; now <= to; now += step {
		b.deliver(now)
		var vis []VehicleObs
		if visible != nil {
			vis = visible(now)
		}
		b.send(now, vnet.IMNode, b.im.Tick(now, vis))
		for _, id := range b.ids {
			var st plan.Status
			if selfStatus != nil {
				st = selfStatus(id, now)
			}
			var nb []Neighbor
			if neighbors != nil {
				nb = neighbors(id, now)
			}
			b.send(now, vnet.VehicleNode(uint64(id)), b.cars[id].Tick(now, st, nb))
		}
	}
}

func TestIMBatchSchedulingAndDissemination(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	im := mkIM(t, sink, nil)
	r0 := in.RoutesFromLeg(0, 2)[0] // straight
	r1 := in.RoutesFromLeg(1, 2)[0]
	c1 := mkCar(t, 1, r0, sink, nil, 0)
	c2 := mkCar(t, 2, r1, sink, nil, 0)
	b = newBus(t, im, c1, c2)

	pump(b, 0, 3*time.Second, 100*time.Millisecond, nil, nil, nil)

	if c1.Plan() == nil || c2.Plan() == nil {
		t.Fatal("vehicles did not receive plans")
	}
	if c1.State() != VFollowing || c2.State() != VFollowing {
		t.Errorf("states = %v, %v; want following", c1.State(), c2.State())
	}
	if got := b.countEvents(EvBlockBroadcast); got < 1 {
		t.Errorf("block broadcasts = %d", got)
	}
	if got := b.countEvents(EvBlockAccepted); got < 2 {
		t.Errorf("block acceptances = %d", got)
	}
	if b.countEvents(EvBlockRejected) != 0 {
		t.Error("honest blocks rejected")
	}
	if im.State() != IMStandby {
		t.Errorf("IM state = %v", im.State())
	}
	if im.Ledger().Len() != 2 {
		t.Errorf("ledger has %d plans", im.Ledger().Len())
	}
}

func TestIMDirectCheckConfirmsRealViolation(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	im := mkIM(t, sink, nil)
	r0 := in.RoutesFromLeg(0, 2)[0]
	r1 := in.RoutesFromLeg(2, 2)[0]
	watcher := mkCar(t, 1, r0, sink, nil, 0)
	violator := mkCar(t, 2, r1, sink, &VehicleMalice{ViolateAt: 4 * time.Second, Violation: ViolationSpeeding}, 0)
	b = newBus(t, im, watcher, violator)

	// Ground truth: the violator runs 12 m/s faster than its plan after
	// ViolateAt; both are near the center (visible to the IM and to each
	// other).
	truth := func(id plan.VehicleID, now time.Duration) plan.Status {
		c := b.cars[id]
		if c.Plan() == nil {
			return plan.Status{At: now}
		}
		off := geom.V(0, 0)
		var dspd float64
		if m := c.Malice(); m != nil && m.ViolateAt > 0 && now >= m.ViolateAt {
			dspd = 12
			off = geom.V(0, 6) // drifting out of lane
		}
		return statusOn(c.Plan(), c.Route(), now, off, dspd)
	}
	visible := func(now time.Duration) []VehicleObs {
		var out []VehicleObs
		for _, id := range b.ids {
			out = append(out, VehicleObs{ID: id, Status: truth(id, now)})
		}
		return out
	}
	neighbors := func(id plan.VehicleID, now time.Duration) []Neighbor {
		var out []Neighbor
		for _, other := range b.ids {
			if other != id {
				out = append(out, Neighbor{ID: other, Status: truth(other, now)})
			}
		}
		return out
	}
	pump(b, 0, 8*time.Second, 100*time.Millisecond, visible, truth, neighbors)

	if _, ok := b.firstEvent(EvReportSent); !ok {
		t.Fatal("watcher never reported the deviation")
	}
	if _, ok := b.firstEvent(EvIncidentConfirmed); !ok {
		t.Fatal("IM never confirmed the incident")
	}
	if _, ok := b.firstEvent(EvEvacuationStarted); !ok {
		t.Fatal("IM never started evacuation")
	}
	if got := im.Suspects(); len(got) != 1 || got[0] != 2 {
		t.Errorf("suspects = %v, want [2]", got)
	}
	if im.State() != IMEvacuation {
		t.Errorf("IM state = %v, want evacuation", im.State())
	}
	// Detection latency: report -> confirmation under the paper's 360 ms.
	rep, _ := b.firstEvent(EvReportSent)
	conf, _ := b.firstEvent(EvIncidentConfirmed)
	if d := conf.At - rep.At; d > 360*time.Millisecond {
		t.Errorf("detection took %v, paper reports < 360 ms", d)
	}
}

// TestBusRunsAreReproducible runs one three-car scenario — a watcher, a
// speeding violator the IM confirms and evacuates, and a bystander — 20
// times in one process: every run must log the same events in the same
// order.
func TestBusRunsAreReproducible(t *testing.T) {
	_, in := fixtures(t)
	run := func() []Event {
		var b *bus
		sink := func(e Event) { b.events = append(b.events, e) }
		b = newBus(t, mkIM(t, sink, nil),
			mkCar(t, 1, in.RoutesFromLeg(0, 2)[0], sink, nil, 0),
			mkCar(t, 2, in.RoutesFromLeg(2, 2)[0], sink, &VehicleMalice{ViolateAt: 4 * time.Second, Violation: ViolationSpeeding}, 0),
			mkCar(t, 3, in.RoutesFromLeg(1, 2)[0], sink, nil, 0))
		truth := func(id plan.VehicleID, now time.Duration) plan.Status {
			c := b.cars[id]
			if c.Plan() == nil {
				return plan.Status{At: now}
			}
			if m := c.Malice(); m != nil && now >= m.ViolateAt {
				return statusOn(c.Plan(), c.Route(), now, geom.V(0, 6), 12)
			}
			return statusOn(c.Plan(), c.Route(), now, geom.V(0, 0), 0)
		}
		visible := func(now time.Duration) []VehicleObs {
			var out []VehicleObs
			for _, id := range b.ids {
				out = append(out, VehicleObs{ID: id, Status: truth(id, now)})
			}
			return out
		}
		neighbors := func(id plan.VehicleID, now time.Duration) []Neighbor {
			var out []Neighbor
			for _, other := range b.ids {
				if other != id {
					out = append(out, Neighbor{ID: other, Status: truth(other, now)})
				}
			}
			return out
		}
		pump(b, 0, 8*time.Second, 100*time.Millisecond, visible, truth, neighbors)
		return b.events
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("the scenario logged no events")
	}
	for i := 1; i < 20; i++ {
		if got := run(); !slices.Equal(got, first) {
			t.Fatalf("run %d logged %d events that differ from the first run's %d", i+1, len(got), len(first))
		}
	}
}

func TestIMDismissesFalseReportByDirectCheck(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	im := mkIM(t, sink, nil)
	r0 := in.RoutesFromLeg(0, 2)[0]
	r1 := in.RoutesFromLeg(2, 2)[0]
	honest := mkCar(t, 1, r0, sink, nil, 0)
	liar := mkCar(t, 2, r1, sink, &VehicleMalice{FalseReportAt: 4 * time.Second, FalseTarget: 1}, 0)
	b = newBus(t, im, honest, liar)

	truth := func(id plan.VehicleID, now time.Duration) plan.Status {
		c := b.cars[id]
		if c.Plan() == nil {
			return plan.Status{At: now}
		}
		return statusOn(c.Plan(), c.Route(), now, geom.V(0, 0), 0)
	}
	visible := func(now time.Duration) []VehicleObs {
		var out []VehicleObs
		for _, id := range b.ids {
			out = append(out, VehicleObs{ID: id, Status: truth(id, now)})
		}
		return out
	}
	neighbors := func(id plan.VehicleID, now time.Duration) []Neighbor {
		var out []Neighbor
		for _, other := range b.ids {
			if other != id {
				out = append(out, Neighbor{ID: other, Status: truth(other, now)})
			}
		}
		return out
	}
	pump(b, 0, 8*time.Second, 100*time.Millisecond, visible, truth, neighbors)

	if _, ok := b.firstEvent(EvAlarmDismissed); !ok {
		t.Fatal("false report not dismissed")
	}
	if b.countEvents(EvEvacuationStarted) != 0 {
		t.Error("false report triggered evacuation despite IM visibility")
	}
	if im.Strikes(2) == 0 {
		t.Error("false reporter got no strike")
	}
	// The honest target keeps following its plan.
	if honest.SelfEvacuating() {
		t.Error("framed vehicle self-evacuated")
	}
}

func TestIMVotingColludersWinRound1ButRound2Recovers(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	cfg := DefaultIMConfig()
	cfg.PerceptionRadius = 1 // force the voting path: IM sees nothing
	cfg.GroupSize = 3
	s, _ := fixtures(t)
	im := NewIMCore(cfg, in, s, &sched.Reservation{}, sink, nil)

	r0 := in.RoutesFromLeg(0, 2)[0]
	target := mkCar(t, 1, r0, sink, nil, 0)
	accomplices := map[plan.VehicleID]bool{2: true, 3: true, 4: true}
	liar := mkCar(t, 2, in.RoutesFromLeg(1, 2)[0], sink, &VehicleMalice{FalseReportAt: 4 * time.Second, FalseTarget: 1, VoteFalsely: true, Accomplices: accomplices}, 0)
	v3 := mkCar(t, 3, in.RoutesFromLeg(2, 2)[0], sink, &VehicleMalice{VoteFalsely: true, Accomplices: accomplices}, 0)
	v4 := mkCar(t, 4, in.RoutesFromLeg(3, 2)[0], sink, &VehicleMalice{VoteFalsely: true, Accomplices: accomplices}, 0)
	// Honest bystanders, far group.
	h5 := mkCar(t, 5, in.RoutesFromLeg(0, 2)[1], sink, nil, 0)
	h6 := mkCar(t, 6, in.RoutesFromLeg(1, 2)[1], sink, nil, 0)
	h7 := mkCar(t, 7, in.RoutesFromLeg(2, 2)[1], sink, nil, 0)
	b = newBus(t, im, target, liar, v3, v4, h5, h6, h7)

	truth := func(id plan.VehicleID, now time.Duration) plan.Status {
		c := b.cars[id]
		if c.Plan() == nil {
			return plan.Status{At: now}
		}
		return statusOn(c.Plan(), c.Route(), now, geom.V(0, 0), 0)
	}
	neighbors := func(id plan.VehicleID, now time.Duration) []Neighbor {
		var out []Neighbor
		for _, other := range b.ids {
			if other != id {
				out = append(out, Neighbor{ID: other, Status: truth(other, now)})
			}
		}
		return out
	}
	pump(b, 0, 10*time.Second, 100*time.Millisecond, nil, truth, neighbors)

	// Round 1 happened; outcome depends on which 3 voters were nearest,
	// but with 3 colluders and 5 honest-ish candidates both outcomes are
	// legal. What MUST hold: the workflow terminates in either a
	// dismissal or a detected false alarm, and the target is never left
	// marked as a suspect.
	dismissed := b.countEvents(EvAlarmDismissed) > 0
	caught := b.countEvents(EvFalseAlarmDetected) > 0
	if !dismissed && !caught {
		t.Fatal("false-alarm workflow never terminated")
	}
	for _, id := range im.Suspects() {
		if id == 1 {
			t.Error("benign target still marked suspect after verification")
		}
	}
	if got := b.countEvents(EvVoteRound); got < 1 {
		t.Errorf("vote rounds = %d", got)
	}
}

func TestIMUnresponsiveTriggersSelfEvacAndGlobal(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	im := mkIM(t, sink, &IMMalice{Unresponsive: true})
	r0 := in.RoutesFromLeg(0, 2)[0]
	r1 := in.RoutesFromLeg(2, 2)[0]
	watcher := mkCar(t, 1, r0, sink, nil, 0)
	violator := mkCar(t, 2, r1, sink, &VehicleMalice{ViolateAt: 4 * time.Second, Violation: ViolationSpeeding}, 0)
	bystander := mkCar(t, 3, in.RoutesFromLeg(1, 2)[0], sink, nil, 0)
	b = newBus(t, im, watcher, violator, bystander)

	truth := func(id plan.VehicleID, now time.Duration) plan.Status {
		c := b.cars[id]
		if c.Plan() == nil {
			return plan.Status{At: now}
		}
		var dspd float64
		off := geom.V(0, 0)
		if m := c.Malice(); m != nil && m.ViolateAt > 0 && now >= m.ViolateAt {
			dspd = 12
			off = geom.V(0, 6)
		}
		return statusOn(c.Plan(), c.Route(), now, off, dspd)
	}
	neighbors := func(id plan.VehicleID, now time.Duration) []Neighbor {
		var out []Neighbor
		for _, other := range b.ids {
			if other != id {
				out = append(out, Neighbor{ID: other, Status: truth(other, now)})
			}
		}
		return out
	}
	pump(b, 0, 10*time.Second, 100*time.Millisecond, nil, truth, neighbors)

	if !watcher.SelfEvacuating() {
		t.Fatal("reporter did not self-evacuate after IM timeout")
	}
	if !watcher.DistrustsIM() {
		t.Error("reporter still trusts the unresponsive IM")
	}
	if _, ok := b.firstEvent(EvGlobalSent); !ok {
		t.Error("no global report sent")
	}
	ev, _ := b.firstEvent(EvSelfEvacuation)
	if ev.Info != ReasonIMUnresponsive.String() {
		t.Errorf("self-evac reason = %q", ev.Info)
	}
}

func TestMaliciousIMConflictingPlansCaughtByVehicles(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	im := mkIM(t, sink, &IMMalice{ConflictingPlans: true})
	// Two vehicles on crossing routes: the sabotage retimes one onto
	// the other's conflict zone.
	c1 := mkCar(t, 1, in.RoutesFromLeg(0, 2)[0], sink, nil, 0)
	c2 := mkCar(t, 2, in.RoutesFromLeg(1, 2)[0], sink, nil, 0)
	b = newBus(t, im, c1, c2)

	pump(b, 0, 4*time.Second, 100*time.Millisecond, nil, nil, nil)

	if b.countEvents(EvBlockRejected) == 0 {
		t.Fatal("no vehicle rejected the sabotaged block")
	}
	if !c1.SelfEvacuating() && !c2.SelfEvacuating() {
		t.Fatal("nobody self-evacuated from conflicting plans")
	}
	ev, ok := b.firstEvent(EvSelfEvacuation)
	if !ok || ev.Info != ReasonConflictingPlans.String() {
		t.Errorf("self-evac reason = %v", ev.Info)
	}
	if b.countEvents(EvGlobalSent) == 0 {
		t.Error("no global report about the compromised IM")
	}
}

func TestMaliciousIMBadSignatureCaught(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	im := mkIM(t, sink, &IMMalice{BadSignature: true})
	c1 := mkCar(t, 1, in.RoutesFromLeg(0, 2)[0], sink, nil, 0)
	b = newBus(t, im, c1)
	pump(b, 0, 4*time.Second, 100*time.Millisecond, nil, nil, nil)
	if !c1.SelfEvacuating() {
		t.Fatal("bad-signature block accepted")
	}
	ev, _ := b.firstEvent(EvSelfEvacuation)
	if ev.Info != ReasonBadBlock.String() {
		t.Errorf("reason = %q", ev.Info)
	}
}

func TestEvacuationAndRecoveryLifecycle(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	cfg := DefaultIMConfig()
	cfg.EvacClearance = 2 * time.Second
	s, _ := fixtures(t)
	im := NewIMCore(cfg, in, s, &sched.Reservation{}, sink, nil)
	watcher := mkCar(t, 1, in.RoutesFromLeg(0, 2)[0], sink, nil, 0)
	violator := mkCar(t, 2, in.RoutesFromLeg(2, 2)[0], sink, &VehicleMalice{ViolateAt: 4 * time.Second, Violation: ViolationHardBrake}, 0)
	bystander := mkCar(t, 3, in.RoutesFromLeg(1, 2)[0], sink, nil, 0)
	b = newBus(t, im, watcher, violator, bystander)

	violatorGone := false
	truth := func(id plan.VehicleID, now time.Duration) plan.Status {
		c := b.cars[id]
		if c.Plan() == nil {
			return plan.Status{At: now}
		}
		var dspd float64
		off := geom.V(0, 0)
		if m := c.Malice(); m != nil && m.ViolateAt > 0 && now >= m.ViolateAt {
			dspd = -14 // hard brake: huge speed error
			off = geom.V(0, 6)
		}
		return statusOn(c.Plan(), c.Route(), now, off, dspd)
	}
	visible := func(now time.Duration) []VehicleObs {
		var out []VehicleObs
		for _, id := range b.ids {
			if id == 2 && violatorGone {
				continue
			}
			out = append(out, VehicleObs{ID: id, Status: truth(id, now)})
		}
		return out
	}
	neighbors := func(id plan.VehicleID, now time.Duration) []Neighbor {
		var out []Neighbor
		for _, other := range b.ids {
			if other != id {
				if other == 2 && violatorGone {
					continue
				}
				out = append(out, Neighbor{ID: other, Status: truth(other, now)})
			}
		}
		return out
	}
	pump(b, 0, 6*time.Second, 100*time.Millisecond, visible, truth, neighbors)
	if im.State() != IMEvacuation {
		t.Fatalf("IM state = %v, want evacuation", im.State())
	}
	if b.countEvents(EvEvacPlanAdopted) == 0 {
		t.Error("no vehicle adopted an evacuation plan")
	}
	// The suspect leaves the scene; after clearance the IM recovers.
	violatorGone = true
	im.VehicleGone(2)
	pump(b, 6*time.Second+100*time.Millisecond, 10*time.Second, 100*time.Millisecond, visible, truth, neighbors)
	if _, ok := b.firstEvent(EvRecoveryStarted); !ok {
		t.Fatal("post-evacuation recovery never started")
	}
	if im.State() != IMStandby {
		t.Errorf("IM state after recovery = %v", im.State())
	}
}

func TestShamEvacuationDetectedByWatchers(t *testing.T) {
	_, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	im := mkIM(t, sink, &IMMalice{FalseEvacuation: true, FalseEvacAt: 4 * time.Second, FalseEvacTarget: 1})
	framed := mkCar(t, 1, in.RoutesFromLeg(0, 2)[0], sink, nil, 0)
	witness := mkCar(t, 2, in.RoutesFromLeg(0, 2)[1], sink, nil, 0)
	b = newBus(t, im, framed, witness)

	truth := func(id plan.VehicleID, now time.Duration) plan.Status {
		c := b.cars[id]
		if c.Plan() == nil {
			return plan.Status{At: now}
		}
		return statusOn(c.Plan(), c.Route(), now, geom.V(0, 0), 0)
	}
	neighbors := func(id plan.VehicleID, now time.Duration) []Neighbor {
		var out []Neighbor
		for _, other := range b.ids {
			if other != id {
				out = append(out, Neighbor{ID: other, Status: truth(other, now)})
			}
		}
		return out
	}
	pump(b, 0, 8*time.Second, 100*time.Millisecond, nil, truth, neighbors)

	if b.countEvents(EvFalseAccusationSeen) == 0 {
		t.Fatal("sham evacuation not recognized")
	}
	// The framed vehicle knows it is innocent and distrusts the IM.
	if !framed.DistrustsIM() {
		t.Error("framed vehicle still trusts the IM")
	}
	if b.countEvents(EvGlobalSent) == 0 {
		t.Error("no global warnings about the sham")
	}
}

func TestIMStrikeLimitSilencesRepeatedLiars(t *testing.T) {
	_, in := fixtures(t)
	sink := EventSink(nil)
	im := mkIM(t, sink, nil)
	// Seed the ledger so direct checks can run.
	ledger := im.Ledger()
	reqs := []sched.Request{{Vehicle: 1, Route: in.Routes[0], ArriveAt: 0, Speed: 15}}
	plans, err := (&sched.Reservation{}).Schedule(reqs, 0, ledger)
	if err != nil {
		t.Fatal(err)
	}
	ledger.Add(plans...)
	// The IM can see vehicle 1 behaving.
	im.Tick(time.Second, []VehicleObs{{ID: 1, Status: ExpectedStatus(plans[0], in.Routes[0], time.Second)}})
	for i := 0; i < 5; i++ {
		now := time.Duration(i+2) * time.Second
		im.Tick(now, []VehicleObs{{ID: 1, Status: ExpectedStatus(plans[0], in.Routes[0], now)}})
		im.HandleMessage(now, vnet.Message{Kind: KindIncident, Payload: IncidentReport{
			Reporter: 9, Suspect: 1, Evidence: plan.Status{At: now}, At: now,
		}})
	}
	if got := im.Strikes(9); got != DefaultIMConfig().StrikeLimit {
		t.Errorf("strikes = %d, want capped at %d (ignored afterwards)", got, DefaultIMConfig().StrikeLimit)
	}
}
