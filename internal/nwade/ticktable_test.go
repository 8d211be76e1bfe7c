package nwade

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nwade/internal/chain"
	"nwade/internal/geom"
	"nwade/internal/intersection"
	"nwade/internal/plan"
	"nwade/internal/sched"
	"nwade/internal/vnet"
)

// fleet is a deterministic miniature intersection for differential
// tests: one IM and cars in ascending ID order, a fixed link latency,
// and a transcript of every event and every output in the order they
// happen.
type fleet struct {
	t       *testing.T
	im      *IMCore
	cars    []*VehicleCore
	pending []timed
	log     strings.Builder
}

// record appends one line to the transcript.
func (f *fleet) record(format string, args ...any) {
	fmt.Fprintf(&f.log, format+"\n", args...)
}

// send queues a node's outputs and writes each to the transcript. The
// payload is rendered through the checkpoint codec, so blocks appear by
// content rather than by address.
func (f *fleet) send(now time.Duration, from vnet.NodeID, outs []Out) {
	for _, o := range outs {
		env, err := EncodePayload(o.Payload)
		if err != nil {
			f.t.Fatal(err)
		}
		f.record("%v out %v->%v %v %s %s", now, from, o.To, o.Kind, env.Type, env.Data)
		f.pending = append(f.pending, timed{at: now + 30*time.Millisecond, from: from, out: o})
	}
}

// deliver hands every due message to its receivers, IM first, then the
// cars in ID order.
func (f *fleet) deliver(now time.Duration) {
	for len(f.pending) > 0 && f.pending[0].at <= now {
		var due []timed
		i := 0
		for ; i < len(f.pending) && f.pending[i].at <= now; i++ {
			due = append(due, f.pending[i])
		}
		f.pending = f.pending[i:]
		for _, tm := range due {
			msg := vnet.Message{From: tm.from, To: tm.out.To, Kind: tm.out.Kind, Payload: tm.out.Payload,
				Sent: tm.at - 30*time.Millisecond, Deliver: tm.at}
			if tm.out.To == vnet.IMNode || (tm.out.To == vnet.Broadcast && tm.from != vnet.IMNode) {
				f.send(now, vnet.IMNode, f.im.HandleMessage(now, msg))
			}
			for _, c := range f.cars {
				node := vnet.VehicleNode(uint64(c.id))
				if node == tm.from || (tm.out.To != vnet.Broadcast && tm.out.To != node) {
					continue
				}
				f.send(now, node, c.HandleMessage(now, msg))
			}
		}
	}
}

// truth is a car's ground-truth status: on its plan, except that a
// violator runs fast and drifts off its lane once its violation starts.
func (f *fleet) truth(c *VehicleCore, now time.Duration) plan.Status {
	if c.Plan() == nil {
		return plan.Status{At: now}
	}
	if m := c.Malice(); m != nil && m.ViolateAt > 0 && now >= m.ViolateAt {
		return statusOn(c.Plan(), c.Route(), now, geom.V(0, 6), 12)
	}
	return statusOn(c.Plan(), c.Route(), now, geom.V(0, 0), 0)
}

// run steps the fleet from 0 to end and returns the transcript. Every
// car senses every other car, and the IM sees them all.
func (f *fleet) run(end time.Duration) string {
	for now := time.Duration(0); now <= end; now += 100 * time.Millisecond {
		f.deliver(now)
		truths := make([]plan.Status, len(f.cars))
		var vis []VehicleObs
		for i, c := range f.cars {
			truths[i] = f.truth(c, now)
			vis = append(vis, VehicleObs{ID: c.id, Status: truths[i]})
		}
		f.send(now, vnet.IMNode, f.im.Tick(now, vis))
		for i, c := range f.cars {
			var nb []Neighbor
			for j, o := range f.cars {
				if j != i {
					nb = append(nb, Neighbor{ID: o.id, Status: truths[j]})
				}
			}
			f.send(now, vnet.VehicleNode(uint64(c.id)), c.Tick(now, truths[i], nb))
		}
	}
	return f.log.String()
}

// fleetAttack describes a differential run: the IM's malice and each
// car's, built fresh per run because malice carries one-shot state.
type fleetAttack struct {
	name string
	im   func() *IMMalice
	car  func(id plan.VehicleID) *VehicleMalice
}

// coalitionV5 mirrors a V5 coalition: car 3 speeds from 4 s, cars 4–7
// file false reports half a second apart, and all five vote falsely.
func coalitionV5(id plan.VehicleID) *VehicleMalice {
	if id < 3 || id > 7 {
		return nil
	}
	all := map[plan.VehicleID]bool{3: true, 4: true, 5: true, 6: true, 7: true}
	m := &VehicleMalice{VoteFalsely: true, Accomplices: all}
	if id == 3 {
		m.ViolateAt, m.Violation = 4*time.Second, ViolationSpeeding
	} else {
		m.FalseReportAt = 4*time.Second + time.Duration(id-4)*500*time.Millisecond
	}
	return m
}

var fleetAttacks = []fleetAttack{
	{"V5", func() *IMMalice { return nil }, coalitionV5},
	{"IM_V5", func() *IMMalice {
		return &IMMalice{ActiveAt: 4 * time.Second, DismissAll: true, FalseEvacuation: true, FalseEvacAt: 6 * time.Second}
	}, coalitionV5},
	{"false-report", func() *IMMalice { return nil }, func(id plan.VehicleID) *VehicleMalice {
		if id != 2 {
			return nil
		}
		return &VehicleMalice{FalseReportAt: 4 * time.Second, FalseTarget: 1}
	}},
}

// newFleet builds ten cars spread over the four legs, sharing table.
func newFleet(t *testing.T, table *TickTable, atk fleetAttack) *fleet {
	s, in := fixtures(t)
	f := &fleet{t: t}
	sink := func(e Event) {
		f.record("%v event %v %v->%v %s", e.At, e.Type, e.Actor, e.Subject, e.Info)
	}
	f.im = NewIMCore(DefaultIMConfig(), in, s, &sched.Reservation{}, sink, atk.im())
	verdicts := chain.NewVerdicts(s.Public())
	for i := 0; i < 10; i++ {
		id := plan.VehicleID(i + 1)
		routes := in.RoutesFromLeg(i%4, intersection.MovementStraight)
		route := routes[(i/4)%len(routes)]
		f.cars = append(f.cars, NewVehicleCore(id, plan.Characteristics{Brand: "Acme", Model: "T", Color: "red", Length: 4.5, Width: 1.9},
			route, in, verdicts, table, DefaultVehicleConfig(), sink, atk.car(id), time.Duration(i)*300*time.Millisecond, 15))
	}
	return f
}

// TestTickTableMatchesFullChecks runs the same attacks with cores that
// share a tick table and with cores that have none: the transcripts —
// every event and every message, in order — must be identical.
func TestTickTableMatchesFullChecks(t *testing.T) {
	for _, atk := range fleetAttacks {
		t.Run(atk.name, func(t *testing.T) {
			table := NewTickTable()
			shared := newFleet(t, table, atk).run(10 * time.Second)
			full := newFleet(t, nil, atk).run(10 * time.Second)
			if shared != full {
				t.Fatalf("transcripts differ:\n%s", firstDiff(shared, full))
			}
			for _, want := range []string{EvBlockAccepted.String(), EvReportSent.String()} {
				if !strings.Contains(full, " event "+want+" ") {
					t.Errorf("run has no %s event; the comparison shows little", want)
				}
			}
			if len(table.watch) == 0 {
				t.Error("the shared table holds no watch verdicts")
			}
		})
	}
}

// firstDiff returns the first differing line of two transcripts.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n shared %s\n full   %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// TestConflictingPriorRejectedByEveryReceiver delivers a block whose
// plan collides with a cached prior to receivers sharing a tick table.
// An earlier receiver that excludes the collided vehicle passes the
// block and records proofs for every other prior; every later receiver
// must still reject it, with the error text of the full check.
func TestConflictingPriorRejectedByEveryReceiver(t *testing.T) {
	s, in := fixtures(t)
	chk := &plan.ConflictChecker{Inter: in}
	plans := scheduledPlans(t, 6)
	b0, err := chain.Package(s, nil, time.Second, plans[:3])
	if err != nil {
		t.Fatal(err)
	}
	b1, err := chain.Package(s, b0, 2*time.Second, plans[3:5])
	if err != nil {
		t.Fatal(err)
	}
	evil := plans[0].Clone()
	evil.Vehicle = 99
	b2, err := chain.Package(s, b1, 3*time.Second, []*plan.TravelPlan{plans[5], evil})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := chain.NewVerdicts(s.Public())
	table := NewTickTable()
	const now = 3 * time.Second
	receiver := func(tt *TickTable) *chain.Chain {
		c := verdicts.NewChain(0)
		for _, b := range []*chain.Block{b0, b1} {
			if err := verifyBlockObs(c, chk, b, nil, tt, now, nil); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	want := VerifyBlock(receiver(nil), chk, b2, nil)
	if want == nil {
		t.Fatal("the full check passes the conflicting block")
	}
	if err := verifyBlockObs(receiver(table), chk, b2, map[plan.VehicleID]bool{plans[0].Vehicle: true}, table, now, nil); err != nil {
		t.Fatalf("receiver excluding %v: %v", plans[0].Vehicle, err)
	}
	if bp := table.proofs[b2]; bp == nil || len(bp.free) == 0 {
		t.Fatal("the passing receiver recorded no proofs")
	}
	for i := 0; i < 3; i++ {
		err := verifyBlockObs(receiver(table), chk, b2, nil, table, now, nil)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("receiver %d: err = %v, want %v", i, err, want)
		}
	}
}

// TestTickTableClearsOnNextTick checks that entries live for one tick.
func TestTickTableClearsOnNextTick(t *testing.T) {
	_, in := fixtures(t)
	p := scheduledPlans(t, 1)[0]
	r, err := in.Route(p.RouteID)
	if err != nil {
		t.Fatal(err)
	}
	table := NewTickTable()
	obs := statusOn(p, r, time.Second, geom.V(0, 0), 0)
	table.checkAttack(time.Second, p, r, obs, DefaultTolerance())
	if len(table.watch) != 1 {
		t.Fatalf("watch entries = %d, want 1", len(table.watch))
	}
	later := statusOn(p, r, 2*time.Second, geom.V(0, 0), 0)
	table.checkAttack(2*time.Second, p, r, later, DefaultTolerance())
	if len(table.watch) != 1 || !sameStatus(table.watch[p].obs, later) {
		t.Fatalf("table kept the previous tick's entry: %+v", table.watch)
	}
}

// TestTickTableHitNeedsSameInputs checks the watch memo's hit condition:
// within one tick, a different observation, tolerance or route of the
// same plan is computed afresh and agrees with CheckAttack.
func TestTickTableHitNeedsSameInputs(t *testing.T) {
	_, in := fixtures(t)
	p := scheduledPlans(t, 1)[0]
	r, err := in.Route(p.RouteID)
	if err != nil {
		t.Fatal(err)
	}
	other := in.Routes[(p.RouteID+1)%len(in.Routes)]
	const now = 3 * time.Second
	onPlan := statusOn(p, r, now, geom.V(0, 0), 0)
	speeding := statusOn(p, r, now, geom.V(0, 6), 12)
	strict := Tolerance{Pos: 0.5, Speed: 0.5}
	table := NewTickTable()
	for i, c := range []struct {
		r   *intersection.Route
		obs plan.Status
		tol Tolerance
	}{
		{r, onPlan, DefaultTolerance()},
		{r, speeding, DefaultTolerance()},
		{r, onPlan, DefaultTolerance()},
		{r, statusOn(p, r, now, geom.V(0, 4.5), 4.5), DefaultTolerance()},
		{r, statusOn(p, r, now, geom.V(0, 4.5), 4.5), strict},
		{other, speeding, DefaultTolerance()},
	} {
		pe, se, atk := table.checkAttack(now, p, c.r, c.obs, c.tol)
		wpe, wse, watk := CheckAttack(p, c.r, c.obs, c.tol)
		if !sameFloat(pe, wpe) || !sameFloat(se, wse) || atk != watk {
			t.Errorf("case %d: table (%v, %v, %v), CheckAttack (%v, %v, %v)", i, pe, se, atk, wpe, wse, watk)
		}
	}
}
