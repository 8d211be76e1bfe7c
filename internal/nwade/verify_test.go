package nwade

import (
	"errors"
	"testing"
	"time"

	"nwade/internal/chain"
	"nwade/internal/geom"
	"nwade/internal/intersection"
	"nwade/internal/plan"
	"nwade/internal/sched"
)

// scheduledPlans produces a conflict-free batch via the real scheduler.
func scheduledPlans(t testing.TB, n int) []*plan.TravelPlan {
	t.Helper()
	_, in := fixtures(t)
	ledger := sched.NewLedger(in)
	var reqs []sched.Request
	routes := in.Routes
	for i := 0; i < n; i++ {
		reqs = append(reqs, sched.Request{
			Vehicle:  plan.VehicleID(i + 1),
			Char:     plan.Characteristics{Brand: "A", Model: "B", Color: "c"},
			Route:    routes[(i*5)%len(routes)],
			ArriveAt: time.Duration(i) * 2 * time.Second,
			Speed:    15,
		})
	}
	plans, err := (&sched.Reservation{}).Schedule(reqs, 0, ledger)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

func TestVerifyBlockAcceptsHonestBlock(t *testing.T) {
	s, in := fixtures(t)
	c := chain.NewChain(s.Public(), 0)
	chk := &plan.ConflictChecker{Inter: in}
	b, err := chain.Package(s, nil, time.Second, scheduledPlans(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBlock(c, chk, b, nil); err != nil {
		t.Fatalf("honest block rejected: %v", err)
	}
	if c.Len() != 1 {
		t.Error("block not cached")
	}
}

func TestVerifyBlockRejectsConflictingPlans(t *testing.T) {
	s, in := fixtures(t)
	c := chain.NewChain(s.Public(), 0)
	chk := &plan.ConflictChecker{Inter: in}
	plans := scheduledPlans(t, 6)
	// Sabotage: retime one plan onto another's conflict zone, exactly
	// like the compromised IM does.
	im := NewIMCore(DefaultIMConfig(), in, s, &sched.Reservation{}, nil, &IMMalice{ConflictingPlans: true})
	im.sabotage(0, plans)
	b, err := chain.Package(s, nil, time.Second, plans)
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyBlock(c, chk, b, nil)
	if !errors.Is(err, ErrConflictingPlans) {
		t.Fatalf("sabotaged block: err = %v, want ErrConflictingPlans", err)
	}
	if c.Len() != 0 {
		t.Error("bad block cached")
	}
}

func TestVerifyBlockRejectsConflictAcrossBlocks(t *testing.T) {
	s, in := fixtures(t)
	c := chain.NewChain(s.Public(), 0)
	chk := &plan.ConflictChecker{Inter: in}
	plans := scheduledPlans(t, 6)
	b0, err := chain.Package(s, nil, time.Second, plans[:3])
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBlock(c, chk, b0, nil); err != nil {
		t.Fatal(err)
	}
	// The second block contains a plan colliding with a plan in the
	// first block (a conflicting-schedule attack split across blocks).
	evil := plans[0].Clone()
	evil.Vehicle = 99
	b1, err := chain.Package(s, b0, 2*time.Second, []*plan.TravelPlan{evil, plans[4]})
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyBlock(c, chk, b1, nil)
	if !errors.Is(err, ErrConflictingPlans) {
		t.Fatalf("cross-block conflict: err = %v", err)
	}
}

func TestVerifyBlockRejectsBadSignature(t *testing.T) {
	s, in := fixtures(t)
	c := chain.NewChain(s.Public(), 0)
	chk := &plan.ConflictChecker{Inter: in}
	b, err := chain.Package(s, nil, time.Second, scheduledPlans(t, 3)[:2])
	if err != nil {
		t.Fatal(err)
	}
	b.Sig[0] ^= 0xFF
	if err := VerifyBlock(c, chk, b, nil); !errors.Is(err, chain.ErrBadSignature) {
		t.Fatalf("bad signature: err = %v", err)
	}
}

func TestVerifyBlockRejectsBrokenLink(t *testing.T) {
	s, in := fixtures(t)
	c := chain.NewChain(s.Public(), 0)
	chk := &plan.ConflictChecker{Inter: in}
	plans := scheduledPlans(t, 6)
	b0, _ := chain.Package(s, nil, time.Second, plans[:2])
	if err := VerifyBlock(c, chk, b0, nil); err != nil {
		t.Fatal(err)
	}
	// A block whose PrevHash points elsewhere (signed, so the attacker
	// is the IM itself rewriting history).
	bogus := &chain.Block{Seq: 1, PrevHash: chain.HashLeaf([]byte("bogus")), Timestamp: 2 * time.Second, Plans: plans[2:4]}
	root, _ := chain.MerkleRoot(bogus.PlanLeaves())
	bogus.Root = root
	if err := s.Sign(bogus); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBlock(c, chk, bogus, nil); !errors.Is(err, chain.ErrBrokenLink) {
		t.Fatalf("broken link: err = %v", err)
	}
}

func TestCheckConductDetectsDeviations(t *testing.T) {
	_, in := fixtures(t)
	r := in.Routes[0]
	p := scheduledPlans(t, 1)[0]
	tol := DefaultTolerance()
	at := p.Start() + 10*time.Second

	// On plan: no violation.
	onPlan := ExpectedStatus(p, r, at)
	if _, _, violated := CheckConduct(p, r, onPlan, tol); violated {
		t.Error("on-plan status flagged")
	}
	// Small noise within tolerance.
	noisy := onPlan
	noisy.Pos = noisy.Pos.Add(geom.V(1, 1))
	if _, _, violated := CheckConduct(p, r, noisy, tol); violated {
		t.Error("in-tolerance noise flagged")
	}
	// Position deviation beyond tolerance.
	off := onPlan
	off.Pos = off.Pos.Add(geom.V(0, 8))
	if pe, _, violated := CheckConduct(p, r, off, tol); !violated || pe < 7 {
		t.Errorf("position deviation missed: posErr=%v violated=%v", pe, violated)
	}
	// Speed deviation beyond tolerance.
	fast := onPlan
	fast.Speed += 8
	if _, se, violated := CheckConduct(p, r, fast, tol); !violated || se < 7 {
		t.Errorf("speed deviation missed: spdErr=%v violated=%v", se, violated)
	}
}

func TestExpectedStatusGeometry(t *testing.T) {
	_, in := fixtures(t)
	r := in.Routes[0]
	p := scheduledPlans(t, 1)[0]
	st := ExpectedStatus(p, r, p.Start())
	// At plan start the vehicle is at the route spawn point.
	if st.Pos.Dist(r.Full.Start()) > 1 {
		t.Errorf("start status at %v, route starts at %v", st.Pos, r.Full.Start())
	}
	end := ExpectedStatus(p, r, p.End()+time.Minute)
	if end.Pos.Dist(r.Full.End()) > 1 {
		t.Errorf("end status at %v, route ends at %v", end.Pos, r.Full.End())
	}
}

func TestDeviationSymmetricSpeed(t *testing.T) {
	a := plan.Status{Pos: geom.V(0, 0), Speed: 10}
	b := plan.Status{Pos: geom.V(3, 4), Speed: 4}
	pe, se := Deviation(a, b)
	if pe != 5 || se != 6 {
		t.Errorf("Deviation = %v, %v; want 5, 6", pe, se)
	}
	_, se2 := Deviation(b, a)
	if se2 != 6 {
		t.Errorf("speed error not symmetric: %v", se2)
	}
}

func TestToleranceViolated(t *testing.T) {
	tol := Tolerance{Pos: 4, Speed: 4}
	if tol.Violated(3.9, 3.9) {
		t.Error("within tolerance flagged")
	}
	if !tol.Violated(4.1, 0) {
		t.Error("position violation missed")
	}
	if !tol.Violated(0, 4.1) {
		t.Error("speed violation missed")
	}
}

var _ = intersection.KindCross4 // keep import when build tags change
