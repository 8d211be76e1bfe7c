package sim

import (
	"sync"
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/nwade"
	"nwade/internal/plan"
)

// Shared key: RSA generation dominates otherwise.
var (
	keyOnce sync.Once
	key     *chain.Signer
)

func testSigner(t testing.TB) *chain.Signer {
	t.Helper()
	keyOnce.Do(func() {
		s, err := chain.NewSigner(1024) // fast key for simulation tests
		if err != nil {
			t.Fatalf("NewSigner: %v", err)
		}
		key = s
	})
	return key
}

func testEngine(t testing.TB, cfg Scenario, opts ...Option) *Engine {
	t.Helper()
	if cfg.Inter == nil {
		in, err := intersection.Cross4(intersection.Config{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Inter = in
	}
	cfg.NWADE = true
	e, err := New(cfg, append(opts, WithSigner(testSigner(t)))...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBenignRunNoFalsePositives(t *testing.T) {
	e := testEngine(t, Scenario{
		Duration:   90 * time.Second,
		RatePerMin: 60,
		Seed:       1,
		Attack:     attack.Benign(),
	})
	res := e.Run()
	if res.Spawned < 40 {
		t.Fatalf("spawned = %d, expected a stream of vehicles", res.Spawned)
	}
	if res.Exited < res.Spawned/3 {
		t.Errorf("exited = %d of %d; traffic is not flowing", res.Exited, res.Spawned)
	}
	if res.Collisions != 0 {
		t.Errorf("collisions = %d in a benign run", res.Collisions)
	}
	col := res.Collector
	if n := col.Count(nwade.EvReportSent); n != 0 {
		t.Errorf("incident reports = %d in a benign run", n)
	}
	if n := col.Count(nwade.EvSelfEvacuation); n != 0 {
		t.Errorf("self-evacuations = %d in a benign run", n)
	}
	if n := col.Count(nwade.EvBlockRejected); n != 0 {
		t.Errorf("block rejections = %d in a benign run", n)
	}
	if n := col.Count(nwade.EvBlockAccepted); n == 0 {
		t.Error("no blocks were verified")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int, int, int) {
		e := testEngine(t, Scenario{Duration: 45 * time.Second, RatePerMin: 60, Seed: 7,
			Attack: attack.Scenario{Name: "V2", MaliciousVehicles: 2, PlanViolations: 1, FalseReports: 1, AttackAt: 20 * time.Second}})
		res := e.Run()
		return res.Spawned, res.Exited, res.Collector.Count(nwade.EvReportSent)
	}
	s1, x1, r1 := run()
	s2, x2, r2 := run()
	if s1 != s2 || x1 != x2 || r1 != r2 {
		t.Errorf("runs differ: (%d,%d,%d) vs (%d,%d,%d)", s1, x1, r1, s2, x2, r2)
	}
}

func TestSingleViolatorDetectedAndEvacuated(t *testing.T) {
	sc, _ := attack.ByName("V1", 25*time.Second)
	e := testEngine(t, Scenario{
		Duration:   70 * time.Second,
		RatePerMin: 80,
		Seed:       3,
		Attack:     sc,
	})
	res := e.Run()
	col := res.Collector
	roles := e.Roles()
	if roles.Violator == 0 {
		t.Fatal("no violator assigned")
	}
	conf, ok := col.FirstWhere(func(ev nwade.Event) bool {
		return ev.Type == nwade.EvIncidentConfirmed && ev.Subject == roles.Violator
	})
	if !ok {
		t.Fatal("violation never confirmed")
	}
	if _, ok := col.First(nwade.EvEvacuationStarted); !ok {
		t.Fatal("no evacuation")
	}
	onset := e.AttackOnsets()[roles.Violator]
	if conf.At < onset {
		t.Errorf("confirmation at %v before onset %v", conf.At, onset)
	}
	// The paper's detection-time bound is sub-second from the report;
	// allow the sensing threshold crossing a little longer from onset.
	if d := conf.At - onset; d > 5*time.Second {
		t.Errorf("detection took %v from onset", d)
	}
}

func TestMaliciousIMConflictingPlansDetectedInSim(t *testing.T) {
	sc, _ := attack.ByName("IM", 0)
	e := testEngine(t, Scenario{
		Duration:   40 * time.Second,
		RatePerMin: 80,
		Seed:       5,
		Attack:     sc,
	})
	res := e.Run()
	col := res.Collector
	if col.Count(nwade.EvBlockRejected) == 0 {
		t.Fatal("sabotaged blocks never rejected")
	}
	if col.Count(nwade.EvSelfEvacuation) == 0 {
		t.Fatal("nobody self-evacuated from the compromised IM")
	}
	if col.Count(nwade.EvGlobalSent) == 0 {
		t.Error("no global warnings")
	}
}

func TestNoNWADEBaselineStillFlows(t *testing.T) {
	in, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Scenario{
		Inter:      in,
		Duration:   90 * time.Second,
		RatePerMin: 60,
		Seed:       1,
		NWADE:      false,
	}
	e, err := New(cfg, WithSigner(testSigner(t)))
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Exited < 10 {
		t.Fatalf("baseline exited = %d; traffic stuck", res.Exited)
	}
	// No NWADE chatter: only requests and block dissemination.
	for kind := range res.Net.Packets {
		switch kind {
		case nwade.KindRequest, nwade.KindBlock:
		default:
			t.Errorf("unexpected %q packets in baseline", kind)
		}
	}
}

func TestThroughputParityWithAndWithoutNWADE(t *testing.T) {
	in, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(enabled bool) float64 {
		cfg := Scenario{Inter: in, Duration: 2 * time.Minute, RatePerMin: 60, Seed: 11, NWADE: enabled}
		e, err := New(cfg, WithSigner(testSigner(t)))
		if err != nil {
			t.Fatal(err)
		}
		return e.Run().Throughput()
	}
	with := run(true)
	without := run(false)
	if with == 0 || without == 0 {
		t.Fatalf("throughputs: with=%v without=%v", with, without)
	}
	// Fig. 8: throughput stays almost the same with NWADE.
	ratio := with / without
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("throughput ratio with/without = %.2f, want ~1", ratio)
	}
}

func TestAttackRolesClustered(t *testing.T) {
	sc, _ := attack.ByName("V5", 25*time.Second)
	e := testEngine(t, Scenario{Duration: 30 * time.Second, RatePerMin: 100, Seed: 9, Attack: sc})
	e.Run()
	roles := e.Roles()
	if len(roles.All) == 0 {
		t.Fatal("no roles assigned")
	}
	if len(roles.All) > 5 {
		t.Errorf("coalition size = %d", len(roles.All))
	}
	if roles.Violator == 0 {
		t.Error("no violator")
	}
	if len(roles.FalseReporters) > 4 {
		t.Errorf("false reporters = %d", len(roles.FalseReporters))
	}
	for _, fr := range roles.FalseReporters {
		if fr == roles.Violator {
			t.Error("violator double-assigned as false reporter")
		}
	}
}

func TestViolationKinematics(t *testing.T) {
	// A speeding violator must physically diverge from its plan.
	sc, _ := attack.ByName("V1", 20*time.Second)
	e := testEngine(t, Scenario{Duration: 35 * time.Second, RatePerMin: 60, Seed: 13, Attack: sc})
	e.Run()
	roles := e.Roles()
	if roles.Violator == 0 {
		t.Skip("no violator assigned in window")
	}
	core, ok := e.CoreOf(roles.Violator)
	if !ok {
		t.Fatal("violator body missing")
	}
	s, v, _, ok := e.BodyState(roles.Violator)
	if !ok {
		t.Fatal("no body state")
	}
	// A speeding violator either runs ahead of its plan, exits early, or
	// crashes into crossing traffic and stops (v == 0) — all are valid
	// physical outcomes of the attack.
	if core.Plan() != nil && !core.SelfEvacuating() && v > 0 {
		ps, _ := core.Plan().StateAt(e.Now())
		exited := s >= core.Route().Length()-1
		if !exited && s-ps < 4 {
			t.Errorf("violator only %.1f m ahead of plan", s-ps)
		}
	}
}

func TestVehicleGoneCleansUp(t *testing.T) {
	e := testEngine(t, Scenario{Duration: 2 * time.Minute, RatePerMin: 40, Seed: 17, Attack: attack.Benign()})
	res := e.Run()
	if res.Exited == 0 {
		t.Fatal("nothing exited")
	}
	// Exited vehicles must not linger in the IM ledger beyond pruning.
	if n := e.IM().Ledger().Len(); n > e.ActiveVehicles()+10 {
		t.Errorf("ledger holds %d plans for %d active vehicles", n, e.ActiveVehicles())
	}
}

func TestScenarioResolutionErrors(t *testing.T) {
	// An empty scenario defaults to cross4 and must build.
	if _, err := New(Scenario{}, WithSigner(testSigner(t))); err != nil {
		t.Fatalf("empty scenario rejected: %v", err)
	}
	if _, err := New(Scenario{Intersection: "hexagon9"}, WithSigner(testSigner(t))); err == nil {
		t.Fatal("unknown intersection layout accepted")
	}
	if _, err := New(Scenario{Sched: "bogus"}, WithSigner(testSigner(t))); err == nil {
		t.Fatal("unknown scheduler name accepted")
	}
	if _, err := New(Scenario{Network: "grid:2x2"}, WithSigner(testSigner(t))); err == nil {
		t.Fatal("network scenario accepted by single-intersection constructor")
	}
}

func TestCollisionsWithoutNWADEUnderAttack(t *testing.T) {
	// Sanity of the threat model: with NWADE disabled, a violator can
	// actually cause trouble (collisions may or may not materialise for
	// a given seed, but the violator must at least go physically off
	// plan with nobody reporting it).
	in, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := attack.ByName("V1", 20*time.Second)
	cfg := Scenario{Inter: in, Duration: 60 * time.Second, RatePerMin: 80, Seed: 23, Attack: sc, NWADE: false}
	e, err := New(cfg, WithSigner(testSigner(t)))
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if n := res.Collector.Count(nwade.EvReportSent); n != 0 {
		t.Errorf("baseline produced %d reports", n)
	}
	_ = res
}

var _ = plan.VehicleID(0)
