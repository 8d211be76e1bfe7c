package plan

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nwade/internal/geom"
)

func mkPlan(id VehicleID, route int, t0 time.Duration, pts ...Waypoint) *TravelPlan {
	return &TravelPlan{
		Vehicle: id,
		Char:    Characteristics{Brand: "Acme", Model: "X", Color: "blue", Length: 4.5, Width: 1.9},
		Status:  Status{Pos: geom.V(1, 2), Speed: 10, Heading: 0.5, At: t0},
		RouteID: route,
		Issued:  t0,
		Waypoints: func() []Waypoint {
			if len(pts) > 0 {
				return pts
			}
			return []Waypoint{
				{T: t0, S: 0, V: 0},
				{T: t0 + 10*time.Second, S: 100, V: 10},
				{T: t0 + 20*time.Second, S: 250, V: 15},
			}
		}(),
	}
}

func TestValidate(t *testing.T) {
	p := mkPlan(1, 0, 0)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	empty := &TravelPlan{}
	if err := empty.Validate(); !errors.Is(err, ErrEmptyPlan) {
		t.Errorf("empty plan: %v", err)
	}
	bad := mkPlan(1, 0, 0,
		Waypoint{T: 10 * time.Second, S: 0},
		Waypoint{T: 5 * time.Second, S: 10},
	)
	if err := bad.Validate(); !errors.Is(err, ErrNonMonotonic) {
		t.Errorf("time-decreasing plan: %v", err)
	}
	bad2 := mkPlan(1, 0, 0,
		Waypoint{T: 0, S: 10},
		Waypoint{T: time.Second, S: 5},
	)
	if err := bad2.Validate(); !errors.Is(err, ErrNonMonotonic) {
		t.Errorf("arc-decreasing plan: %v", err)
	}
}

func TestStateAtInterpolation(t *testing.T) {
	p := mkPlan(1, 0, 0)
	s, v := p.StateAt(5 * time.Second)
	if !(s > 0 && s < 100) {
		t.Errorf("s at 5s = %v, want in (0,100)", s)
	}
	if !(v > 0 && v < 10+1e-9) {
		t.Errorf("v at 5s = %v", v)
	}
	// Clamping before start and after end.
	if s, v := p.StateAt(-time.Second); s != 0 || v != 0 {
		t.Errorf("before start: s=%v v=%v", s, v)
	}
	if s, v := p.StateAt(time.Hour); s != 250 || v != 0 {
		t.Errorf("after end: s=%v v=%v", s, v)
	}
	// Exactly at a waypoint.
	if s, _ := p.StateAt(10 * time.Second); math.Abs(s-100) > 1e-9 {
		t.Errorf("at waypoint: s=%v, want 100", s)
	}
}

func TestStateAtEmpty(t *testing.T) {
	p := &TravelPlan{}
	if s, v := p.StateAt(time.Second); s != 0 || v != 0 {
		t.Errorf("empty plan StateAt = %v, %v", s, v)
	}
	if p.FinalS() != 0 {
		t.Error("empty plan FinalS != 0")
	}
	if !p.Done(0) {
		t.Error("empty plan must be Done")
	}
}

func TestTimeAt(t *testing.T) {
	p := mkPlan(1, 0, 0)
	tt, ok := p.TimeAt(100)
	if !ok || tt != 10*time.Second {
		t.Errorf("TimeAt(100) = %v, %v", tt, ok)
	}
	tt, ok = p.TimeAt(50)
	if !ok || tt != 5*time.Second {
		t.Errorf("TimeAt(50) = %v, %v", tt, ok)
	}
	if _, ok := p.TimeAt(251); ok {
		t.Error("TimeAt beyond final S should report !ok")
	}
	tt, ok = p.TimeAt(-5)
	if !ok || tt != 0 {
		t.Errorf("TimeAt(-5) = %v, %v, want plan start", tt, ok)
	}
}

// timeAtScan is the front-to-back scan TimeAt used before it searched
// binary, kept as the reference TimeAt must match bit for bit.
func timeAtScan(p *TravelPlan, s float64) (time.Duration, bool) {
	ws := p.Waypoints
	if len(ws) == 0 || s > ws[len(ws)-1].S+1e-9 {
		return 0, false
	}
	if s <= ws[0].S {
		return ws[0].T, true
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].S >= s {
			a, b := ws[i-1], ws[i]
			if b.S == a.S {
				return a.T, true
			}
			f := (s - a.S) / (b.S - a.S)
			return a.T + time.Duration(f*float64(b.T-a.T)), true
		}
	}
	return ws[len(ws)-1].T, true
}

// TestTimeAtMatchesScan checks the binary search against the linear scan
// on random plans monotone in S, with flat runs (a vehicle stopped at
// the line), queries below the first S, on waypoints, inside flat runs,
// and within the 1e-9 slack past the last S.
func TestTimeAtMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		ws := make([]Waypoint, n)
		tm, s := time.Duration(rng.Intn(1000))*time.Millisecond, rng.Float64()*50
		for i := range ws {
			if i > 0 {
				tm += time.Duration(1+rng.Intn(500)) * time.Millisecond
				if rng.Intn(3) > 0 { // else a flat run: S repeats
					s += rng.Float64() * 20
				}
			}
			ws[i] = Waypoint{T: tm, S: s, V: rng.Float64() * 15}
		}
		p := &TravelPlan{Waypoints: ws}
		queries := []float64{ws[0].S - 1, ws[0].S, ws[n-1].S, ws[n-1].S + 5e-10, ws[n-1].S + 2e-9}
		for i := range ws {
			queries = append(queries, ws[i].S, ws[i].S+1e-12, ws[i].S+rng.Float64()*25)
		}
		for _, q := range queries {
			gotT, gotOK := p.TimeAt(q)
			wantT, wantOK := timeAtScan(p, q)
			if gotT != wantT || gotOK != wantOK {
				t.Fatalf("trial %d: TimeAt(%v) = %v, %v; scan gives %v, %v (waypoints %v)",
					trial, q, gotT, gotOK, wantT, wantOK, ws)
			}
		}
	}
}

func TestStateAtTimeAtConsistency(t *testing.T) {
	p := mkPlan(1, 0, 0)
	f := func(frac float64) bool {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			return true
		}
		frac = math.Abs(math.Mod(frac, 1))
		tq := time.Duration(float64(p.End()) * frac)
		s, _ := p.StateAt(tq)
		tr, ok := p.TimeAt(s)
		if !ok {
			return false
		}
		// TimeAt returns the FIRST time reaching s; StateAt(tq) may sit
		// on a plateau, so tr <= tq always, and the arc at tr matches.
		s2, _ := p.StateAt(tr)
		return tr <= tq+time.Millisecond && math.Abs(s2-s) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := mkPlan(7, 3, time.Second)
	q := p.Clone()
	q.Waypoints[0].S = 999
	q.Vehicle = 8
	if p.Waypoints[0].S == 999 || p.Vehicle == 8 {
		t.Error("Clone shares state with original")
	}
}

func TestDoneAndBounds(t *testing.T) {
	p := mkPlan(1, 0, 2*time.Second)
	if p.Start() != 2*time.Second {
		t.Errorf("Start = %v", p.Start())
	}
	if p.End() != 22*time.Second {
		t.Errorf("End = %v", p.End())
	}
	if p.Done(10 * time.Second) {
		t.Error("Done too early")
	}
	if !p.Done(22 * time.Second) {
		t.Error("not Done at End")
	}
	if p.FinalS() != 250 {
		t.Errorf("FinalS = %v", p.FinalS())
	}
}

func TestVehicleIDString(t *testing.T) {
	if got := VehicleID(42).String(); got != "V42" {
		t.Errorf("String = %q", got)
	}
}
