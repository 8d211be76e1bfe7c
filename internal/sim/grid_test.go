package sim

import (
	"math"
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/geom"
	"nwade/internal/intersection"
	"nwade/internal/nwade"
	"nwade/internal/plan"
)

// gridEngine builds a busy mixed-traffic engine for equivalence tests:
// legacy vehicles exercise the gap-acceptance queries, the V1 attack
// exercises wrecks, pull-overs and towing.
func gridEngine(t *testing.T, legacy float64) *Engine {
	t.Helper()
	inter, err := Cross4ForTest()
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := attack.ByName("V1", 15*time.Second)
	e, err := New(Scenario{
		Inter:          inter,
		Duration:       time.Hour, // stepped manually
		RatePerMin:     120,
		Seed:           11,
		Attack:         sc,
		NWADE:          true,
		LegacyFraction: legacy,
		KeyBits:        1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Cross4ForTest builds the standard 4-way test intersection.
func Cross4ForTest() (*intersection.Intersection, error) {
	return intersection.Cross4(intersection.Config{}, 2)
}

// TestGridSenseMatchesScan asserts the spatial-grid neighbor query returns
// exactly the reference all-pairs scan — same neighbors, same order —
// for every vehicle on every tick of a dense mixed run.
func TestGridSenseMatchesScan(t *testing.T) {
	e := gridEngine(t, 0.3)
	for e.Now() < 30*time.Second {
		e.Step()
		for _, b := range e.all {
			id := b.id
			if !b.present(e.now) || b.legacy {
				continue
			}
			got := e.sense(b)
			want := e.senseScan(b)
			if len(got) != len(want) {
				t.Fatalf("t=%v v%d: grid %d neighbors, scan %d", e.Now(), id, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Status != want[i].Status {
					t.Fatalf("t=%v v%d neighbor %d: grid %+v, scan %+v", e.Now(), id, i, got[i], want[i])
				}
			}
		}
	}
	if e.col.Spawned < 40 {
		t.Fatalf("run too sparse to be meaningful: %d spawned", e.col.Spawned)
	}
}

// TestGridIMVisibilityMatchesScan asserts the IM perception snapshot from
// the grid equals the linear scan over all bodies.
func TestGridIMVisibilityMatchesScan(t *testing.T) {
	e := gridEngine(t, 0)
	r := e.cfg.IMConfig.PerceptionRadius
	for e.Now() < 40*time.Second {
		e.Step()
		var got []nwade.VehicleObs
		e.grid.forEachOrdered(geom.V(0, 0), r, 0, func(b *body) bool {
			if b.present(e.now) && b.pos().Len() <= r {
				got = append(got, nwade.VehicleObs{ID: b.id, Status: b.status(e.now)})
			}
			return true
		})
		var want []nwade.VehicleObs
		for _, b := range e.all {
			if !b.present(e.now) {
				continue
			}
			if b.pos().Len() <= r {
				want = append(want, nwade.VehicleObs{ID: b.id, Status: b.status(e.now)})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("t=%v: grid sees %d vehicles, scan %d", e.Now(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("t=%v obs %d: grid %+v, scan %+v", e.Now(), i, got[i], want[i])
			}
		}
	}
}

// TestGridBoxClearMatchesScan asserts grid-backed gap acceptance equals
// the reference scan, under the mid-physics staleness the moveSlack
// margin must absorb. It drives physics half-steps by checking after
// every full tick, which bounds but does not eliminate staleness — the
// grid here is the post-physics rebuild, exactly what boxClearFor reads
// at the start of the next physics phase.
func TestGridBoxClearMatchesScan(t *testing.T) {
	e := gridEngine(t, 0.5)
	for e.Now() < 30*time.Second {
		e.Step()
		for _, b := range e.all {
			id := b.id
			if !b.present(e.now) {
				continue
			}
			got := e.boxClearFor(b)
			want := true
			for _, o := range e.all {
				if o.id == b.id || !o.present(e.now) {
					continue
				}
				d := o.pos().Len()
				if d < 45 || (d < 110 && o.v > 8) {
					want = false
					break
				}
			}
			if got != want {
				t.Fatalf("t=%v v%d: grid boxClear=%v, scan=%v", e.Now(), id, got, want)
			}
		}
	}
}

// TestGridLaneQueriesMatchScan asserts the lane-indexed leaderGap and
// obstacleAhead agree with full scans over every body.
func TestGridLaneQueriesMatchScan(t *testing.T) {
	e := gridEngine(t, 0.3)
	for e.Now() < 30*time.Second {
		e.Step()
		for _, b := range e.all {
			id := b.id
			if !b.present(e.now) {
				continue
			}
			gotGap, gotOK := e.leaderGap(b)
			wantGap, wantOK := 60.0, false
			if b.s < b.route.CrossStart-2 {
				for _, o := range e.all {
					if o.id == b.id || !o.present(e.now) {
						continue
					}
					if o.route.From != b.route.From || o.s >= o.route.CrossStart {
						continue
					}
					if gap := o.s - b.s; gap > 0 && gap < wantGap {
						wantGap, wantOK = gap, true
					}
				}
			} else {
				wantGap = 0
			}
			if gotOK != wantOK || (wantOK && gotGap != wantGap) {
				t.Fatalf("t=%v v%d: leaderGap grid=(%v,%v) scan=(%v,%v)", e.Now(), id, gotGap, gotOK, wantGap, wantOK)
			}
		}
	}
}

// TestGridQueryBounds exercises cell-boundary cases directly: points just
// inside and outside the radius across cell borders.
func TestGridQueryBounds(t *testing.T) {
	g := newSpatialGrid(100)
	mk := func(idx int, x, y float64) *body {
		b := &body{id: plan.VehicleID(idx + 1), orderIdx: idx}
		b.posCache = geom.V(x, y)
		return b
	}
	bodies := []*body{
		mk(0, 0, 0),
		mk(1, 99.5, 0),    // same-cell edge, inside
		mk(2, 100.5, 0),   // adjacent cell, just outside radius
		mk(3, 199.5, 0),   // adjacent cell, far outside
		mk(4, -99.5, -1),  // negative-coordinate cell, inside
		mk(5, 70.7, 70.7), // diagonal, ~99.98 away, inside
	}
	for _, b := range bodies {
		k := g.keyAt(b.pos())
		g.cells[k] = append(g.cells[k], b)
	}
	var got []int
	g.forEachOrdered(geom.V(0, 0), 100, 0, func(b *body) bool {
		if b.pos().Len() <= 100 {
			got = append(got, b.orderIdx)
		}
		return true
	})
	want := []int{0, 1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("in-radius set = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in-radius set = %v, want %v", got, want)
		}
	}
}

// TestSenseRadiusBoundary places neighbors exactly at the sensing radius
// and one ulp either side of it, on the axes and around the circle: the
// grid query must keep exactly the neighbors the reference scan keeps,
// and on the axes, where the distance is exact, those within r.
func TestSenseRadiusBoundary(t *testing.T) {
	e := gridEngine(t, 0)
	r := e.cfg.VehicleConfig.SensingRadius
	route := e.cfg.Inter.Routes[0]
	var all []*body
	place := func(p geom.Vec2) *body {
		b := &body{id: plan.VehicleID(len(all) + 1), route: route, orderIdx: len(all), posCache: p}
		all = append(all, b)
		return b
	}
	observer := place(geom.V(0, 0))
	want := map[plan.VehicleID]bool{}
	for _, d := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
		for _, p := range []geom.Vec2{geom.V(d, 0), geom.V(-d, 0), geom.V(0, d), geom.V(0, -d)} {
			want[place(p).id] = d <= r
		}
	}
	for deg := 1.0; deg < 360; deg += 7 {
		s, c := math.Sincos(deg * math.Pi / 180)
		for _, d := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
			place(geom.V(d*c, d*s))
		}
	}
	e.all = all
	e.grid.rebuild(e.all, e.now)
	e.senseAll(e.now)
	got, scan := e.sense(observer), e.senseScan(observer)
	if len(got) != len(scan) {
		t.Fatalf("grid %d neighbors, scan %d", len(got), len(scan))
	}
	kept := map[plan.VehicleID]bool{}
	for i := range got {
		if got[i].ID != scan[i].ID || got[i].Status != scan[i].Status {
			t.Fatalf("neighbor %d: grid %+v, scan %+v", i, got[i], scan[i])
		}
		kept[got[i].ID] = true
	}
	for id, in := range want {
		if kept[id] != in {
			t.Errorf("axis neighbor %v at %v: kept %v, want %v", id, all[id-1].pos(), kept[id], in)
		}
	}
}
