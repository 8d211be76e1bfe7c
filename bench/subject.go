package main

import (
	"sync"
	"time"

	"nwade/internal/metrics"
	"nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/roadnet"
	"nwade/internal/sched"
	"nwade/internal/sim"
)

// subject is one runnable simulation — a single-intersection engine or a
// road network — seen through the calls the benchmark times.
type subject interface {
	Step()
	Now() time.Duration
	// Digest is the run's replay identity: metrics.Digest for one
	// intersection, the network digest for a road network.
	Digest() string
	// engines are the intersection engines inside (one, or one per
	// region), for the post-run replays.
	engines() []*sim.Engine
}

type single struct{ e *sim.Engine }

func (s single) Step()                  { s.e.Step() }
func (s single) Now() time.Duration     { return s.e.Now() }
func (s single) Digest() string         { return metrics.Digest(s.e.Result()) }
func (s single) engines() []*sim.Engine { return []*sim.Engine{s.e} }

type network struct{ n *roadnet.Network }

func (s network) Step()              { s.n.Step() }
func (s network) Now() time.Duration { return s.n.Now() }
func (s network) Digest() string     { return s.n.Digest() }
func (s network) engines() []*sim.Engine {
	out := make([]*sim.Engine, s.n.Regions())
	for i := range out {
		out[i] = s.n.Engine(i)
	}
	return out
}

// drive steps s to until and returns the wall time of the whole loop and
// of every Step call.
func drive(s subject, until time.Duration) (time.Duration, []time.Duration) {
	var steps []time.Duration
	start := time.Now()
	for s.Now() < until {
		t := time.Now()
		s.Step()
		steps = append(steps, time.Since(t))
	}
	return time.Since(start), steps
}

// timedSched wraps a scheduler and records the wall time of every
// Schedule call. It forwards Name and SetObs, so an engine built with it
// behaves — and digests — exactly like one built with the inner
// scheduler.
type timedSched struct {
	inner sched.Scheduler
	mu    sync.Mutex
	walls []time.Duration
}

func (t *timedSched) Name() string { return t.inner.Name() }

func (t *timedSched) SetObs(o *obs.Sink) {
	if oa, ok := t.inner.(sched.ObsAware); ok {
		oa.SetObs(o)
	}
}

func (t *timedSched) Schedule(reqs []sched.Request, now time.Duration, l *sched.Ledger) ([]*plan.TravelPlan, error) {
	start := time.Now()
	ps, err := t.inner.Schedule(reqs, now, l)
	d := time.Since(start)
	t.mu.Lock()
	t.walls = append(t.walls, d)
	t.mu.Unlock()
	return ps, err
}

func (t *timedSched) calls() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.walls...)
}
