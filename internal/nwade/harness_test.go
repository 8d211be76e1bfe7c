package nwade

import (
	"slices"
	"sync"
	"testing"
	"time"

	"nwade/internal/chain"
	"nwade/internal/geom"
	"nwade/internal/intersection"
	"nwade/internal/plan"
	"nwade/internal/sched"
	"nwade/internal/vnet"
)

// Shared fixtures: RSA keygen and intersection construction dominate test
// time, so build them once.
var (
	fixOnce   sync.Once
	fixSigner *chain.Signer
	fixInter  *intersection.Intersection
)

func fixtures(t testing.TB) (*chain.Signer, *intersection.Intersection) {
	t.Helper()
	fixOnce.Do(func() {
		s, err := chain.NewSigner(chain.DefaultKeyBits)
		if err != nil {
			t.Fatalf("NewSigner: %v", err)
		}
		in, err := intersection.Cross4(intersection.Config{}, 2)
		if err != nil {
			t.Fatalf("Cross4: %v", err)
		}
		fixSigner, fixInter = s, in
	})
	return fixSigner, fixInter
}

// bus is a miniature synchronous network for protocol tests: it routes
// Out messages between one IMCore and a set of VehicleCores with a fixed
// latency, collecting events. Cars receive and tick in ascending ID
// order, so a run is reproducible.
type bus struct {
	t       *testing.T
	im      *IMCore
	cars    map[plan.VehicleID]*VehicleCore
	ids     []plan.VehicleID // the keys of cars, ascending
	lat     time.Duration
	pending []timed
	events  []Event
}

type timed struct {
	at   time.Duration
	from vnet.NodeID
	out  Out
}

func newBus(t *testing.T, im *IMCore, cars ...*VehicleCore) *bus {
	b := &bus{t: t, im: im, cars: map[plan.VehicleID]*VehicleCore{}, lat: 30 * time.Millisecond}
	for _, c := range cars {
		b.cars[c.id] = c
		b.ids = append(b.ids, c.id)
	}
	slices.Sort(b.ids)
	return b
}

func (b *bus) sink() EventSink {
	return func(e Event) { b.events = append(b.events, e) }
}

// send queues outbound messages from a node.
func (b *bus) send(now time.Duration, from vnet.NodeID, outs []Out) {
	for _, o := range outs {
		b.pending = append(b.pending, timed{at: now + b.lat, from: from, out: o})
	}
}

// deliver dispatches all messages due at now, including responses
// generated while delivering (they only fire if their latency has also
// elapsed, which within one call means zero-latency loops are bounded).
func (b *bus) deliver(now time.Duration) {
	for round := 0; round < 8; round++ {
		var due, rest []timed
		for _, tm := range b.pending {
			if tm.at <= now {
				due = append(due, tm)
			} else {
				rest = append(rest, tm)
			}
		}
		b.pending = rest
		if len(due) == 0 {
			return
		}
		b.dispatch(now, due)
	}
}

// dispatch routes one batch of due messages.
func (b *bus) dispatch(now time.Duration, due []timed) {
	for _, tm := range due {
		msg := vnet.Message{From: tm.from, To: tm.out.To, Kind: tm.out.Kind, Payload: tm.out.Payload, Sent: tm.at - b.lat, Deliver: tm.at}
		if tm.out.To == vnet.Broadcast {
			if tm.from != vnet.IMNode {
				b.send(now, vnet.IMNode, b.im.HandleMessage(now, msg))
			}
			for _, id := range b.ids {
				if vnet.VehicleNode(uint64(id)) == tm.from {
					continue
				}
				b.send(now, vnet.VehicleNode(uint64(id)), b.cars[id].HandleMessage(now, msg))
			}
			continue
		}
		if tm.out.To == vnet.IMNode {
			b.send(now, vnet.IMNode, b.im.HandleMessage(now, msg))
			continue
		}
		for _, id := range b.ids {
			if vnet.VehicleNode(uint64(id)) == tm.out.To {
				b.send(now, vnet.VehicleNode(uint64(id)), b.cars[id].HandleMessage(now, msg))
			}
		}
	}
}

// countEvents returns how many recorded events have the given type.
func (b *bus) countEvents(tp EventType) int {
	var n int
	for _, e := range b.events {
		if e.Type == tp {
			n++
		}
	}
	return n
}

func (b *bus) firstEvent(tp EventType) (Event, bool) {
	for _, e := range b.events {
		if e.Type == tp {
			return e, true
		}
	}
	return Event{}, false
}

// mkIM builds an IMCore over the shared fixtures.
func mkIM(t *testing.T, sink EventSink, mal *IMMalice) *IMCore {
	s, in := fixtures(t)
	return NewIMCore(DefaultIMConfig(), in, s, &sched.Reservation{}, sink, mal)
}

// mkCar builds a VehicleCore on a given route.
func mkCar(t *testing.T, id plan.VehicleID, route *intersection.Route, sink EventSink, mal *VehicleMalice, arrive time.Duration) *VehicleCore {
	s, in := fixtures(t)
	return NewVehicleCore(id, plan.Characteristics{Brand: "Acme", Model: "T", Color: "red", Length: 4.5, Width: 1.9},
		route, in, chain.NewVerdicts(s.Public()), nil, DefaultVehicleConfig(), sink, mal, arrive, 15)
}

// statusOn computes the ground-truth status of a vehicle exactly following
// plan p on route r at time t, optionally offset.
func statusOn(p *plan.TravelPlan, r *intersection.Route, t time.Duration, posOff geom.Vec2, speedOff float64) plan.Status {
	st := ExpectedStatus(p, r, t)
	st.Pos = st.Pos.Add(posOff)
	st.Speed += speedOff
	st.At = t
	return st
}
