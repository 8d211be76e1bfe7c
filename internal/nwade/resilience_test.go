package nwade

import (
	"testing"
	"time"

	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/plan"
	"nwade/internal/sched"
	"nwade/internal/vnet"
)

// mkResCar builds a VehicleCore with the resilience layer on.
func mkResCar(t *testing.T, id plan.VehicleID, route *intersection.Route, sink EventSink, res ResilienceConfig) *VehicleCore {
	t.Helper()
	s, in := fixtures(t)
	cfg := DefaultVehicleConfig()
	cfg.Resilience = res
	return NewVehicleCore(id, plan.Characteristics{Brand: "Acme", Model: "T", Color: "red", Length: 4.5, Width: 1.9},
		route, in, chain.NewVerdicts(s.Public()), nil, cfg, sink, nil, 0, 15)
}

// chainOf packages a linked chain of n blocks over the given plans.
func chainOf(t *testing.T, n int, plans []*plan.TravelPlan) []*chain.Block {
	t.Helper()
	s, _ := fixtures(t)
	var blocks []*chain.Block
	var prev *chain.Block
	for i := 0; i < n; i++ {
		lo, hi := i*len(plans)/n, (i+1)*len(plans)/n
		b, err := chain.Package(s, prev, time.Duration(i+1)*time.Second, plans[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = b
	}
	return blocks
}

func countType(events []Event, tp EventType) int {
	var n int
	for _, e := range events {
		if e.Type == tp {
			n++
		}
	}
	return n
}

// TestResilienceDuplicateBlockIgnored: a re-delivered block (IM head
// re-broadcast, fault-layer duplicate) must be dropped silently, where
// the baseline protocol rejects it and distrusts the IM.
func TestResilienceDuplicateBlockIgnored(t *testing.T) {
	_, in := fixtures(t)
	blocks := chainOf(t, 2, scheduledPlans(t, 4))
	var events []Event
	sink := func(e Event) { events = append(events, e) }
	car := mkResCar(t, 9, in.Routes[0], sink, DefaultResilienceConfig())
	for _, b := range blocks {
		car.HandleMessage(b.Timestamp, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: b}})
	}
	// The head arrives again.
	car.HandleMessage(3*time.Second, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: blocks[1]}})
	if got := countType(events, EvBlockRejected); got != 0 {
		t.Errorf("duplicate head caused %d rejections", got)
	}
	if car.Chain().Len() != 2 {
		t.Errorf("chain len = %d, want 2", car.Chain().Len())
	}

	// Baseline contrast: without resilience the duplicate is rejected.
	events = nil
	base := mkCar(t, 10, in.Routes[0], sink, nil, 0)
	for _, b := range blocks {
		base.HandleMessage(b.Timestamp, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: b}})
	}
	base.HandleMessage(3*time.Second, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: blocks[1]}})
	if got := countType(events, EvBlockRejected); got == 0 {
		t.Error("baseline accepted a duplicate head silently — gating test is vacuous")
	}
}

// TestResilienceGapHoldbackAndFill: an ahead-of-sequence block is held,
// the gap is re-requested, and filling the gap drains the held block in
// order.
func TestResilienceGapHoldbackAndFill(t *testing.T) {
	_, in := fixtures(t)
	blocks := chainOf(t, 3, scheduledPlans(t, 6))
	var events []Event
	sink := func(e Event) { events = append(events, e) }
	car := mkResCar(t, 9, in.Routes[0], sink, DefaultResilienceConfig())
	b0, b1, b2 := blocks[0], blocks[1], blocks[2]
	car.HandleMessage(b0.Timestamp, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: b0}})
	// b1 is lost; b2 arrives.
	outs := car.HandleMessage(b2.Timestamp, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: b2}})
	var requested []uint64
	for _, o := range outs {
		if o.Kind == KindBlockReq {
			if o.To != vnet.Broadcast {
				t.Errorf("gap re-request sent to %v, want broadcast", o.To)
			}
			requested = append(requested, o.Payload.(BlockReqMsg).Seq)
		}
	}
	if len(requested) != 1 || requested[0] != b1.Seq {
		t.Fatalf("gap requests = %v, want [%d]", requested, b1.Seq)
	}
	if countType(events, EvBlockDeferred) != 1 {
		t.Errorf("deferred events = %d", countType(events, EvBlockDeferred))
	}
	if countType(events, EvBlockRejected) != 0 {
		t.Error("gap caused a rejection under resilience")
	}
	// The gap fills (a peer served it); the held head drains.
	car.HandleMessage(b2.Timestamp+100*time.Millisecond,
		vnet.Message{From: vnet.VehicleNode(3), Kind: KindBlockResp, Payload: BlockRespMsg{Block: b1}})
	head := car.Chain().Head()
	if head == nil || head.Seq != b2.Seq {
		t.Fatalf("head = %+v, want seq %d", head, b2.Seq)
	}
	// The schedule is closed: no retransmission fires later.
	for _, o := range car.Tick(10*time.Second, plan.Status{}, nil) {
		if o.Kind == KindBlockReq {
			t.Error("re-request after the gap was filled")
		}
	}
}

// TestResilienceBackoffAndResync: an unfillable gap is re-requested with
// growing intervals, then abandoned via a chain resync from the held
// block.
func TestResilienceBackoffAndResync(t *testing.T) {
	_, in := fixtures(t)
	blocks := chainOf(t, 3, scheduledPlans(t, 6))
	var events []Event
	sink := func(e Event) { events = append(events, e) }
	res := ResilienceConfig{Enabled: true, RetryTimeout: 100 * time.Millisecond,
		RetryBackoff: 2, RetryMax: time.Second, MaxAttempts: 2}
	car := mkResCar(t, 9, in.Routes[0], sink, res)
	b0, b2 := blocks[0], blocks[2]
	car.HandleMessage(b0.Timestamp, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: b0}})
	start := b2.Timestamp
	car.HandleMessage(start, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: b2}})

	// attempt 1 due at +100ms, attempt 2 at +300ms, deadline afterwards.
	var retries []time.Duration
	for _, dt := range []time.Duration{50 * time.Millisecond, 150 * time.Millisecond,
		400 * time.Millisecond} {
		for _, o := range car.Tick(start+dt, plan.Status{}, nil) {
			if o.Kind == KindBlockReq {
				retries = append(retries, dt)
			}
		}
	}
	if len(retries) != res.MaxAttempts {
		t.Fatalf("retransmissions at %v, want %d attempts", retries, res.MaxAttempts)
	}
	if retries[0] != 150*time.Millisecond || retries[1] != 400*time.Millisecond {
		t.Errorf("retry times = %v, want [150ms 400ms]", retries)
	}
	// The deadline tick abandons the gap and resyncs from the held block
	// (the mid-stream-join backfill it triggers may emit fresh requests).
	car.Tick(start+time.Second, plan.Status{}, nil)
	if countType(events, EvChainResync) != 1 {
		t.Fatalf("chain resyncs = %d, want 1", countType(events, EvChainResync))
	}
	head := car.Chain().Head()
	if head == nil || head.Seq != b2.Seq {
		t.Errorf("post-resync head = %+v, want seq %d", head, b2.Seq)
	}
}

// TestResilienceGlobalReportResent: a self-evacuating vehicle re-broadcasts
// its global report with backoff until the attempt budget runs out.
func TestResilienceGlobalReportResent(t *testing.T) {
	_, in := fixtures(t)
	var events []Event
	sink := func(e Event) { events = append(events, e) }
	res := ResilienceConfig{Enabled: true, RetryTimeout: 100 * time.Millisecond,
		RetryBackoff: 2, RetryMax: time.Second, MaxAttempts: 3}
	car := mkResCar(t, 1, in.Routes[0], sink, res)
	car.Tick(0, plan.Status{}, nil)
	blocks := chainOf(t, 1, scheduledPlans(t, 2))
	car.HandleMessage(time.Second, vnet.Message{From: vnet.IMNode, Kind: KindBlock, Payload: BlockMsg{Block: blocks[0]}})
	for i := 0; i < DefaultVehicleConfig().GlobalQuorum; i++ {
		gr := GlobalReport{Reporter: plan.VehicleID(10 + i), Reason: ReasonIMUnresponsive, At: time.Second}
		car.HandleMessage(2*time.Second, vnet.Message{From: vnet.VehicleNode(uint64(10 + i)), Kind: KindGlobal, Payload: gr})
	}
	if !car.SelfEvacuating() {
		t.Fatal("quorum did not trigger self-evacuation")
	}
	var resends int
	for now := 2 * time.Second; now < 12*time.Second; now += 100 * time.Millisecond {
		for _, o := range car.Tick(now, plan.Status{}, nil) {
			if o.Kind == KindGlobal {
				resends++
			}
		}
	}
	if resends != res.MaxAttempts {
		t.Errorf("global resends = %d, want %d", resends, res.MaxAttempts)
	}
}

// TestIMHeadRebroadcast: the IM periodically repeats its last broadcast;
// resilient vehicles absorb the duplicates without rejections.
func TestIMHeadRebroadcast(t *testing.T) {
	s, in := fixtures(t)
	var b *bus
	sink := func(e Event) { b.events = append(b.events, e) }
	imCfg := DefaultIMConfig()
	imCfg.HeadRebroadcast = 500 * time.Millisecond
	im := NewIMCore(imCfg, in, s, &sched.Reservation{}, sink, nil)
	c1 := mkResCar(t, 1, in.RoutesFromLeg(0, 2)[0], sink, DefaultResilienceConfig())
	b = newBus(t, im, c1)

	pump(b, 0, 4*time.Second, 100*time.Millisecond, nil, nil, nil)

	if c1.Plan() == nil {
		t.Fatal("vehicle did not receive a plan")
	}
	var imRetrans int
	for _, e := range b.events {
		if e.Type == EvRetransmit && e.Actor == 0 {
			imRetrans++
		}
	}
	if imRetrans < 3 {
		t.Errorf("IM head re-broadcasts = %d, want several over 4s at 500ms", imRetrans)
	}
	if got := b.countEvents(EvBlockRejected); got != 0 {
		t.Errorf("resilient vehicle rejected %d re-broadcast heads", got)
	}
}
