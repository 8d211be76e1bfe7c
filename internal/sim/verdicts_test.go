package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/vnet"
)

// sigFlipped returns a copy of b with one signature byte flipped.
func sigFlipped(b *chain.Block) *chain.Block {
	cp := *b
	cp.Sig = slices.Clone(b.Sig)
	cp.Sig[len(cp.Sig)/2] ^= 0x01
	return &cp
}

// waypointMoved returns a copy of b whose first plan has one waypoint
// moved, under the original signature and Merkle root.
func waypointMoved(b *chain.Block) *chain.Block {
	cp := *b
	cp.Plans = slices.Clone(b.Plans)
	cp.Plans[0] = b.Plans[0].Clone()
	cp.Plans[0].Waypoints[0].S += 1
	return &cp
}

// sameVerdict reports whether two Algorithm 1 results agree: both nil,
// or both errors with the same text.
func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestVerdictTableDifferential replays every block of an engine run
// through two vehicle-sized chain views: one reading the engine's own
// verdict table, primed by the run's deliveries, and one without a
// table. The verify-once path must accept exactly the blocks the full
// path accepts, with the same errors, on a benign run and on a run whose
// manager packages conflicting plans. Before each block, three forgeries
// of it go through both views, and each must be rejected: a copy with a
// signature byte flipped, the primed block with Sig[0] flipped in place,
// and a copy with a waypoint moved.
func TestVerdictTableDifferential(t *testing.T) {
	for _, name := range []string{"benign", "IM"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := attack.ByName(name, 15*time.Second)
			if !ok {
				t.Fatalf("unknown scenario %s", name)
			}
			e := testEngine(t, Scenario{Duration: 40 * time.Second, RatePerMin: 80, Seed: 3, Attack: sc})
			e.Run()
			checker := &plan.ConflictChecker{Inter: e.cfg.Inter}
			window := nwade.DefaultVehicleConfig().ChainMax
			shared := e.verdicts.NewChain(window)
			full := chain.NewChain(e.signer.Public(), window)
			verify := func(b *chain.Block) (error, error) {
				return nwade.VerifyBlock(shared, checker, b, nil), nwade.VerifyBlock(full, checker, b, nil)
			}
			blocks := e.IM().Blocks()
			primed, rejected := 0, 0
			for k, b := range blocks {
				if e.verdicts.Passed(b) {
					primed++
				}
				forgeries := []struct {
					name string
					make func() *chain.Block
					undo func()
					want error
				}{
					{"copy with a signature byte flipped", func() *chain.Block { return sigFlipped(b) }, func() {}, chain.ErrBadSignature},
					{"Sig[0] flipped in place", func() *chain.Block { b.Sig[0] ^= 0xFF; return b }, func() { b.Sig[0] ^= 0xFF }, chain.ErrBadSignature},
					{"copy with a waypoint moved", func() *chain.Block { return waypointMoved(b) }, func() {}, chain.ErrBadRoot},
				}
				for _, f := range forgeries {
					errS, errF := verify(f.make())
					f.undo()
					if !errors.Is(errS, f.want) || !sameVerdict(errS, errF) {
						t.Fatalf("block %d, %s: shared table gives %v, full check %v; want %v from both",
							k, f.name, errS, errF, f.want)
					}
				}
				errS, errF := verify(b)
				if !sameVerdict(errS, errF) {
					t.Fatalf("block %d: shared table gives %v, full check %v", k, errS, errF)
				}
				if errS != nil {
					// Keep a rejected block in both windows so the
					// blocks after it still link.
					rejected++
					if err := shared.AppendVerified(b); err != nil {
						t.Fatal(err)
					}
					if err := full.AppendVerified(b); err != nil {
						t.Fatal(err)
					}
				}
				if shared.Len() != full.Len() {
					t.Fatalf("block %d: windows hold %d and %d blocks", k, shared.Len(), full.Len())
				}
			}
			t.Logf("%d blocks, %d primed by the run, %d rejected", len(blocks), primed, rejected)
			if primed == 0 {
				t.Error("the run primed no block in the verdict table")
			}
			if name == "benign" && rejected != 0 {
				t.Errorf("Algorithm 1 rejected %d blocks of a benign run", rejected)
			}
			if name == "IM" && rejected == 0 {
				t.Error("no block of the conflicting-plans run was rejected")
			}
		})
	}
}

// TestForgedBroadcastRejectedByEveryVehicle puts a forged block on the
// engine's VANET mid-run: every vehicle on the road must reject it, and
// the verdict table must not record it.
func TestForgedBroadcastRejectedByEveryVehicle(t *testing.T) {
	forgeries := []struct {
		name string
		make func(head *chain.Block) *chain.Block
		want error
	}{
		{"bad signature", sigFlipped, chain.ErrBadSignature},
		{"tampered plan", waypointMoved, chain.ErrBadRoot},
	}
	for _, f := range forgeries {
		e := testEngine(t, Scenario{Duration: time.Minute, RatePerMin: 80, Seed: 5,
			Attack: attack.Benign()})
		stepTo(e, 25*time.Second)
		forged := f.make(e.IM().Head())
		present := e.PresentVehicles()
		sent := e.Net().BroadcastMsg(e.Now(), vnet.IMNode, nwade.KindBlock,
			nwade.BlockMsg{Block: forged}, nwade.SizeOfBlock(forged))
		if sent != len(present) || sent == 0 {
			t.Fatalf("%s: broadcast reached %d receivers, %d vehicles present",
				f.name, sent, len(present))
		}
		at := e.Now()
		stepTo(e, at+time.Second)
		rejected := map[plan.VehicleID]bool{}
		for _, ev := range e.Collector().Events() {
			if ev.At > at && ev.Type == nwade.EvBlockRejected && strings.Contains(ev.Info, f.want.Error()) {
				rejected[ev.Actor] = true
			}
		}
		for _, id := range present {
			if !rejected[id] {
				t.Errorf("%s: vehicle %v did not reject the forged block", f.name, id)
			}
		}
		if e.verdicts.Passed(forged) {
			t.Errorf("%s: the verdict table recorded the forged block", f.name)
		}
	}
}

// TestSignatureChecksPerBroadcast counts the signature checks a
// broadcast costs the receiving intersection. An honest block is checked
// once, by its first receiver, and the verdict table serves the rest. A
// forged block, which the table never records, is checked once by each
// of the N vehicles it reaches, and no more.
func TestSignatureChecksPerBroadcast(t *testing.T) {
	run := func(forge bool) (checks uint64, blocks, receivers int) {
		sink := obs.New(obs.Options{})
		e := testEngine(t, Scenario{Duration: time.Minute, RatePerMin: 80, Seed: 5,
			Attack: attack.Benign()}, WithObs(sink))
		stepTo(e, 25*time.Second)
		before, packaged := sink.Counter(obs.CntSigChecks), len(e.IM().Blocks())
		if forge {
			forged := sigFlipped(e.IM().Head())
			receivers = e.Net().BroadcastMsg(e.Now(), vnet.IMNode, nwade.KindBlock,
				nwade.BlockMsg{Block: forged}, nwade.SizeOfBlock(forged))
		}
		stepTo(e, e.Now()+time.Second)
		return sink.Counter(obs.CntSigChecks) - before, len(e.IM().Blocks()) - packaged, receivers
	}
	honest, blocks, _ := run(false)
	if blocks == 0 || honest != uint64(blocks) {
		t.Errorf("%d honest blocks cost %d signature checks, want one each", blocks, honest)
	}
	all, _, n := run(true)
	if n == 0 || all-honest != uint64(n) {
		t.Errorf("a forged block broadcast to %d vehicles cost %d signature checks, want %d", n, all-honest, n)
	}
}

// TestBlocksRejectedCountsEveryRejection runs a compromised IM whose
// vehicles reject its blocks by Algorithm 1 and, once, by re-checking a
// globally reported block: the blocks-rejected counter must equal the
// number of block-rejected events.
func TestBlocksRejectedCountsEveryRejection(t *testing.T) {
	sc, ok := attack.ByName("IM", 25*time.Second)
	if !ok {
		t.Fatal("unknown scenario IM")
	}
	sink := obs.New(obs.Options{})
	e := testEngine(t, Scenario{Duration: time.Minute, RatePerMin: 80, Seed: 2, Attack: sc}, WithObs(sink))
	e.Run()
	events := 0
	for _, ev := range e.Collector().Events() {
		if ev.Type == nwade.EvBlockRejected {
			events++
		}
	}
	if events == 0 {
		t.Fatal("the run rejected no block")
	}
	if got := sink.Counter(obs.CntBlocksRejected); got != uint64(events) {
		t.Errorf("blocks-rejected reads %d, the run logged %d block-rejected events", got, events)
	}
}
