// Protocol-level resilience against a lossy network. NWADE as specified
// in the paper assumes reliable one-hop delivery: a lost block broadcast
// silently desynchronises a vehicle's chain cache, a lost incident report
// is never verified, and a lost global report never reaches its quorum.
// This file adds the recovery machinery — bounded-exponential-backoff
// re-requests for missing blocks, holdback of ahead-of-sequence blocks
// until the gap is filled, retransmission of incident and global reports
// until acknowledged or deadlined, and duplicate suppression so the IM's
// periodic head re-broadcast (and fault-injected duplicates) are harmless.
//
// Everything here is gated on ResilienceConfig.Enabled and defaults OFF:
// with the zero value, the protocol behaves bit-identically to the
// pre-resilience implementation.
package nwade

import (
	"fmt"
	"time"

	"nwade/internal/chain"
	obspkg "nwade/internal/obs"
	"nwade/internal/ordered"
	"nwade/internal/vnet"
)

// ResilienceConfig parameterises the vehicle-side retransmission state
// machine. The zero value disables resilience entirely.
type ResilienceConfig struct {
	// Enabled turns the resilience layer on.
	Enabled bool
	// RetryTimeout is the initial wait before the first retransmission.
	RetryTimeout time.Duration
	// RetryBackoff multiplies the wait after every attempt (bounded
	// exponential backoff).
	RetryBackoff float64
	// RetryMax caps the backed-off wait.
	RetryMax time.Duration
	// MaxAttempts bounds retransmissions per item; afterwards the item
	// is deadlined (block gaps fall back to a chain resync, reports are
	// abandoned).
	MaxAttempts int
}

// DefaultResilienceConfig returns the enabled defaults: first retry after
// 400 ms, doubling up to 3 s, at most 6 attempts.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Enabled:      true,
		RetryTimeout: 400 * time.Millisecond,
		RetryBackoff: 2,
		RetryMax:     3 * time.Second,
		MaxAttempts:  6,
	}
}

// Normalize fills defaults on an enabled config; a disabled config is
// returned untouched.
func (c ResilienceConfig) Normalize() ResilienceConfig {
	if !c.Enabled {
		return c
	}
	d := DefaultResilienceConfig()
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = d.RetryTimeout
	}
	if c.RetryBackoff < 1 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.RetryMax <= 0 {
		c.RetryMax = d.RetryMax
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = d.MaxAttempts
	}
	return c
}

// retryState is one item's position in the backoff schedule.
type retryState struct {
	next     time.Duration // when the next retransmission fires
	wait     time.Duration // current backoff interval
	attempts int
}

// newRetry starts a schedule: the first retransmission fires RetryTimeout
// after now.
func (c ResilienceConfig) newRetry(now time.Duration) *retryState {
	return &retryState{next: now + c.RetryTimeout, wait: c.RetryTimeout}
}

// due reports whether a retransmission should fire.
func (r *retryState) due(now time.Duration) bool { return now >= r.next }

// bump records an attempt and backs off, bounded by RetryMax.
func (r *retryState) bump(now time.Duration, c ResilienceConfig) {
	r.attempts++
	r.wait = time.Duration(float64(r.wait) * c.RetryBackoff)
	if r.wait > c.RetryMax {
		r.wait = c.RetryMax
	}
	r.next = now + r.wait
}

// heldBlock is an ahead-of-sequence block waiting for its gap to fill.
type heldBlock struct {
	b          *chain.Block
	evacuation bool
}

// resilient reports whether the resilience layer is on.
func (vc *VehicleCore) resilient() bool { return vc.cfg.Resilience.Enabled }

// deferBlock holds an ahead-of-sequence block and requests every block in
// the gap. Requests are broadcast so peers can serve them while the IM is
// unreachable (partitions are exactly when gaps appear).
func (vc *VehicleCore) deferBlock(now time.Duration, b *chain.Block, evacuation bool, headSeq uint64) []Out {
	if _, dup := vc.held[b.Seq]; !dup {
		vc.held[b.Seq] = heldBlock{b: b, evacuation: evacuation}
		vc.sink.emit(Event{At: now, Type: EvBlockDeferred, Actor: vc.id,
			Info: fmt.Sprintf("seq %d held behind gap after %d", b.Seq, headSeq)})
	}
	var outs []Out
	for seq := headSeq + 1; seq < b.Seq; seq++ {
		outs = append(outs, vc.requestMissing(now, seq)...)
	}
	return outs
}

// requestMissing opens (at most one) retransmission schedule for a block
// sequence and sends the first request.
func (vc *VehicleCore) requestMissing(now time.Duration, seq uint64) []Out {
	if vc.blockRetry[seq] != nil {
		return nil
	}
	vc.missing[seq] = true
	vc.blockRetry[seq] = vc.cfg.Resilience.newRetry(now)
	return []Out{{To: vnet.Broadcast, Kind: KindBlockReq,
		Payload: BlockReqMsg{Requester: vc.id, Seq: seq}, Size: sizeBlockReq}}
}

// drainHeld appends every held block that now links to the head, in
// sequence order.
func (vc *VehicleCore) drainHeld(now time.Duration) []Out {
	var outs []Out
	for {
		head := vc.cache.Head()
		if head == nil {
			return outs
		}
		hb, ok := vc.held[head.Seq+1]
		if !ok {
			return outs
		}
		delete(vc.held, head.Seq+1)
		outs = append(outs, vc.processBlock(now, hb.b, hb.evacuation)...)
		if vc.selfEvac || vc.auto.State() == VExited {
			return outs
		}
	}
}

// resyncChain abandons an unfillable gap: the cached window is discarded
// and the chain restarts from the oldest held block, exactly like a
// mid-stream join. Watching continuity is lost for the gap's plans — the
// price of a partition that outlived every retry.
func (vc *VehicleCore) resyncChain(now time.Duration) []Out {
	if len(vc.held) == 0 {
		return nil
	}
	minSeq := uint64(0)
	first := true
	for seq := range vc.held {
		if first || seq < minSeq {
			minSeq = seq
			first = false
		}
	}
	hb := vc.held[minSeq]
	delete(vc.held, minSeq)
	vc.sink.emit(Event{At: now, Type: EvChainResync, Actor: vc.id,
		Info: fmt.Sprintf("restart at seq %d", minSeq)})
	vc.cache = vc.verdicts.NewChain(vc.cfg.ChainMax)
	outs := vc.processBlock(now, hb.b, hb.evacuation)
	if !vc.selfEvac && vc.auto.State() != VExited {
		outs = append(outs, vc.drainHeld(now)...)
	}
	return outs
}

// resilienceTick fires due retransmissions: missing-block re-requests and
// the pending incident report. Called from Tick while the vehicle is
// live; the global report has its own path (globalResendTick) because
// self-evacuating vehicles skip the normal Tick body.
func (vc *VehicleCore) resilienceTick(now time.Duration) []Out {
	res := vc.cfg.Resilience
	var outs []Out
	// Missing blocks, in deterministic sequence order. The keys are
	// snapshotted: the body deletes exhausted retries.
	if len(vc.blockRetry) > 0 {
		for _, seq := range ordered.Keys(vc.blockRetry) {
			rs := vc.blockRetry[seq]
			if !rs.due(now) {
				continue
			}
			if rs.attempts >= res.MaxAttempts {
				delete(vc.blockRetry, seq)
				delete(vc.missing, seq)
				outs = append(outs, vc.resyncChain(now)...)
				continue
			}
			rs.bump(now, res)
			vc.obs.Inc(obspkg.CntRetransmits)
			vc.sink.emit(Event{At: now, Type: EvRetransmit, Actor: vc.id,
				Info: fmt.Sprintf("block-req seq %d attempt %d", seq, rs.attempts)})
			outs = append(outs, Out{To: vnet.Broadcast, Kind: KindBlockReq,
				Payload: BlockReqMsg{Requester: vc.id, Seq: seq}, Size: sizeBlockReq})
		}
	}
	// Pending incident report: retransmit until the IM's verdict arrives
	// (pendingSuspect clears) or the IMTimeout deadline in Tick fires.
	if vc.pendingSuspect != 0 && vc.pendingReport != nil &&
		vc.pendingReport.Suspect == vc.pendingSuspect &&
		vc.reportRetry != nil && vc.reportRetry.due(now) &&
		vc.reportRetry.attempts < res.MaxAttempts {
		vc.reportRetry.bump(now, res)
		ir := *vc.pendingReport
		vc.obs.Inc(obspkg.CntRetransmits)
		vc.sink.emit(Event{At: now, Type: EvRetransmit, Actor: vc.id, Subject: ir.Suspect,
			Info: fmt.Sprintf("incident attempt %d", vc.reportRetry.attempts)})
		outs = append(outs, Out{To: vnet.IMNode, Kind: KindIncident, Payload: ir, Size: sizeIncident})
	}
	return outs
}

// globalResendTick re-broadcasts the self-evacuation global report with
// backoff until MaxAttempts (globals are unacknowledged broadcasts; the
// deadline is the only exit).
func (vc *VehicleCore) globalResendTick(now time.Duration) []Out {
	res := vc.cfg.Resilience
	if !res.Enabled || vc.globalOut == nil || vc.globalRetry == nil {
		return nil
	}
	if vc.globalRetry.attempts >= res.MaxAttempts || !vc.globalRetry.due(now) {
		return nil
	}
	vc.globalRetry.bump(now, res)
	vc.obs.Inc(obspkg.CntRetransmits)
	vc.sink.emit(Event{At: now, Type: EvRetransmit, Actor: vc.id, Subject: vc.globalOut.Suspect,
		Info: fmt.Sprintf("global attempt %d", vc.globalRetry.attempts)})
	return []Out{{To: vnet.Broadcast, Kind: KindGlobal, Payload: *vc.globalOut, Size: sizeGlobal}}
}
