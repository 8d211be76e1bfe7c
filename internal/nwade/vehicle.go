package nwade

import (
	"errors"
	"fmt"
	"time"

	"nwade/internal/chain"
	"nwade/internal/intersection"
	obspkg "nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/units"
	"nwade/internal/vnet"
)

// VehicleConfig parameterises the vehicle side of NWADE.
type VehicleConfig struct {
	// SensingRadius is the on-board perception range (paper sweeps
	// 300–1000 ft; default 1000 ft).
	SensingRadius float64
	// Tolerance is the local-verification deviation tolerance.
	Tolerance Tolerance
	// IMTimeout is how long a reporter waits for the IM's response
	// before treating it as compromised (Algorithm 2, line 12).
	IMTimeout time.Duration
	// ReportCooldown throttles repeat reports about the same suspect.
	ReportCooldown time.Duration
	// PersistDismissals is how many wrong dismissals of a still-
	// observed violation the vehicle tolerates before distrusting the
	// IM.
	PersistDismissals int
	// GlobalQuorum is the safety threshold of distinct global
	// reporters needed before a far-away vehicle self-evacuates
	// (Section IV-B3/B4).
	GlobalQuorum int
	// NearbyRadius is the distance below which a confirmed threat
	// makes the vehicle self-evacuate immediately instead of waiting
	// for quorum.
	NearbyRadius float64
	// ChainMax bounds the cached chain window (τ/δ in the paper).
	ChainMax int
	// Resilience configures retransmission and gap recovery under a
	// lossy network. Zero value = off (the paper's reliable-delivery
	// assumption).
	Resilience ResilienceConfig
}

// DefaultVehicleConfig returns the paper's settings.
func DefaultVehicleConfig() VehicleConfig {
	return VehicleConfig{
		SensingRadius:     units.SensingRadiusDefault,
		Tolerance:         DefaultTolerance(),
		IMTimeout:         1500 * time.Millisecond,
		ReportCooldown:    2 * time.Second,
		PersistDismissals: 2,
		GlobalQuorum:      3,
		NearbyRadius:      120,
		ChainMax:          64,
	}
}

// ViolationKind is the physical attack a compromised vehicle performs.
type ViolationKind int

// Violation kinds (threat categories i/ii).
const (
	ViolationSpeeding ViolationKind = iota + 1
	ViolationHardBrake
	ViolationLaneChange
)

// String implements fmt.Stringer.
func (v ViolationKind) String() string {
	switch v {
	case ViolationSpeeding:
		return "speeding"
	case ViolationHardBrake:
		return "hard-brake"
	case ViolationLaneChange:
		return "lane-change"
	default:
		return "none"
	}
}

// VehicleMalice configures a compromised vehicle. Nil means benign. The
// physical violation itself is executed by the simulation engine (it owns
// kinematics); the protocol-level misbehavior lives here.
type VehicleMalice struct {
	// ViolateAt, when positive, is the time the vehicle starts
	// deviating from its plan (engine-executed).
	ViolateAt time.Duration
	Violation ViolationKind
	// FalseReportAt, when positive, is when the vehicle sends a
	// fabricated incident report about FalseTarget (or the nearest
	// benign neighbor when zero).
	FalseReportAt time.Duration
	FalseTarget   plan.VehicleID
	// VoteFalsely makes the vehicle support the attack in verification
	// votes: accuse the false target, clear fellow attackers.
	VoteFalsely bool
	// Accomplices are fellow compromised vehicles to protect in votes.
	Accomplices map[plan.VehicleID]bool
	// FalseGlobalAt, when positive, is when the vehicle broadcasts a
	// fabricated global report (Table II type B).
	FalseGlobalAt     time.Duration
	FalseGlobalReason GlobalReason

	sentFalseReport bool
	sentFalseGlobal bool
}

// IsAccomplice reports whether id is a protected fellow attacker.
func (m *VehicleMalice) IsAccomplice(id plan.VehicleID) bool {
	if m == nil {
		return false
	}
	return m.Accomplices[id]
}

// Neighbor is one sensed nearby vehicle (ground truth from on-board
// sensors).
type Neighbor struct {
	ID     plan.VehicleID
	Status plan.Status
}

// VehicleCore is the vehicle-side protocol engine.
type VehicleCore struct {
	id    plan.VehicleID
	char  plan.Characteristics
	route *intersection.Route
	inter *intersection.Intersection
	chk   *plan.ConflictChecker
	cache *chain.Chain
	auto  *VehicleAutomaton
	cfg   VehicleConfig
	sink  EventSink
	mal   *VehicleMalice
	obs   *obspkg.Sink

	// verdicts is the intersection's block verdict table; cache, and any
	// cache that replaces it, reads it.
	verdicts *chain.Verdicts
	// table is the intersection's tick table: watch verdicts and block
	// conflict proofs shared with the other vehicles (nil: none).
	table *TickTable

	arriveAt time.Duration
	speed0   float64

	requested   bool
	lastRequest time.Duration
	myPlan      *plan.TravelPlan

	// Local-verification bookkeeping.
	pendingSuspect plan.VehicleID
	pendingSince   time.Duration
	cooldown       map[plan.VehicleID]time.Duration
	dismissals     map[plan.VehicleID]int
	// lastNeighbors is the neighborhood sensed at the last tick, a copy
	// of the engine's list (IDs are distinct).
	lastNeighbors []Neighbor
	// suspicion counts consecutive observation windows a neighbor has
	// been seen violating; a report needs two in a row (sensor
	// confirmation against transients).
	suspicion map[plan.VehicleID]int
	// knownSuspects are vehicles named in evacuation alerts; their
	// cached plans are no longer authoritative for conflict checks.
	knownSuspects map[plan.VehicleID]bool

	// Global-verification bookkeeping.
	globalIM      map[plan.VehicleID]GlobalReason // reporter -> IM-related reason
	globalSuspect map[plan.VehicleID]map[plan.VehicleID]bool
	pendingBlocks map[uint64]bool // blocks requested for re-verification

	distrustIM bool
	selfEvac   bool
	evacReason GlobalReason
	sentGlobal bool
	missing    map[uint64]bool // back-fill requests outstanding

	// Resilience bookkeeping (only populated when cfg.Resilience.Enabled).
	held          map[uint64]heldBlock   // ahead-of-sequence blocks
	blockRetry    map[uint64]*retryState // missing-block re-requests
	pendingReport *IncidentReport        // last incident report, for retransmission
	reportRetry   *retryState
	globalOut     *GlobalReport // our global report, re-broadcast after self-evac
	globalRetry   *retryState
	seenGlobals   map[string]bool // duplicate suppression for peers' globals
	seenEvacs     map[uint64]bool // duplicate suppression for evacuation alerts
}

// NewVehicleCore creates the vehicle protocol core. Its chain view
// verifies blocks with the verdict table's key and trusts the table's
// verdicts, and its watch and block checks share results through the
// tick table; the engine shares one of each among an intersection's
// vehicles. A nil tick table shares nothing.
func NewVehicleCore(id plan.VehicleID, char plan.Characteristics, route *intersection.Route,
	inter *intersection.Intersection, verdicts *chain.Verdicts, table *TickTable, cfg VehicleConfig, sink EventSink,
	mal *VehicleMalice, arriveAt time.Duration, speed float64) *VehicleCore {
	if cfg.SensingRadius <= 0 {
		res := cfg.Resilience
		cfg = DefaultVehicleConfig()
		cfg.Resilience = res
	}
	cfg.Resilience = cfg.Resilience.Normalize()
	return &VehicleCore{
		id:            id,
		char:          char,
		route:         route,
		inter:         inter,
		chk:           &plan.ConflictChecker{Inter: inter},
		verdicts:      verdicts,
		table:         table,
		cache:         verdicts.NewChain(cfg.ChainMax),
		auto:          NewVehicleAutomaton(),
		cfg:           cfg,
		sink:          sink,
		mal:           mal,
		arriveAt:      arriveAt,
		speed0:        speed,
		cooldown:      make(map[plan.VehicleID]time.Duration),
		dismissals:    make(map[plan.VehicleID]int),
		suspicion:     make(map[plan.VehicleID]int),
		knownSuspects: make(map[plan.VehicleID]bool),
		globalIM:      make(map[plan.VehicleID]GlobalReason),
		globalSuspect: make(map[plan.VehicleID]map[plan.VehicleID]bool),
		pendingBlocks: make(map[uint64]bool),
		missing:       make(map[uint64]bool),
		held:          make(map[uint64]heldBlock),
		blockRetry:    make(map[uint64]*retryState),
		seenGlobals:   make(map[string]bool),
		seenEvacs:     make(map[uint64]bool),
	}
}

// SetObs installs the observability sink (nil disables it).
func (vc *VehicleCore) SetObs(o *obspkg.Sink) { vc.obs = o }

// State exposes the DFA state.
func (vc *VehicleCore) State() VehicleState { return vc.auto.State() }

// Plan returns the currently adopted travel plan (nil before admission).
func (vc *VehicleCore) Plan() *plan.TravelPlan { return vc.myPlan }

// SelfEvacuating reports whether the vehicle decided to self-evacuate.
func (vc *VehicleCore) SelfEvacuating() bool { return vc.selfEvac }

// DistrustsIM reports whether the vehicle considers the IM compromised.
func (vc *VehicleCore) DistrustsIM() bool { return vc.distrustIM }

// Chain exposes the cached chain (for tests and peers' block requests).
func (vc *VehicleCore) Chain() *chain.Chain { return vc.cache }

// Malice exposes the malice configuration (engine reads the physical
// violation schedule).
func (vc *VehicleCore) Malice() *VehicleMalice { return vc.mal }

// SetMalice injects a compromise at runtime — the attack framework
// "hacks" a previously benign vehicle mid-simulation.
func (vc *VehicleCore) SetMalice(m *VehicleMalice) { vc.mal = m }

// AdoptPlanUnverified installs a plan without any verification. It is
// the no-NWADE baseline used by the overhead experiments (Fig. 8): plain
// plan dissemination as in an unprotected AIM system.
func (vc *VehicleCore) AdoptPlanUnverified(p *plan.TravelPlan) {
	vc.myPlan = p
	_ = vc.auto.To(VBlockVerify)
	_ = vc.auto.To(VFollowing)
}

// TickRequestOnly performs only the plan-request part of Tick, for the
// no-NWADE baseline (no watching, no verification traffic).
func (vc *VehicleCore) TickRequestOnly(now time.Duration) []Out {
	if vc.auto.State() == VExited || vc.requested {
		return nil
	}
	vc.requested = true
	return []Out{{To: vnet.IMNode, Kind: KindRequest, Payload: RequestMsg{
		Vehicle:  vc.id,
		Char:     vc.char,
		RouteID:  vc.route.ID,
		ArriveAt: vc.arriveAt,
		Speed:    vc.speed0,
	}, Size: sizeRequest}}
}

// Char returns the vehicle's physical characteristics (carried across
// road-network handoffs with the vehicle's identity).
func (vc *VehicleCore) Char() plan.Characteristics { return vc.char }

// Route returns the vehicle's route.
func (vc *VehicleCore) Route() *intersection.Route { return vc.route }

// MarkExited transitions the vehicle to its terminal state.
func (vc *VehicleCore) MarkExited(now time.Duration) {
	if vc.auto.State() != VExited {
		_ = vc.auto.To(VExited)
		vc.sink.emit(Event{At: now, Type: EvExited, Actor: vc.id})
	}
}

// enterSelfEvac performs the one-way transition into self-evacuation and
// broadcasts the corresponding global report (once).
func (vc *VehicleCore) enterSelfEvac(now time.Duration, reason GlobalReason, blockSeq uint64, suspect plan.VehicleID) []Out {
	if vc.selfEvac || vc.auto.State() == VExited {
		return nil
	}
	vc.selfEvac = true
	vc.evacReason = reason
	vc.distrustIM = true
	_ = vc.auto.To(VSelfEvac)
	vc.obs.Inc(obspkg.CntSelfEvacuations)
	vc.sink.emit(Event{At: now, Type: EvSelfEvacuation, Actor: vc.id, Subject: suspect, Info: reason.String()})
	if vc.sentGlobal {
		return nil
	}
	vc.sentGlobal = true
	vc.obs.Inc(obspkg.CntGlobalReports)
	vc.sink.emit(Event{At: now, Type: EvGlobalSent, Actor: vc.id, Subject: suspect, Info: reason.String()})
	gr := GlobalReport{Reporter: vc.id, Reason: reason, BlockSeq: blockSeq, Suspect: suspect, At: now}
	if vc.resilient() {
		// Keep re-broadcasting it: one lost packet must not cost the
		// quorum a witness.
		vc.globalOut = &gr
		vc.globalRetry = vc.cfg.Resilience.newRetry(now)
	}
	return []Out{{To: vnet.Broadcast, Kind: KindGlobal, Payload: gr, Size: sizeGlobal}}
}

// HandleMessage processes one inbound message.
func (vc *VehicleCore) HandleMessage(now time.Duration, msg vnet.Message) []Out {
	if vc.auto.State() == VExited {
		return nil
	}
	switch msg.Kind {
	case KindBlock:
		bm, ok := msg.Payload.(BlockMsg)
		if !ok {
			return nil
		}
		return vc.handleBlock(now, bm.Block, false)
	case KindBlockResp:
		br, ok := msg.Payload.(BlockRespMsg)
		if !ok {
			return nil
		}
		return vc.handleBlockResp(now, br.Block)
	case KindVerifyReq:
		vr, ok := msg.Payload.(VerifyRequest)
		if !ok {
			return nil
		}
		return vc.handleVerifyReq(now, vr)
	case KindDismiss:
		dm, ok := msg.Payload.(DismissMsg)
		if !ok {
			return nil
		}
		vc.handleDismiss(now, dm)
		return nil
	case KindEvacuation:
		ea, ok := msg.Payload.(EvacuationAlert)
		if !ok {
			return nil
		}
		return vc.handleEvacuation(now, ea)
	case KindGlobal:
		gr, ok := msg.Payload.(GlobalReport)
		if !ok {
			return nil
		}
		return vc.handleGlobal(now, gr)
	case KindBlockReq:
		br, ok := msg.Payload.(BlockReqMsg)
		if !ok {
			return nil
		}
		if b, err := vc.cache.BySeq(br.Seq); err == nil {
			return []Out{{To: msg.From, Kind: KindBlockResp, Payload: BlockRespMsg{Block: b}, Size: SizeOfBlock(b)}}
		}
		return nil
	default:
		return nil
	}
}

// handleBlock runs Algorithm 1 on a freshly broadcast block. With
// resilience on, duplicates of already-chained blocks are dropped and
// ahead-of-sequence blocks are held back while the gap is re-requested —
// without it, either would fail linkage verification and trigger a
// spurious self-evacuation.
func (vc *VehicleCore) handleBlock(now time.Duration, b *chain.Block, evacuation bool) []Out {
	if b == nil {
		return nil
	}
	if vc.resilient() {
		if head := vc.cache.Head(); head != nil {
			if b.Seq <= head.Seq {
				return nil // duplicate or stale re-broadcast
			}
			if b.Seq > head.Seq+1 {
				return vc.deferBlock(now, b, evacuation, head.Seq)
			}
		}
	}
	outs := vc.processBlock(now, b, evacuation)
	if vc.resilient() && !vc.selfEvac && vc.auto.State() != VExited {
		outs = append(outs, vc.drainHeld(now)...)
	}
	return outs
}

// processBlock is the verification core of handleBlock (Algorithm 1).
func (vc *VehicleCore) processBlock(now time.Duration, b *chain.Block, evacuation bool) []Out {
	prevState := vc.auto.State()
	_ = vc.auto.To(VBlockVerify)
	if err := verifyBlockObs(vc.cache, vc.chk, b, vc.knownSuspects, vc.table, now, vc.obs); err != nil {
		return vc.rejectBlock(now, b, err)
	}
	vc.obs.Inc(obspkg.CntBlocksVerified)
	vc.sink.emit(Event{At: now, Type: EvBlockAccepted, Actor: vc.id, Info: fmt.Sprintf("seq %d", b.Seq)})
	delete(vc.missing, b.Seq)
	delete(vc.blockRetry, b.Seq)
	var outs []Out
	// Back-fill older blocks the first time we join the stream, so we
	// can watch vehicles that arrived before us.
	if vc.cache.Len() == 1 && b.Seq > 0 {
		lo := int64(b.Seq) - int64(vc.cfg.ChainMax)
		if lo < 0 {
			lo = 0
		}
		for seq := int64(b.Seq) - 1; seq >= lo && seq >= int64(b.Seq)-4; seq-- {
			vc.missing[uint64(seq)] = true
			outs = append(outs, Out{To: vnet.IMNode, Kind: KindBlockReq,
				Payload: BlockReqMsg{Requester: vc.id, Seq: uint64(seq)}, Size: sizeBlockReq})
		}
	}
	// Adopt my own plan when present.
	if p, ok := b.PlanFor(vc.id); ok {
		vc.myPlan = p
		if evacuation {
			_ = vc.auto.To(VEvacuating)
			vc.sink.emit(Event{At: now, Type: EvEvacPlanAdopted, Actor: vc.id})
		} else {
			_ = vc.auto.To(VFollowing)
		}
	} else {
		// Return to whatever we were doing.
		switch prevState {
		case VPreparation:
			_ = vc.auto.To(VPreparation)
		case VEvacuating:
			_ = vc.auto.To(VEvacuating)
		default:
			if vc.myPlan != nil {
				_ = vc.auto.To(VFollowing)
			} else {
				_ = vc.auto.To(VPreparation)
			}
		}
	}
	return outs
}

// rejectBlock handles a block that failed verification — Algorithm 1,
// the re-check of a globally reported block, or back-fill: it logs and
// counts the rejection and self-evacuates, reporting the block.
func (vc *VehicleCore) rejectBlock(now time.Duration, b *chain.Block, err error) []Out {
	vc.obs.Inc(obspkg.CntBlocksRejected)
	vc.sink.emit(Event{At: now, Type: EvBlockRejected, Actor: vc.id, Info: err.Error()})
	reason := ReasonBadBlock
	if errors.Is(err, ErrConflictingPlans) {
		reason = ReasonConflictingPlans
	}
	return vc.enterSelfEvac(now, reason, b.Seq, 0)
}

// handleBlockResp verifies a fetched block: older blocks are prepended,
// in-sequence blocks appended, and blocks fetched for global
// verification are re-checked for conflicts.
func (vc *VehicleCore) handleBlockResp(now time.Duration, b *chain.Block) []Out {
	if b == nil {
		return nil
	}
	delete(vc.missing, b.Seq)
	delete(vc.blockRetry, b.Seq)
	wanted := vc.pendingBlocks[b.Seq]
	delete(vc.pendingBlocks, b.Seq)
	// Re-verify content for globally reported blocks regardless of
	// cache placement: steps i and ii, which need no cached neighbor.
	if wanted {
		if err := checkBlock(vc.cache, vc.chk, b, nil, vc.obs); err != nil {
			return vc.rejectBlock(now, b, err)
		}
		// The reported block is fine: the global report was malicious.
		vc.sink.emit(Event{At: now, Type: EvGlobalRefuted, Actor: vc.id, Info: fmt.Sprintf("block %d verified clean", b.Seq)})
		return nil
	}
	head := vc.cache.Head()
	switch {
	case head == nil || b.Seq == head.Seq+1:
		return vc.handleBlock(now, b, false)
	case vc.cache.Len() > 0 && b.Seq+1 == vc.oldestSeq():
		// The counted check records a pass, so Prepend does not repeat
		// the RSA work.
		err := checkContent(vc.cache, b, vc.obs)
		if err == nil {
			err = vc.cache.Prepend(b)
		}
		if err != nil {
			return vc.rejectBlock(now, b, err)
		}
		vc.sink.emit(Event{At: now, Type: EvBlockAccepted, Actor: vc.id, Info: fmt.Sprintf("back-fill seq %d", b.Seq)})
	case vc.resilient() && b.Seq > head.Seq+1:
		// Gap responses arriving out of order: hold until the gap below
		// them fills.
		return vc.deferBlock(now, b, false, head.Seq)
	}
	return nil
}

// oldestSeq returns the oldest cached block sequence.
func (vc *VehicleCore) oldestSeq() uint64 {
	bs := vc.cache.Blocks()
	if len(bs) == 0 {
		return 0
	}
	return bs[0].Seq
}

// handleVerifyReq answers the IM's local-verification request with the
// vehicle's own observation of the suspect.
func (vc *VehicleCore) handleVerifyReq(now time.Duration, vr VerifyRequest) []Out {
	vc.obs.Inc(obspkg.CntVotesCast)
	obs, visible := vc.lastSensed(vr.Suspect)
	abnormal := false
	if visible {
		if p, _, ok := vc.cache.PlanFor(vr.Suspect); ok {
			if r, err := vc.inter.Route(p.RouteID); err == nil {
				_, _, abnormal = vc.table.checkAttack(now, p, r, obs, vc.cfg.Tolerance)
			}
		}
	}
	// A colluding voter lies: it backs the attack's story and always
	// claims to have seen the suspect.
	if vc.mal != nil && vc.mal.VoteFalsely {
		visible = true
		if vc.mal.IsAccomplice(vr.Suspect) {
			abnormal = false // protect a fellow attacker
		} else {
			abnormal = true // pile onto the framed vehicle
		}
	}
	return []Out{{To: vnet.IMNode, Kind: KindVerifyResp,
		Payload: VerifyResponse{Voter: vc.id, Suspect: vr.Suspect, Nonce: vr.Nonce, Visible: visible, Abnormal: abnormal, Observed: obs},
		Size:    sizeVerifyResp}}
}

// handleDismiss processes the IM's verdict on our report.
func (vc *VehicleCore) handleDismiss(now time.Duration, dm DismissMsg) {
	if dm.Reporter != vc.id || vc.pendingSuspect != dm.Suspect {
		return
	}
	vc.pendingSuspect = 0
	if dm.Benign {
		vc.dismissals[dm.Suspect]++
		vc.cooldown[dm.Suspect] = now + vc.cfg.ReportCooldown
		if vc.auto.State() == VReporting {
			_ = vc.auto.To(VFollowing)
		}
	}
}

// handleEvacuation processes the IM's evacuation broadcast.
func (vc *VehicleCore) handleEvacuation(now time.Duration, ea EvacuationAlert) []Out {
	// The IM re-broadcasts alerts under resilience; only the first copy
	// of each evacuation block is processed.
	if vc.resilient() && ea.Block != nil {
		if vc.seenEvacs[ea.Block.Seq] {
			return nil
		}
		vc.seenEvacs[ea.Block.Seq] = true
	}
	// The alert names the suspects; their cached plans stop being
	// authoritative for conflict verification (the new schedules route
	// around where the suspects actually are, not where their plans
	// said they would be).
	for _, s := range ea.Suspects {
		vc.knownSuspects[s.Vehicle] = true
	}
	// The evacuation block is chained and verified like any block.
	outs := vc.handleBlock(now, ea.Block, true)
	if vc.selfEvac {
		return outs
	}
	// Sham-evacuation detection: if a named suspect is within sensing
	// range and visibly behaving, the IM is framing it.
	for _, s := range ea.Suspects {
		if s.Vehicle == vc.id {
			// We are the accused. A benign vehicle knows its own
			// conduct; a compromised IM naming us is an attack.
			if vc.mal == nil || vc.mal.ViolateAt <= 0 {
				vc.sink.emit(Event{At: now, Type: EvFalseAccusationSeen, Actor: vc.id, Subject: vc.id, Info: "self"})
				outs = append(outs, vc.enterSelfEvac(now, ReasonFalseAccusation, 0, vc.id)...)
			}
			continue
		}
		obs, visible := vc.lastSensed(s.Vehicle)
		if !visible {
			continue
		}
		p, _, ok := vc.cache.PlanFor(s.Vehicle)
		if !ok {
			continue
		}
		r, err := vc.inter.Route(p.RouteID)
		if err != nil {
			continue
		}
		if _, _, violated := CheckConduct(p, r, obs, vc.cfg.Tolerance); !violated {
			vc.sink.emit(Event{At: now, Type: EvFalseAccusationSeen, Actor: vc.id, Subject: s.Vehicle})
			outs = append(outs, vc.enterSelfEvac(now, ReasonFalseAccusation, 0, s.Vehicle)...)
		}
	}
	// Our pending report was answered by action.
	if vc.pendingSuspect != 0 {
		for _, s := range ea.Suspects {
			if s.Vehicle == vc.pendingSuspect {
				vc.pendingSuspect = 0
			}
		}
	}
	return outs
}

// handleGlobal is Algorithm 3.
func (vc *VehicleCore) handleGlobal(now time.Duration, gr GlobalReport) []Out {
	if gr.Reporter == vc.id || vc.selfEvac {
		return nil
	}
	// Retransmitted globals must not repeat the verification work (or
	// double-count toward quorums, which are per-reporter maps anyway).
	if vc.resilient() {
		key := fmt.Sprintf("%d|%d|%d|%d", gr.Reporter, gr.Reason, gr.Suspect, gr.BlockSeq)
		if vc.seenGlobals[key] {
			return nil
		}
		vc.seenGlobals[key] = true
	}
	// Colluders ignore the defense traffic entirely.
	if vc.mal != nil && vc.mal.VoteFalsely && vc.mal.IsAccomplice(gr.Reporter) {
		return nil
	}
	_ = vc.auto.To(VGlobalVerify)
	defer func() {
		if vc.auto.State() == VGlobalVerify {
			if vc.myPlan != nil {
				_ = vc.auto.To(VFollowing)
			}
		}
	}()
	var outs []Out
	switch gr.Reason {
	case ReasonBadBlock, ReasonConflictingPlans:
		// Claim (i): a block is bad. If we hold and verified it, the
		// claim is refuted — our Algorithm 1 pass is proof, and a
		// refuted claim must NOT count toward the IM-distrust quorum
		// (that is exactly how colluding liars would game it).
		if _, err := vc.cache.BySeq(gr.BlockSeq); err == nil {
			vc.sink.emit(Event{At: now, Type: EvGlobalRefuted, Actor: vc.id,
				Info: fmt.Sprintf("hold verified block %d, reporter %v lies", gr.BlockSeq, gr.Reporter)})
			break
		}
		// We don't hold it: fetch from peers/IM and re-check; the
		// verdict is decided by the block itself, not the claim.
		if !vc.pendingBlocks[gr.BlockSeq] {
			vc.pendingBlocks[gr.BlockSeq] = true
			outs = append(outs, Out{To: vnet.Broadcast, Kind: KindBlockReq,
				Payload: BlockReqMsg{Requester: vc.id, Seq: gr.BlockSeq}, Size: sizeBlockReq})
		}
	case ReasonIMUnresponsive, ReasonFalseAccusation:
		vc.recordIMGlobal(gr)
	case ReasonAbnormalVehicle:
		// Claim (ii): a suspect is loose and the IM is not acting.
		if obs, visible := vc.lastSensed(gr.Suspect); visible {
			// Nearby: perform our own local verification.
			if p, _, ok := vc.cache.PlanFor(gr.Suspect); ok {
				if r, err := vc.inter.Route(p.RouteID); err == nil {
					if _, _, attack := vc.table.checkAttack(now, p, r, obs, vc.cfg.Tolerance); attack {
						outs = append(outs, vc.enterSelfEvac(now, ReasonAbnormalVehicle, 0, gr.Suspect)...)
						return outs
					}
					vc.sink.emit(Event{At: now, Type: EvGlobalRefuted, Actor: vc.id,
						Info: fmt.Sprintf("suspect %v observed normal", gr.Suspect)})
				}
			}
		}
		if vc.globalSuspect[gr.Suspect] == nil {
			vc.globalSuspect[gr.Suspect] = make(map[plan.VehicleID]bool)
		}
		vc.globalSuspect[gr.Suspect][gr.Reporter] = true
		if len(vc.globalSuspect[gr.Suspect]) >= vc.cfg.GlobalQuorum {
			vc.sink.emit(Event{At: now, Type: EvSuspectQuorum, Actor: vc.id, Subject: gr.Suspect})
			outs = append(outs, vc.enterSelfEvac(now, ReasonAbnormalVehicle, 0, gr.Suspect)...)
			return outs
		}
	}
	// IM-distrust quorum: enough distinct peers independently reporting
	// IM misbehavior means we should leave too, even without first-hand
	// evidence. The recorded reason is the quorum's dominant claim, not
	// whatever message happened to arrive last.
	if len(vc.globalIM) >= vc.cfg.GlobalQuorum {
		vc.sink.emit(Event{At: now, Type: EvSuspectQuorum, Actor: vc.id, Info: "IM distrust quorum"})
		outs = append(outs, vc.enterSelfEvac(now, vc.dominantIMReason(), 0, 0)...)
	}
	return outs
}

// dominantIMReason returns the most common reason among the recorded
// IM-misbehavior claims (ties break by smaller reason value).
func (vc *VehicleCore) dominantIMReason() GlobalReason {
	counts := make(map[GlobalReason]int)
	for _, r := range vc.globalIM {
		counts[r]++
	}
	best := ReasonIMUnresponsive
	bestN := -1
	for r, n := range counts {
		if n > bestN || (n == bestN && r < best) {
			best, bestN = r, n
		}
	}
	return best
}

// lastSensed returns the status sensed for id at the last tick.
func (vc *VehicleCore) lastSensed(id plan.VehicleID) (plan.Status, bool) {
	for _, n := range vc.lastNeighbors {
		if n.ID == id {
			return n.Status, true
		}
	}
	return plan.Status{}, false
}

// recordIMGlobal tallies a distinct reporter claiming IM misbehavior.
func (vc *VehicleCore) recordIMGlobal(gr GlobalReport) {
	vc.globalIM[gr.Reporter] = gr.Reason
}

// Tick drives the periodic vehicle behavior: requesting a plan, the
// neighborhood watch (Algorithm 2), report timeouts, and scheduled
// protocol-level malice.
func (vc *VehicleCore) Tick(now time.Duration, self plan.Status, neighbors []Neighbor) []Out {
	if vc.auto.State() == VExited {
		return nil
	}
	if vc.selfEvac {
		// Self-evacuating vehicles leave the protocol, but keep
		// re-broadcasting their global report under resilience.
		return vc.globalResendTick(now)
	}
	var outs []Out
	vc.lastNeighbors = append(vc.lastNeighbors[:0], neighbors...)
	// Request a plan on first contact, and re-request with the current
	// position while no plan has arrived (the batch may have been full,
	// or the first request lost).
	if !vc.requested {
		vc.requested = true
		vc.lastRequest = now
		outs = append(outs, Out{To: vnet.IMNode, Kind: KindRequest, Payload: RequestMsg{
			Vehicle:  vc.id,
			Char:     vc.char,
			RouteID:  vc.route.ID,
			ArriveAt: vc.arriveAt,
			Speed:    vc.speed0,
		}, Size: sizeRequest})
	} else if vc.myPlan == nil && now-vc.lastRequest > 1500*time.Millisecond {
		vc.lastRequest = now
		s, _ := vc.route.Full.Project(self.Pos)
		outs = append(outs, Out{To: vnet.IMNode, Kind: KindRequest, Payload: RequestMsg{
			Vehicle:  vc.id,
			Char:     vc.char,
			RouteID:  vc.route.ID,
			ArriveAt: now,
			Speed:    self.Speed,
			CurrentS: s,
		}, Size: sizeRequest})
	}
	// Report timeout: the IM ignored our incident report.
	if vc.pendingSuspect != 0 && now-vc.pendingSince > vc.cfg.IMTimeout {
		suspect := vc.pendingSuspect
		vc.pendingSuspect = 0
		vc.sink.emit(Event{At: now, Type: EvReportIgnored, Actor: vc.id, Subject: suspect, Info: "IM timeout"})
		outs = append(outs, vc.enterSelfEvac(now, ReasonIMUnresponsive, 0, suspect)...)
		return outs
	}
	// Retransmissions due this tick (missing blocks, pending report).
	if vc.resilient() {
		outs = append(outs, vc.resilienceTick(now)...)
		if vc.selfEvac || vc.auto.State() == VExited {
			return outs
		}
	}
	// Neighborhood watch.
	outs = append(outs, vc.watch(now, neighbors)...)
	// Scheduled malicious actions.
	outs = append(outs, vc.malTick(now, neighbors)...)
	return outs
}

// watch is Algorithm 2: compare every sensed neighbor against its plan.
func (vc *VehicleCore) watch(now time.Duration, neighbors []Neighbor) []Out {
	if vc.cache.Len() == 0 {
		return nil
	}
	// Compromised vehicles don't do honest police work.
	if vc.mal != nil && (vc.mal.ViolateAt > 0 || vc.mal.VoteFalsely || vc.mal.FalseReportAt > 0) {
		return nil
	}
	var outs []Out
	for _, n := range neighbors {
		if n.ID == vc.id {
			continue
		}
		// Confirmed suspects are already being evacuated around; no
		// point re-raising the alarm.
		if vc.knownSuspects[n.ID] {
			continue
		}
		if now < vc.cooldown[n.ID] {
			continue
		}
		p, _, ok := vc.cache.PlanFor(n.ID)
		if !ok {
			continue
		}
		// Give a fresh plan a moment to be adopted by its vehicle, and
		// stop judging once the plan is complete.
		if now < p.Start()+800*time.Millisecond || p.Done(now) {
			continue
		}
		r, err := vc.inter.Route(p.RouteID)
		if err != nil {
			continue
		}
		posErr, spdErr, violated := vc.table.checkAttack(now, p, r, n.Status, vc.cfg.Tolerance)
		if !violated {
			vc.suspicion[n.ID] = 0
			continue
		}
		// Require two consecutive violating observations: one-tick
		// transients (plan hand-overs, queue catch-ups) are sensor
		// noise, sustained deviations are attacks.
		vc.suspicion[n.ID]++
		if vc.suspicion[n.ID] < 2 {
			continue
		}
		vc.sink.emit(Event{At: now, Type: EvDeviationSpotted, Actor: vc.id, Subject: n.ID,
			Info: fmt.Sprintf("posErr=%.1f spdErr=%.1f", posErr, spdErr)})
		// Persistent violations the IM keeps dismissing mean the IM
		// itself is compromised.
		if vc.dismissals[n.ID] >= vc.cfg.PersistDismissals {
			outs = append(outs, vc.enterSelfEvac(now, ReasonAbnormalVehicle, 0, n.ID)...)
			return outs
		}
		if vc.pendingSuspect != 0 {
			continue // one report in flight at a time
		}
		_, blk, _ := vc.cache.PlanFor(n.ID)
		var seq uint64
		if blk != nil {
			seq = blk.Seq
		}
		vc.pendingSuspect = n.ID
		vc.pendingSince = now
		vc.cooldown[n.ID] = now + vc.cfg.ReportCooldown
		_ = vc.auto.To(VReporting)
		vc.obs.Inc(obspkg.CntLocalReports)
		vc.sink.emit(Event{At: now, Type: EvReportSent, Actor: vc.id, Subject: n.ID})
		ir := IncidentReport{
			Reporter: vc.id,
			Suspect:  n.ID,
			Evidence: n.Status,
			BlockSeq: seq,
			At:       now,
		}
		if vc.resilient() {
			// Retransmit until the verdict arrives or IMTimeout fires.
			vc.pendingReport = &ir
			vc.reportRetry = vc.cfg.Resilience.newRetry(now)
		}
		outs = append(outs, Out{To: vnet.IMNode, Kind: KindIncident, Payload: ir, Size: sizeIncident})
	}
	return outs
}

// malTick fires scheduled protocol-level attacks.
func (vc *VehicleCore) malTick(now time.Duration, neighbors []Neighbor) []Out {
	if vc.mal == nil {
		return nil
	}
	var outs []Out
	if vc.mal.FalseReportAt > 0 && !vc.mal.sentFalseReport && now >= vc.mal.FalseReportAt {
		target := vc.mal.FalseTarget
		if target == 0 {
			for _, n := range neighbors {
				if n.ID != vc.id && !vc.mal.IsAccomplice(n.ID) {
					target = n.ID
					break
				}
			}
		}
		if target != 0 {
			vc.mal.sentFalseReport = true
			// Fabricated evidence: claim the target is far off course.
			ev := plan.Status{At: now}
			if obs, ok := vc.lastSensed(target); ok {
				ev = obs
				ev.Pos = ev.Pos.Add(ev.Pos.Unit().Scale(25))
				ev.Speed += 10
			}
			vc.obs.Inc(obspkg.CntLocalReports)
			vc.sink.emit(Event{At: now, Type: EvReportSent, Actor: vc.id, Subject: target, Info: "FALSE report"})
			outs = append(outs, Out{To: vnet.IMNode, Kind: KindIncident, Payload: IncidentReport{
				Reporter: vc.id, Suspect: target, Evidence: ev, At: now,
			}, Size: sizeIncident})
		}
	}
	if vc.mal.FalseGlobalAt > 0 && !vc.mal.sentFalseGlobal && now >= vc.mal.FalseGlobalAt {
		vc.mal.sentFalseGlobal = true
		reason := vc.mal.FalseGlobalReason
		if reason == 0 {
			reason = ReasonConflictingPlans
		}
		var seq uint64
		if h := vc.cache.Head(); h != nil {
			seq = h.Seq
		}
		vc.obs.Inc(obspkg.CntGlobalReports)
		vc.sink.emit(Event{At: now, Type: EvGlobalSent, Actor: vc.id, Info: "FALSE global report"})
		outs = append(outs, Out{To: vnet.Broadcast, Kind: KindGlobal, Payload: GlobalReport{
			Reporter: vc.id, Reason: reason, BlockSeq: seq, At: now,
		}, Size: sizeGlobal})
	}
	return outs
}
