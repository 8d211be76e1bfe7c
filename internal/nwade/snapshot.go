// Checkpoint support for the protocol cores. Everything mutable in the
// IM and vehicle cores is mirrored into exported plain-data state
// structs: the verification workflow, the resilience machinery (holdback
// buffer, re-request backoff schedules, pending retransmissions), the
// chain caches, the malice one-shot flags, and both automata. Injected
// collaborators (intersection, signer, scheduler, sinks) are not state:
// a restore rebuilds a core with the same constructor arguments and then
// rewinds it with RestoreState.
//
// This file also owns the payload codec for `any`-typed message payloads
// (vnet.Message.Payload, Out.Payload): every type a core ever puts on
// the wire is enumerated here, tagged with a stable name, and round-
// tripped through JSON.
package nwade

import (
	"encoding/json"
	"fmt"
	"time"

	"nwade/internal/chain"
	"nwade/internal/ordered"
	"nwade/internal/plan"
	"nwade/internal/sched"
	"nwade/internal/vnet"
)

// --- Payload codec ----------------------------------------------------

// EncodePayload serializes a message payload into a self-describing
// envelope. Every payload type the protocol cores emit is supported; an
// unknown type is an error so a new message kind cannot silently produce
// unrestorable checkpoints.
func EncodePayload(v any) (vnet.PayloadEnvelope, error) {
	if v == nil {
		return vnet.PayloadEnvelope{}, nil
	}
	name, ok := payloadName(v)
	if !ok {
		return vnet.PayloadEnvelope{}, fmt.Errorf("nwade: unencodable payload type %T", v)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return vnet.PayloadEnvelope{}, fmt.Errorf("nwade: encode payload %s: %w", name, err)
	}
	return vnet.PayloadEnvelope{Type: name, Data: data}, nil
}

// DecodePayload rebuilds a payload value from its envelope.
func DecodePayload(env vnet.PayloadEnvelope) (any, error) {
	if env.Type == "" {
		return nil, nil
	}
	mk, ok := payloadDecoders[env.Type]
	if !ok {
		return nil, fmt.Errorf("nwade: unknown payload type %q", env.Type)
	}
	v, err := mk(env.Data)
	if err != nil {
		return nil, fmt.Errorf("nwade: decode payload %s: %w", env.Type, err)
	}
	return v, nil
}

// payloadName tags a payload value with its stable wire name.
func payloadName(v any) (string, bool) {
	switch v.(type) {
	case RequestMsg:
		return "request", true
	case BlockMsg:
		return "block", true
	case BlockReqMsg:
		return "block-req", true
	case BlockRespMsg:
		return "block-resp", true
	case IncidentReport:
		return "incident", true
	case VerifyRequest:
		return "verify-req", true
	case VerifyResponse:
		return "verify-resp", true
	case DismissMsg:
		return "dismiss", true
	case EvacuationAlert:
		return "evacuation", true
	case GlobalReport:
		return "global", true
	}
	return "", false
}

// decodeAs unmarshals into T and returns the value (not a pointer), so
// restored payloads have the same dynamic type the cores transmitted.
func decodeAs[T any](data json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

var payloadDecoders = map[string]func(json.RawMessage) (any, error){
	"request":     decodeAs[RequestMsg],
	"block":       decodeAs[BlockMsg],
	"block-req":   decodeAs[BlockReqMsg],
	"block-resp":  decodeAs[BlockRespMsg],
	"incident":    decodeAs[IncidentReport],
	"verify-req":  decodeAs[VerifyRequest],
	"verify-resp": decodeAs[VerifyResponse],
	"dismiss":     decodeAs[DismissMsg],
	"evacuation":  decodeAs[EvacuationAlert],
	"global":      decodeAs[GlobalReport],
}

// --- Shared state mirrors ---------------------------------------------

// RetryState mirrors one retransmission backoff schedule.
type RetryState struct {
	Next     time.Duration
	Wait     time.Duration
	Attempts int
}

func (r *retryState) snapshot() RetryState {
	return RetryState{Next: r.next, Wait: r.wait, Attempts: r.attempts}
}

func restoreRetry(st RetryState) *retryState {
	return &retryState{next: st.Next, wait: st.Wait, attempts: st.Attempts}
}

// HeldBlockState mirrors one ahead-of-sequence block in the holdback
// buffer.
type HeldBlockState struct {
	Block      chain.Block
	Evacuation bool
}

// OutState mirrors a stored outbound message (the IM's head re-broadcast
// buffer), with its payload in envelope form.
type OutState struct {
	To      vnet.NodeID
	Kind    string
	Payload vnet.PayloadEnvelope
	Size    int
}

// RequestState mirrors sched.Request with the route by ID.
type RequestState struct {
	Vehicle  plan.VehicleID
	Char     plan.Characteristics
	RouteID  int
	ArriveAt time.Duration
	Speed    float64
	CurrentS float64
}

// VerificationState mirrors one in-flight report verification.
type VerificationState struct {
	Nonce          uint64
	Suspect        plan.VehicleID
	Reporter       plan.VehicleID
	ExtraReporters []plan.VehicleID
	Evidence       plan.Status
	Round          int
	Deadline       time.Duration
	Asked          map[plan.VehicleID]bool
	AskedEver      map[plan.VehicleID]bool
	Votes          map[plan.VehicleID]VerifyResponse
	Triggered      bool
}

// VehicleMaliceFlags are the one-shot fired markers of a compromised
// vehicle; the rest of VehicleMalice is configuration re-derived from
// the attack scenario on restore.
type VehicleMaliceFlags struct {
	SentFalseReport bool
	SentFalseGlobal bool
}

// --- IMCore -----------------------------------------------------------

// IMCoreState is a serializable snapshot of an IMCore.
type IMCoreState struct {
	Auto           int
	Blocks         []chain.Block
	Ledger         []plan.TravelPlan
	Pending        map[plan.VehicleID]RequestState
	LastBatch      time.Duration
	LastCast       *OutState
	LastCastAt     time.Duration
	Nonce          uint64
	Verifs         map[uint64]VerificationState
	Strikes        map[plan.VehicleID]int
	Suspects       map[plan.VehicleID]SuspectInfo
	Visible        map[plan.VehicleID]plan.Status
	LastSeen       map[plan.VehicleID]time.Duration
	EvacAt         time.Duration
	Gone           map[plan.VehicleID]bool
	Watching       map[plan.VehicleID]int
	UnplannedSince map[plan.VehicleID]time.Duration
	LastHazardSync time.Duration
	// MaliceFired is IMMalice.firedFalseEvac; meaningful only when the
	// core was built with a malice configuration.
	MaliceFired bool
}

// Snapshot captures the manager core's complete mutable state. All maps
// and slices are deep-copied, so the snapshot stays stable while the
// core keeps running.
func (im *IMCore) Snapshot() (IMCoreState, error) {
	st := IMCoreState{
		Auto:           int(im.auto.State()),
		Blocks:         make([]chain.Block, len(im.blocks)),
		Ledger:         im.ledger.Snapshot(),
		Pending:        make(map[plan.VehicleID]RequestState, len(im.pending)),
		LastBatch:      im.lastBatch,
		LastCastAt:     im.lastCastAt,
		Nonce:          im.nonce,
		Verifs:         make(map[uint64]VerificationState, len(im.verifs)),
		Strikes:        copyMap(im.strikes),
		Suspects:       copyMap(im.suspects),
		Visible:        copyMap(im.visible),
		LastSeen:       copyMap(im.lastSeen),
		EvacAt:         im.evacAt,
		Gone:           copyMap(im.gone),
		Watching:       copyMap(im.watching),
		UnplannedSince: copyMap(im.unplannedSince),
		LastHazardSync: im.lastHazardSync,
	}
	for i, b := range im.blocks {
		st.Blocks[i] = *b
	}
	for id, r := range im.pending {
		st.Pending[id] = RequestState{
			Vehicle: r.Vehicle, Char: r.Char, RouteID: r.Route.ID,
			ArriveAt: r.ArriveAt, Speed: r.Speed, CurrentS: r.CurrentS,
		}
	}
	//lint:ignore maprange each appended slice is rebuilt from one value; nothing ordered accumulates across iterations
	for nonce, v := range im.verifs {
		st.Verifs[nonce] = VerificationState{
			Nonce:          v.nonce,
			Suspect:        v.suspect,
			Reporter:       v.reporter,
			ExtraReporters: append([]plan.VehicleID(nil), v.extraReporters...),
			Evidence:       v.evidence,
			Round:          v.round,
			Deadline:       v.deadline,
			Asked:          copyMap(v.asked),
			AskedEver:      copyMap(v.askedEver),
			Votes:          copyMap(v.votes),
			Triggered:      v.triggered,
		}
	}
	if im.lastCastMsg != nil {
		env, err := EncodePayload(im.lastCastMsg.Payload)
		if err != nil {
			return IMCoreState{}, fmt.Errorf("nwade: snapshot IM last broadcast: %w", err)
		}
		st.LastCast = &OutState{
			To: im.lastCastMsg.To, Kind: im.lastCastMsg.Kind,
			Payload: env, Size: im.lastCastMsg.Size,
		}
	}
	if im.mal != nil {
		st.MaliceFired = im.mal.firedFalseEvac
	}
	return st, nil
}

// RestoreState rewinds the core to a snapshot. The core must have been
// built with the same configuration, intersection, signer, scheduler and
// malice setting as the snapshotted one.
func (im *IMCore) RestoreState(st IMCoreState) error {
	im.auto.state = IMState(st.Auto)
	im.blocks = make([]*chain.Block, len(st.Blocks))
	for i := range st.Blocks {
		b := st.Blocks[i]
		im.blocks[i] = &b
	}
	im.ledger.RestoreState(st.Ledger)
	im.pending = make(map[plan.VehicleID]sched.Request, len(st.Pending))
	for id, r := range st.Pending {
		route, err := im.inter.Route(r.RouteID)
		if err != nil {
			return fmt.Errorf("nwade: restore IM pending %v: %w", id, err)
		}
		im.pending[id] = sched.Request{
			Vehicle: r.Vehicle, Char: r.Char, Route: route,
			ArriveAt: r.ArriveAt, Speed: r.Speed, CurrentS: r.CurrentS,
		}
	}
	im.lastBatch = st.LastBatch
	im.lastCastMsg = nil
	if st.LastCast != nil {
		payload, err := DecodePayload(st.LastCast.Payload)
		if err != nil {
			return fmt.Errorf("nwade: restore IM last broadcast: %w", err)
		}
		im.lastCastMsg = &Out{
			To: st.LastCast.To, Kind: st.LastCast.Kind,
			Payload: payload, Size: st.LastCast.Size,
		}
	}
	im.lastCastAt = st.LastCastAt
	im.nonce = st.Nonce
	im.verifs = make(map[uint64]*verification, len(st.Verifs))
	//lint:ignore maprange each appended slice is rebuilt from one value; nothing ordered accumulates across iterations
	for nonce, v := range st.Verifs {
		im.verifs[nonce] = &verification{
			nonce:          v.Nonce,
			suspect:        v.Suspect,
			reporter:       v.Reporter,
			extraReporters: append([]plan.VehicleID(nil), v.ExtraReporters...),
			evidence:       v.Evidence,
			round:          v.Round,
			deadline:       v.Deadline,
			asked:          copyMap(v.Asked),
			askedEver:      copyMap(v.AskedEver),
			votes:          copyMap(v.Votes),
			triggered:      v.Triggered,
		}
	}
	im.strikes = copyMap(st.Strikes)
	im.suspects = copyMap(st.Suspects)
	im.visible = copyMap(st.Visible)
	im.lastSeen = copyMap(st.LastSeen)
	im.evacAt = st.EvacAt
	im.gone = copyMap(st.Gone)
	im.watching = copyMap(st.Watching)
	im.unplannedSince = copyMap(st.UnplannedSince)
	im.lastHazardSync = st.LastHazardSync
	if im.mal != nil {
		im.mal.firedFalseEvac = st.MaliceFired
	}
	return nil
}

// --- VehicleCore ------------------------------------------------------

// VehicleCoreState is a serializable snapshot of a VehicleCore.
type VehicleCoreState struct {
	ID       plan.VehicleID
	Char     plan.Characteristics
	RouteID  int
	ArriveAt time.Duration
	Speed0   float64
	Auto     int
	Cache    chain.ChainState

	Requested   bool
	LastRequest time.Duration
	MyPlan      *plan.TravelPlan

	PendingSuspect plan.VehicleID
	PendingSince   time.Duration
	Cooldown       map[plan.VehicleID]time.Duration
	Dismissals     map[plan.VehicleID]int
	LastNeighbors  map[plan.VehicleID]plan.Status
	Suspicion      map[plan.VehicleID]int
	KnownSuspects  map[plan.VehicleID]bool

	GlobalIM      map[plan.VehicleID]GlobalReason
	GlobalSuspect map[plan.VehicleID]map[plan.VehicleID]bool
	PendingBlocks map[uint64]bool

	DistrustIM bool
	SelfEvac   bool
	EvacReason GlobalReason
	SentGlobal bool
	Missing    map[uint64]bool

	Held          map[uint64]HeldBlockState
	BlockRetry    map[uint64]RetryState
	PendingReport *IncidentReport
	ReportRetry   *RetryState
	GlobalOut     *GlobalReport
	GlobalRetry   *RetryState
	SeenGlobals   map[string]bool
	SeenEvacs     map[uint64]bool

	// Malice carries the one-shot fired flags when the vehicle was
	// compromised at snapshot time; nil otherwise. The malice
	// configuration itself is re-derived from the attack scenario.
	Malice *VehicleMaliceFlags
}

// Snapshot captures the vehicle core's complete mutable state, deep-
// copying every map and slice.
func (vc *VehicleCore) Snapshot() VehicleCoreState {
	st := VehicleCoreState{
		ID:             vc.id,
		Char:           vc.char,
		RouteID:        vc.route.ID,
		ArriveAt:       vc.arriveAt,
		Speed0:         vc.speed0,
		Auto:           int(vc.auto.State()),
		Cache:          vc.cache.Snapshot(),
		Requested:      vc.requested,
		LastRequest:    vc.lastRequest,
		PendingSuspect: vc.pendingSuspect,
		PendingSince:   vc.pendingSince,
		Cooldown:       copyMap(vc.cooldown),
		Dismissals:     copyMap(vc.dismissals),
		LastNeighbors:  neighborMap(vc.lastNeighbors),
		Suspicion:      copyMap(vc.suspicion),
		KnownSuspects:  copyMap(vc.knownSuspects),
		GlobalIM:       copyMap(vc.globalIM),
		GlobalSuspect:  make(map[plan.VehicleID]map[plan.VehicleID]bool, len(vc.globalSuspect)),
		PendingBlocks:  copyMap(vc.pendingBlocks),
		DistrustIM:     vc.distrustIM,
		SelfEvac:       vc.selfEvac,
		EvacReason:     vc.evacReason,
		SentGlobal:     vc.sentGlobal,
		Missing:        copyMap(vc.missing),
		Held:           make(map[uint64]HeldBlockState, len(vc.held)),
		BlockRetry:     make(map[uint64]RetryState, len(vc.blockRetry)),
		SeenGlobals:    copyMap(vc.seenGlobals),
		SeenEvacs:      copyMap(vc.seenEvacs),
	}
	for id, m := range vc.globalSuspect {
		st.GlobalSuspect[id] = copyMap(m)
	}
	if vc.myPlan != nil {
		p := *vc.myPlan
		st.MyPlan = &p
	}
	for seq, hb := range vc.held {
		st.Held[seq] = HeldBlockState{Block: *hb.b, Evacuation: hb.evacuation}
	}
	for seq, rs := range vc.blockRetry {
		st.BlockRetry[seq] = rs.snapshot()
	}
	if vc.pendingReport != nil {
		ir := *vc.pendingReport
		st.PendingReport = &ir
	}
	if vc.reportRetry != nil {
		rs := vc.reportRetry.snapshot()
		st.ReportRetry = &rs
	}
	if vc.globalOut != nil {
		gr := *vc.globalOut
		st.GlobalOut = &gr
	}
	if vc.globalRetry != nil {
		rs := vc.globalRetry.snapshot()
		st.GlobalRetry = &rs
	}
	if vc.mal != nil {
		st.Malice = &VehicleMaliceFlags{
			SentFalseReport: vc.mal.sentFalseReport,
			SentFalseGlobal: vc.mal.sentFalseGlobal,
		}
	}
	return st
}

// RestoreState rewinds the core to a snapshot. The core must have been
// built with the same identity, route, configuration and public key; when
// the snapshot carries malice flags, SetMalice must have been called
// first (the engine re-derives malice from the attack scenario).
func (vc *VehicleCore) RestoreState(st VehicleCoreState) error {
	if vc.route.ID != st.RouteID {
		return fmt.Errorf("nwade: restore %v: route %d does not match snapshot route %d",
			vc.id, vc.route.ID, st.RouteID)
	}
	vc.auto.state = VehicleState(st.Auto)
	vc.cache = vc.verdicts.RestoreChain(st.Cache)
	vc.arriveAt = st.ArriveAt
	vc.speed0 = st.Speed0
	vc.requested = st.Requested
	vc.lastRequest = st.LastRequest
	vc.myPlan = nil
	if st.MyPlan != nil {
		p := *st.MyPlan
		vc.myPlan = &p
	}
	vc.pendingSuspect = st.PendingSuspect
	vc.pendingSince = st.PendingSince
	vc.cooldown = copyMap(st.Cooldown)
	vc.dismissals = copyMap(st.Dismissals)
	vc.lastNeighbors = neighborList(st.LastNeighbors)
	vc.suspicion = copyMap(st.Suspicion)
	vc.knownSuspects = copyMap(st.KnownSuspects)
	vc.globalIM = copyMap(st.GlobalIM)
	vc.globalSuspect = make(map[plan.VehicleID]map[plan.VehicleID]bool, len(st.GlobalSuspect))
	for id, m := range st.GlobalSuspect {
		vc.globalSuspect[id] = copyMap(m)
	}
	vc.pendingBlocks = copyMap(st.PendingBlocks)
	vc.distrustIM = st.DistrustIM
	vc.selfEvac = st.SelfEvac
	vc.evacReason = st.EvacReason
	vc.sentGlobal = st.SentGlobal
	vc.missing = copyMap(st.Missing)
	vc.held = make(map[uint64]heldBlock, len(st.Held))
	for seq, hb := range st.Held {
		b := hb.Block
		vc.held[seq] = heldBlock{b: &b, evacuation: hb.Evacuation}
	}
	vc.blockRetry = make(map[uint64]*retryState, len(st.BlockRetry))
	for seq, rs := range st.BlockRetry {
		vc.blockRetry[seq] = restoreRetry(rs)
	}
	vc.pendingReport = nil
	if st.PendingReport != nil {
		ir := *st.PendingReport
		vc.pendingReport = &ir
	}
	vc.reportRetry = nil
	if st.ReportRetry != nil {
		vc.reportRetry = restoreRetry(*st.ReportRetry)
	}
	vc.globalOut = nil
	if st.GlobalOut != nil {
		gr := *st.GlobalOut
		vc.globalOut = &gr
	}
	vc.globalRetry = nil
	if st.GlobalRetry != nil {
		vc.globalRetry = restoreRetry(*st.GlobalRetry)
	}
	vc.seenGlobals = copyMap(st.SeenGlobals)
	vc.seenEvacs = copyMap(st.SeenEvacs)
	if st.Malice != nil {
		if vc.mal == nil {
			return fmt.Errorf("nwade: restore %v: snapshot has malice flags but core has no malice", vc.id)
		}
		vc.mal.sentFalseReport = st.Malice.SentFalseReport
		vc.mal.sentFalseGlobal = st.Malice.SentFalseGlobal
	}
	return nil
}

// neighborMap is the checkpoint form of a sensed neighborhood.
func neighborMap(ns []Neighbor) map[plan.VehicleID]plan.Status {
	m := make(map[plan.VehicleID]plan.Status, len(ns))
	for _, n := range ns {
		m[n.ID] = n.Status
	}
	return m
}

// neighborList restores a sensed neighborhood in ascending ID order.
func neighborList(m map[plan.VehicleID]plan.Status) []Neighbor {
	ns := make([]Neighbor, 0, len(m))
	for _, id := range ordered.Keys(m) {
		ns = append(ns, Neighbor{ID: id, Status: m[id]})
	}
	return ns
}

// copyMap shallow-copies a map (nil in, nil out).
func copyMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return nil
	}
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
