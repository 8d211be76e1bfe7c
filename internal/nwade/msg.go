package nwade

import (
	"time"

	"nwade/internal/chain"
	"nwade/internal/plan"
	"nwade/internal/vnet"
)

// Message kinds on the VANET. The network-load experiment (Fig. 7)
// aggregates packets by these kinds.
const (
	KindRequest    = "request"     // vehicle -> IM: scheduling request
	KindBlock      = "block"       // IM broadcast: new travel-plan block
	KindBlockReq   = "block-req"   // vehicle broadcast: request a missed block
	KindBlockResp  = "block-resp"  // peer/IM -> vehicle: block retrieval response
	KindIncident   = "incident"    // vehicle -> IM: incident report (Algorithm 2)
	KindVerifyReq  = "verify-req"  // IM -> vehicle: local-verification request
	KindVerifyResp = "verify-resp" // vehicle -> IM: verification verdict
	KindDismiss    = "dismiss"     // IM -> reporter: alarm dismissed
	KindEvacuation = "evacuation"  // IM broadcast: evacuation alert + plans
	KindGlobal     = "global"      // vehicle broadcast: global report (Algorithm 3)
)

// Out is an outbound message produced by a protocol core; the caller
// (simulation engine or test) puts it on the network.
type Out struct {
	To      vnet.NodeID // vnet.Broadcast for broadcasts
	Kind    string
	Payload any
	Size    int
}

// RequestMsg asks the intersection manager for a travel plan.
type RequestMsg struct {
	Vehicle  plan.VehicleID
	Char     plan.Characteristics
	RouteID  int
	ArriveAt time.Duration
	Speed    float64
	CurrentS float64
}

// BlockMsg carries a newly packaged block (regular or evacuation).
type BlockMsg struct {
	Block *chain.Block
}

// BlockReqMsg requests a cached block from peers after packet loss, or
// from vehicles ahead during local/global verification.
type BlockReqMsg struct {
	Requester plan.VehicleID
	Seq       uint64
}

// BlockRespMsg answers a BlockReqMsg.
type BlockRespMsg struct {
	Block *chain.Block
}

// IncidentReport is the paper's IR = ⟨E, B_y⟩: sensed evidence about a
// suspect plus the sequence of the block holding the suspect's plan.
type IncidentReport struct {
	Reporter plan.VehicleID
	Suspect  plan.VehicleID
	Evidence plan.Status // the reporter's sensor observation of the suspect
	BlockSeq uint64
	At       time.Duration
}

// VerifyRequest asks a vehicle near the suspect for its own observation.
type VerifyRequest struct {
	Suspect plan.VehicleID
	Nonce   uint64
}

// VerifyResponse returns a voter's verdict. Visible=false means the
// voter cannot currently observe the suspect; such votes are abstentions
// and carry no weight in the majority.
type VerifyResponse struct {
	Voter    plan.VehicleID
	Suspect  plan.VehicleID
	Nonce    uint64
	Visible  bool
	Abnormal bool
	Observed plan.Status
}

// DismissMsg tells the reporter its alarm was judged false (or, with
// Benign=false, acknowledges a confirmed threat).
type DismissMsg struct {
	Reporter plan.VehicleID
	Suspect  plan.VehicleID
	Benign   bool // true: suspect cleared, alarm dismissed
}

// SuspectInfo carries a confirmed attacker's identifiable features and
// last known status, so vehicles can recognise and avoid it.
type SuspectInfo struct {
	Vehicle  plan.VehicleID
	Char     plan.Characteristics
	LastSeen plan.Status
}

// EvacuationAlert is the IM's evacuation broadcast: the suspects and a
// block of regenerated travel plans (packaged in the chain like regular
// plans, per Section IV-B5).
type EvacuationAlert struct {
	Suspects []SuspectInfo
	Block    *chain.Block
}

// GlobalReason classifies global reports (Algorithm 3 distinguishes
// conflicting-plan claims from abnormal-vehicle claims).
type GlobalReason int

// Global report reasons.
const (
	// ReasonBadBlock: a block failed signature/root/link verification.
	ReasonBadBlock GlobalReason = iota + 1
	// ReasonConflictingPlans: a block contains plans that collide.
	ReasonConflictingPlans
	// ReasonIMUnresponsive: the IM ignored an incident report.
	ReasonIMUnresponsive
	// ReasonAbnormalVehicle: a suspect is misbehaving and the IM is not
	// acting.
	ReasonAbnormalVehicle
	// ReasonFalseAccusation: the IM broadcast an evacuation against a
	// vehicle that local observation shows to be behaving normally.
	ReasonFalseAccusation
)

// String implements fmt.Stringer.
func (r GlobalReason) String() string {
	switch r {
	case ReasonBadBlock:
		return "bad-block"
	case ReasonConflictingPlans:
		return "conflicting-plans"
	case ReasonIMUnresponsive:
		return "im-unresponsive"
	case ReasonAbnormalVehicle:
		return "abnormal-vehicle"
	case ReasonFalseAccusation:
		return "false-accusation"
	default:
		return "unknown"
	}
}

// GlobalReport warns all vehicles that the IM may be compromised or that
// a suspect is loose with no IM response.
type GlobalReport struct {
	Reporter plan.VehicleID
	Reason   GlobalReason
	BlockSeq uint64         // offending block, when applicable
	Suspect  plan.VehicleID // offending vehicle, when applicable
	At       time.Duration
}

// GlobalBroadcast wraps a report in its broadcast output, sized like the
// vehicle-originated form. Roadnet gateways use it to replay a
// cross-intersection report into a region's VANET.
func GlobalBroadcast(r GlobalReport) Out {
	return Out{To: vnet.Broadcast, Kind: KindGlobal, Payload: r, Size: sizeGlobal}
}

// Approximate on-wire sizes (bytes) for the network-load experiment.
const (
	sizeRequest    = 96
	sizeBlockBase  = 304 // header + 2048-bit signature
	sizePerPlan    = 160
	sizeIncident   = 120
	sizeVerifyReq  = 48
	sizeVerifyResp = 96
	sizeDismiss    = 32
	sizeGlobal     = 64
	sizeBlockReq   = 24
)

// SizeOfBlock estimates a block's wire size.
func SizeOfBlock(b *chain.Block) int {
	if b == nil {
		return sizeBlockBase
	}
	return sizeBlockBase + sizePerPlan*len(b.Plans)
}
