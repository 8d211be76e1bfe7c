// The engine surface: one interface over both run shapes, so the front
// ends drive a lone intersection and a road network through the same
// calls. The single-vs-network branch lives here — in New, Snapshot,
// WriteCheckpoint, Load and the State methods — and nowhere in the
// tools.
package cliconf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"nwade/internal/chain"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/roadnet"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

// Run is a live simulation of either shape. *sim.Engine and
// *roadnet.Network implement it directly.
type Run interface {
	// Step advances one tick.
	Step()
	// Now is the simulated clock.
	Now() time.Duration
	// Digest fingerprints the run so far: metrics.Digest for a lone
	// intersection, the network digest for a road network.
	Digest() string
	// Results summarises each region's run so far (one entry for a lone
	// intersection).
	Results() []metrics.RunResult
}

// New builds the run a scenario describes. signers, when non-nil, are
// the per-region signing keys (one for a lone intersection); sink may be
// nil.
func New(cfg sim.Scenario, signers []*chain.Signer, sink *obs.Sink) (Run, error) {
	if cfg.IsNetwork() {
		n, err := roadnet.New(cfg, roadnet.WithSigners(signers), roadnet.WithObs(sink))
		if err != nil {
			return nil, err
		}
		return n, nil
	}
	opts := []sim.Option{sim.WithObs(sink)}
	if len(signers) > 0 {
		opts = append(opts, sim.WithSigner(signers[0]))
	}
	e, err := sim.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// StepTo steps r until its clock reaches t.
func StepTo(r Run, t time.Duration) {
	for r.Now() < t {
		r.Step()
	}
}

// State is a run's complete state at one tick boundary: one sim.State
// per region, plus — for a road network — the whole network state,
// whose Regions are the same slice. Net is nil for a lone intersection.
type State struct {
	Regions []*sim.State
	Net     *roadnet.State
}

// Snapshot captures r's complete state. Call it only between Steps.
func Snapshot(r Run) (*State, error) {
	switch r := r.(type) {
	case *sim.Engine:
		st, err := r.Snapshot()
		if err != nil {
			return nil, err
		}
		return &State{Regions: []*sim.State{st}}, nil
	case *roadnet.Network:
		st, err := r.Snapshot()
		if err != nil {
			return nil, err
		}
		return &State{Regions: st.Regions, Net: st}, nil
	default:
		return nil, fmt.Errorf("cliconf: cannot snapshot %T", r)
	}
}

// WriteCheckpoint snapshots r and writes it to path in the on-disk form
// of its shape: snap.WriteFile for a lone intersection, snap.WriteNetFile
// for a road network.
func WriteCheckpoint(path string, spec snap.Spec, r Run) error {
	st, err := Snapshot(r)
	if err != nil {
		return err
	}
	if st.Net == nil {
		return snap.WriteFile(path, spec, st.Regions[0])
	}
	raw, err := st.Net.Encode()
	if err != nil {
		return err
	}
	return snap.WriteNetFile(path, spec, raw)
}

// Resume rebuilds a run from a state taken under cfg; sink may be nil.
func (s *State) Resume(cfg sim.Scenario, sink *obs.Sink) (Run, error) {
	if s.Net != nil {
		n, err := roadnet.Restore(cfg, s.Net, roadnet.WithObs(sink))
		if err != nil {
			return nil, err
		}
		return n, nil
	}
	e, err := sim.Restore(cfg, s.Regions[0], sim.WithObs(sink))
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Now is the simulated time the state was taken at.
func (s *State) Now() time.Duration {
	if s.Net != nil {
		return s.Net.Now
	}
	return s.Regions[0].Engine.Now
}

// Advance resumes the state under cfg, steps to tick t, and snapshots.
func (s *State) Advance(cfg sim.Scenario, t time.Duration) (*State, error) {
	r, err := s.Resume(cfg, nil)
	if err != nil {
		return nil, err
	}
	StepTo(r, t)
	return Snapshot(r)
}

// Clone deep-copies the state.
func (s *State) Clone() (*State, error) {
	if s.Net != nil {
		b, err := s.Net.Encode()
		if err != nil {
			return nil, fmt.Errorf("clone: %w", err)
		}
		ns, err := roadnet.DecodeState(b)
		if err != nil {
			return nil, fmt.Errorf("clone: %w", err)
		}
		return &State{Regions: ns.Regions, Net: ns}, nil
	}
	b, err := json.Marshal(s.Regions[0])
	if err != nil {
		return nil, fmt.Errorf("clone: %w", err)
	}
	st := &sim.State{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("clone: %w", err)
	}
	return &State{Regions: []*sim.State{st}}, nil
}

// Signers restores the state's signing keys, one per region.
func (s *State) Signers() ([]*chain.Signer, error) {
	out := make([]*chain.Signer, len(s.Regions))
	for i, st := range s.Regions {
		signer, err := chain.RestoreSigner(st.Protocol.Signer)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", i, err)
		}
		out[i] = signer
	}
	return out, nil
}

// key names region i's subsystem sub: the bare snap.Subsystems name for
// a lone intersection, region-qualified ("r3/protocol") for a network.
func (s *State) key(i int, sub string) string {
	if s.Net == nil {
		return sub
	}
	return fmt.Sprintf("r%d/%s", i, sub)
}

// Subsystems lists the digest keys of Digests, in report order: the
// snap.Subsystems of every region, then "backbone" for a network.
func (s *State) Subsystems() []string {
	var out []string
	for i := range s.Regions {
		for _, sub := range snap.Subsystems {
			out = append(out, s.key(i, sub))
		}
	}
	if s.Net != nil {
		out = append(out, "backbone")
	}
	return out
}

// Digests fingerprints every subsystem of the state, keyed as in
// Subsystems. The backbone digest covers the cross-region state: inter-IM
// messages in flight, suspect and head tables, and the handoff counters.
func (s *State) Digests() (map[string]string, error) {
	out := make(map[string]string, len(s.Regions)*len(snap.Subsystems)+1)
	for i, rs := range s.Regions {
		per, _, err := snap.Digests(rs)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", i, err)
		}
		for sub, d := range per {
			out[s.key(i, sub)] = d
		}
	}
	if s.Net != nil {
		cross := struct {
			Backbone any
			Tables   any
			Stats    roadnet.Stats
		}{s.Net.Backbone, s.Net.Tables, s.Net.Stats}
		b, err := json.Marshal(cross)
		if err != nil {
			return nil, fmt.Errorf("backbone digest: %w", err)
		}
		sum := sha256.Sum256(b)
		out["backbone"] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// Perturbation returns a mutation that injects a deliberate divergence
// into one subsystem of a state shaped like s — the bisector's
// self-test. sub is a snap.Subsystems name; on a network it may carry a
// region prefix ("r3/engine", default r0) or name the "backbone".
func (s *State) Perturbation(sub string) (func(*State) error, error) {
	if sub == "backbone" && s.Net != nil {
		return func(st *State) error {
			if len(st.Net.Backbone.Queue) == 0 {
				return fmt.Errorf("no queued backbone delivery to perturb at %v", st.Net.Now)
			}
			st.Net.Backbone.Queue[0].Deliver += 100 * time.Millisecond
			return nil
		}, nil
	}
	region := 0
	if rest, ok := strings.CutPrefix(sub, "r"); ok {
		if rs, subsys, ok := strings.Cut(rest, "/"); ok {
			var err error
			if region, err = strconv.Atoi(rs); err != nil {
				return nil, fmt.Errorf("perturb region in %q: %w", sub, err)
			}
			sub = subsys
		}
	}
	if region < 0 || region >= len(s.Regions) {
		return nil, fmt.Errorf("perturb region %d out of range [0,%d)", region, len(s.Regions))
	}
	fn, err := perturbRegion(sub)
	if err != nil {
		return nil, err
	}
	return func(st *State) error { return fn(st.Regions[region]) }, nil
}

// perturbRegion returns the mutation of one region subsystem.
func perturbRegion(sub string) (func(*sim.State) error, error) {
	switch sub {
	case "engine":
		return func(st *sim.State) error {
			for i := range st.Engine.Bodies {
				if !st.Engine.Bodies[i].Exited {
					st.Engine.Bodies[i].S += 0.5
					return nil
				}
			}
			return fmt.Errorf("no live body to perturb at %v", st.Engine.Now)
		}, nil
	case "traffic":
		return func(st *sim.State) error {
			st.Traffic.NextAt += 100 * time.Millisecond
			return nil
		}, nil
	case "net":
		return func(st *sim.State) error {
			if len(st.Net.Queue) == 0 {
				return fmt.Errorf("no queued delivery to perturb at %v", st.Engine.Now)
			}
			st.Net.Queue[0].Deliver += 100 * time.Millisecond
			return nil
		}, nil
	case "protocol":
		return func(st *sim.State) error {
			st.Protocol.IM.Nonce++
			return nil
		}, nil
	case "collector":
		return func(st *sim.State) error {
			st.Collector.Events = append(st.Collector.Events,
				nwade.Event{At: st.Engine.Now, Type: nwade.EvBlockBroadcast, Info: "perturbed"})
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown subsystem %q (want one of %s)",
			sub, strings.Join(snap.Subsystems, ", "))
	}
}

// Checkpoint is a loaded checkpoint file: the spec, the scenario it
// rebuilds, and the state.
type Checkpoint struct {
	Spec  snap.Spec
	Cfg   sim.Scenario
	State *State
}

// Load reads a checkpoint of either kind, in one decoding pass, and
// rebuilds its scenario. A network checkpoint with a null region entry
// is rejected here, before any front end dereferences it.
func Load(path string) (*Checkpoint, error) {
	spec, st, raw, err := snap.ReadAnyFile(path)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{Spec: spec, State: &State{Regions: []*sim.State{st}}}
	if raw != nil {
		ns, err := roadnet.DecodeState(raw)
		if err != nil {
			return nil, err
		}
		for i, rs := range ns.Regions {
			if rs == nil {
				return nil, fmt.Errorf("cliconf: %s: region %d has no state", path, i)
			}
		}
		c.State = &State{Regions: ns.Regions, Net: ns}
	}
	c.Cfg, err = spec.Scenario()
	if err != nil {
		return nil, err
	}
	return c, nil
}
