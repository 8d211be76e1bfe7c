// Package snap is the versioned on-disk checkpoint format for a
// simulation run. A checkpoint pairs a Spec — the run's configuration in
// a rebuildable, named form — with the complete mutable state at one
// tick boundary: a sim.State for a single-intersection run, or a
// roadnet network state for a multi-intersection run. The encoding is
// canonical JSON: struct fields serialize in declaration order, map keys
// sort, and every queue-like structure is serialized in a total order
// upstream (the sim snapshot layer guarantees this), so the same state
// always encodes to the same bytes and checkpoints can be compared by
// digest.
//
// The format carries a magic string and a version number. Decoding an
// unknown version fails loudly rather than misinterpreting state.
package snap

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"nwade/internal/attack"
	"nwade/internal/intersection"
	"nwade/internal/sim"
	"nwade/internal/vnet"
)

// Magic identifies a checkpoint file.
const Magic = "NWADE-SNAP"

// Version is the current encoding version. Bump it whenever the state
// layout changes incompatibly. Version 2 renamed the attack field,
// added the road-network spec knobs, and stores scenario layouts by
// name only.
const Version = 2

// Spec is a run configuration in named, serializable form: everything
// needed to rebuild the sim.Scenario a checkpoint was taken under.
// Intersections and schedulers are stored by name and rebuilt with their
// standard constructors, so a Spec only round-trips configurations
// expressible through the CLI (which is all the replay tools need).
//
//lint:checkpoint-state encode=SpecFromScenario decode=Spec.Scenario
type Spec struct {
	// Network is the road-network topology ("" for a single
	// intersection; "grid:RxC" or "corridor:N" otherwise).
	Network string `json:",omitempty"`
	// Intersection is the layout name: one of
	// intersection.KindNameList(), or "mix" in network specs (roadnet
	// cycles through the layouts).
	Intersection string
	// Scheduler is the scheduler name ("" means the default
	// reservation scheduler).
	Scheduler string

	Duration       time.Duration
	Step           time.Duration
	RatePerMin     float64
	Seed           int64
	Attack         attack.Scenario
	AttackRegion   int `json:",omitempty"`
	NWADE          bool
	LegacyFraction float64
	Resilience     bool
	KeyBits        int
	Net            vnet.Config

	// AdvisoryReports is the road-network advisory count (zero for
	// single-intersection runs; sim.Scenario.Normalize fills the
	// network default). Files written before the exchange cadence, link
	// delay and report TTL became roadnet constants also carry
	// ExchangeEvery, LinkDelay and ReportTTL; decoding ignores them.
	AdvisoryReports int `json:",omitempty"`
}

// IsNetwork reports whether the spec describes a road-network run.
func (s Spec) IsNetwork() bool { return s.Network != "" }

// SpecFromScenario captures a sim.Scenario as a Spec. It fails when the
// configuration is not expressible by name: a hand-built intersection or
// a customized scheduler.
func SpecFromScenario(cfg sim.Scenario) (Spec, error) {
	cfg = cfg.Normalize()
	interName := cfg.Intersection
	if cfg.Inter != nil {
		interName = intersection.KindName(cfg.Inter.Kind)
		if interName == "" {
			return Spec{}, fmt.Errorf("snap: intersection kind %v has no CLI name; checkpoint specs only cover the standard layouts", cfg.Inter.Kind)
		}
	}
	schedName := cfg.Sched
	if cfg.Scheduler != nil {
		schedName = cfg.Scheduler.Name()
	}
	if _, err := (sim.Scenario{Sched: schedName}).BuildScheduler(nil); err != nil {
		return Spec{}, fmt.Errorf("snap: %w", err)
	}
	return Spec{
		Network:         cfg.Network,
		Intersection:    interName,
		Scheduler:       schedName,
		Duration:        cfg.Duration,
		Step:            cfg.Step,
		RatePerMin:      cfg.RatePerMin,
		Seed:            cfg.Seed,
		Attack:          cfg.Attack,
		AttackRegion:    cfg.AttackRegion,
		NWADE:           cfg.NWADE,
		LegacyFraction:  cfg.LegacyFraction,
		Resilience:      cfg.Resilience,
		KeyBits:         cfg.KeyBits,
		Net:             cfg.Net,
		AdvisoryReports: cfg.AdvisoryReports,
	}, nil
}

// Scenario rebuilds the sim.Scenario a Spec describes. The intersection
// and scheduler come back by name; sim.New (or roadnet.New for network
// specs) instantiates them.
func (s Spec) Scenario() (sim.Scenario, error) {
	cfg := sim.Scenario{
		Network:         s.Network,
		Intersection:    s.Intersection,
		Sched:           s.Scheduler,
		Duration:        s.Duration,
		Step:            s.Step,
		RatePerMin:      s.RatePerMin,
		Seed:            s.Seed,
		Attack:          s.Attack,
		AttackRegion:    s.AttackRegion,
		NWADE:           s.NWADE,
		LegacyFraction:  s.LegacyFraction,
		Resilience:      s.Resilience,
		KeyBits:         s.KeyBits,
		Net:             s.Net,
		AdvisoryReports: s.AdvisoryReports,
	}
	if !cfg.IsNetwork() && s.Intersection != "" {
		if _, err := cfg.LayoutKind(); err != nil {
			return sim.Scenario{}, fmt.Errorf("snap: %w", err)
		}
	}
	if _, err := (sim.Scenario{Sched: s.Scheduler}).BuildScheduler(nil); err != nil {
		return sim.Scenario{}, fmt.Errorf("snap: %w", err)
	}
	return cfg.Normalize(), nil
}

// envelope is the on-disk layout. Exactly one of State (single
// intersection) and Net (road network, serialized by roadnet) is set.
//
//lint:checkpoint-state encode=Encode,EncodeNet decode=Decode,DecodeNet,decodeEnvelope,ReadAnyFile
type envelope struct {
	Magic   string
	Version int
	Spec    Spec
	State   *sim.State      `json:",omitempty"`
	Net     json.RawMessage `json:",omitempty"`
}

// Encode writes a versioned single-intersection checkpoint. The output
// is canonical: the same (spec, state) pair always encodes to the same
// bytes.
func Encode(w io.Writer, spec Spec, st *sim.State) error {
	if st == nil {
		return fmt.Errorf("snap: encode: nil state")
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(envelope{Magic: Magic, Version: Version, Spec: spec, State: st}); err != nil {
		return fmt.Errorf("snap: encode: %w", err)
	}
	return nil
}

// EncodeNet writes a versioned road-network checkpoint. The network
// state is pre-serialized by the roadnet package (snap stays below
// roadnet in the dependency order) and must be canonical JSON.
func EncodeNet(w io.Writer, spec Spec, netState []byte) error {
	if len(netState) == 0 {
		return fmt.Errorf("snap: encode: empty network state")
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(envelope{Magic: Magic, Version: Version, Spec: spec, Net: netState}); err != nil {
		return fmt.Errorf("snap: encode: %w", err)
	}
	return nil
}

// decodeEnvelope reads and validates the common header.
func decodeEnvelope(r io.Reader) (envelope, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return env, fmt.Errorf("snap: decode: %w", err)
	}
	if env.Magic != Magic {
		return env, fmt.Errorf("snap: decode: bad magic %q (want %q)", env.Magic, Magic)
	}
	if env.Version != Version {
		return env, fmt.Errorf("snap: decode: unsupported version %d (have %d)", env.Version, Version)
	}
	return env, nil
}

// Decode reads a single-intersection checkpoint, rejecting wrong magic,
// wrong version, or a network checkpoint.
func Decode(r io.Reader) (Spec, *sim.State, error) {
	env, err := decodeEnvelope(r)
	if err != nil {
		return Spec{}, nil, err
	}
	if env.State == nil {
		if len(env.Net) > 0 {
			return Spec{}, nil, fmt.Errorf("snap: decode: checkpoint holds a road network (%s); use DecodeNet", env.Spec.Network)
		}
		return Spec{}, nil, fmt.Errorf("snap: decode: checkpoint has no state")
	}
	return env.Spec, env.State, nil
}

// DecodeNet reads a road-network checkpoint and returns the raw network
// state for roadnet to deserialize. Single-intersection checkpoints are
// rejected.
func DecodeNet(r io.Reader) (Spec, []byte, error) {
	env, err := decodeEnvelope(r)
	if err != nil {
		return Spec{}, nil, err
	}
	if len(env.Net) == 0 {
		if env.State != nil {
			return Spec{}, nil, fmt.Errorf("snap: decode: checkpoint holds a single intersection; use Decode")
		}
		return Spec{}, nil, fmt.Errorf("snap: decode: checkpoint has no state")
	}
	return env.Spec, env.Net, nil
}

// ReadAnyFile decodes a checkpoint of either kind from path in one pass.
// Exactly one of st (a single intersection) and netState (a road
// network, for roadnet.DecodeState) is set.
func ReadAnyFile(path string) (spec Spec, st *sim.State, netState []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, nil, nil, fmt.Errorf("snap: %w", err)
	}
	defer f.Close()
	env, err := decodeEnvelope(f)
	if err != nil {
		return Spec{}, nil, nil, err
	}
	if (env.State == nil) == (len(env.Net) == 0) {
		return Spec{}, nil, nil, fmt.Errorf("snap: decode: checkpoint must hold exactly one of a single-intersection and a network state")
	}
	return env.Spec, env.State, env.Net, nil
}

// WriteFile encodes a single-intersection checkpoint to path.
func WriteFile(path string, spec Spec, st *sim.State) error {
	return writeFile(path, func(f io.Writer) error { return Encode(f, spec, st) })
}

// WriteNetFile encodes a road-network checkpoint to path.
func WriteNetFile(path string, spec Spec, netState []byte) error {
	return writeFile(path, func(f io.Writer) error { return EncodeNet(f, spec, netState) })
}

func writeFile(path string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	if err := encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	return nil
}

// ReadFile decodes a single-intersection checkpoint from path.
func ReadFile(path string) (Spec, *sim.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("snap: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// ReadNetFile decodes a road-network checkpoint from path.
func ReadNetFile(path string) (Spec, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("snap: %w", err)
	}
	defer f.Close()
	return DecodeNet(f)
}

// Subsystems are the digest keys reported by Digests, in report order.
// They mirror the sim.State sections and name who owns each slice of
// state: the physical world, the arrival process, the network, the
// protocol cores, and the metrics collector.
var Subsystems = []string{"engine", "traffic", "net", "protocol", "collector"}

// Digests hashes each subsystem section of a state separately and
// returns the per-subsystem digests plus an overall digest. Two states
// digest equal iff they serialize identically, so a digest mismatch on a
// subsystem localizes which state diverged.
func Digests(st *sim.State) (map[string]string, string, error) {
	sections := []struct {
		name string
		v    any
	}{
		{"engine", st.Engine},
		{"traffic", st.Traffic},
		{"net", st.Net},
		{"protocol", st.Protocol},
		{"collector", st.Collector},
	}
	per := make(map[string]string, len(sections))
	all := sha256.New()
	for _, s := range sections {
		b, err := json.Marshal(s.v)
		if err != nil {
			return nil, "", fmt.Errorf("snap: digest %s: %w", s.name, err)
		}
		sum := sha256.Sum256(b)
		per[s.name] = hex.EncodeToString(sum[:])
		fmt.Fprintf(all, "%s=%x\n", s.name, sum)
	}
	return per, hex.EncodeToString(all.Sum(nil)), nil
}
