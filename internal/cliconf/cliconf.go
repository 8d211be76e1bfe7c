// Package cliconf is the shared scenario and engine surface of the NWADE
// front ends: one set of flags that resolves to a sim.Scenario, one Run
// interface over a lone intersection and a road network, and one
// checkpoint loader for both file kinds. nwade-sim, nwade-replay and
// nwade-serve build, resume and checkpoint their runs exclusively
// through this package, so a scenario means the same thing everywhere.
package cliconf

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"nwade/internal/attack"
	"nwade/internal/intersection"
	"nwade/internal/sim"
	"nwade/internal/vnet"
)

// Flags holds the parsed values of the shared scenario flags. Resolve
// them into a sim.Scenario with Build after flag parsing.
type Flags struct {
	Network      string
	Intersection string
	Density      float64
	Duration     time.Duration
	Seed         int64
	AttackName   string
	AttackAt     time.Duration
	AttackRegion int
	NWADE        bool
	KeyBits      int
	Faults       string
	Retrans      bool
	TickWorkers  int
}

// Defaults returns the flag values every tool starts from. Register
// installs exactly these as flag defaults; non-flag front ends (the
// nwade-serve JSON API) overlay submissions onto the same struct, so a
// field a client omits means what an unset flag means.
func Defaults() Flags {
	return Flags{
		Intersection: "cross4",
		Density:      80,
		Duration:     60 * time.Second,
		Seed:         1,
		AttackName:   "benign",
		AttackAt:     25 * time.Second,
		NWADE:        true,
		KeyBits:      1024,
		TickWorkers:  1,
	}
}

// Register installs the shared scenario flags on a flag set and returns
// the struct they parse into.
func Register(fs *flag.FlagSet) *Flags {
	d := Defaults()
	f := &Flags{}
	fs.StringVar(&f.Network, "network", d.Network, `road network: "grid:RxC" or "corridor:N" (empty = single intersection)`)
	fs.StringVar(&f.Intersection, "intersection", d.Intersection,
		"layout: "+strings.Join(intersection.KindNameList(), ", ")+"; with -network also \"mix\"")
	fs.Float64Var(&f.Density, "density", d.Density, "arrival rate in vehicles per minute (paper: 20-120)")
	fs.DurationVar(&f.Duration, "duration", d.Duration, "simulated time span")
	fs.Int64Var(&f.Seed, "seed", d.Seed, "random seed (runs are deterministic per seed)")
	fs.StringVar(&f.AttackName, "scenario", d.AttackName, "attack setting: benign, V1, V2, V3, V5, V10, IM, IM_V1..IM_V10")
	fs.DurationVar(&f.AttackAt, "attack-at", d.AttackAt, "when the compromise activates")
	fs.IntVar(&f.AttackRegion, "attack-region", d.AttackRegion, "region index mounting the attack (network runs only)")
	fs.BoolVar(&f.NWADE, "nwade", d.NWADE, "enable the NWADE mechanism (false = plain AIM baseline)")
	fs.IntVar(&f.KeyBits, "keybits", d.KeyBits, "IM signing key size (paper: 2048)")
	fs.StringVar(&f.Faults, "faults", d.Faults, "network fault profile ("+strings.Join(vnet.FaultProfileNames(), ", ")+")")
	fs.BoolVar(&f.Retrans, "retrans", d.Retrans, "enable the protocol retransmission layer (pair with -faults)")
	fs.IntVar(&f.TickWorkers, "tick-workers", d.TickWorkers,
		"region worker pool of a -network run (results are bit-identical for any value)")
	return f
}

// Build resolves the parsed flags into a scenario. The result carries
// names, not instances: sim.New or roadnet.New instantiate the layout
// and scheduler, so the same value round-trips through checkpoint specs.
func (f *Flags) Build() (sim.Scenario, error) {
	sc, ok := attack.ByName(f.AttackName, f.AttackAt)
	if !ok {
		return sim.Scenario{}, fmt.Errorf("unknown scenario %q", f.AttackName)
	}
	fc, err := vnet.ParseFaultProfile(f.Faults)
	if err != nil {
		return sim.Scenario{}, err
	}
	cfg := sim.Scenario{
		Network:      f.Network,
		Intersection: f.Intersection,
		Duration:     f.Duration,
		RatePerMin:   f.Density,
		Seed:         f.Seed,
		Attack:       sc,
		AttackRegion: f.AttackRegion,
		NWADE:        f.NWADE,
		KeyBits:      f.KeyBits,
		Resilience:   f.Retrans,
		Workers:      f.TickWorkers,
	}
	cfg.Net.Faults = fc
	if cfg.IsNetwork() {
		rows, cols, err := cfg.NetworkDims()
		if err != nil {
			return sim.Scenario{}, err
		}
		if f.AttackRegion < 0 || f.AttackRegion >= rows*cols {
			return sim.Scenario{}, fmt.Errorf("attack region %d out of range [0,%d)", f.AttackRegion, rows*cols)
		}
	} else {
		if f.AttackRegion != 0 {
			return sim.Scenario{}, fmt.Errorf("-attack-region needs -network")
		}
		if f.TickWorkers > 1 {
			return sim.Scenario{}, fmt.Errorf("-tick-workers needs -network")
		}
		if f.Intersection == "mix" {
			return sim.Scenario{}, fmt.Errorf(`layout "mix" needs -network`)
		}
		if _, err := cfg.LayoutKind(); err != nil {
			return sim.Scenario{}, err
		}
	}
	return cfg, nil
}
