package eval

import (
	"testing"
	"time"
)

// TestRegistryContents: every experiment the CLIs expose must be
// registered, ordered, and resolvable by name.
func TestRegistryContents(t *testing.T) {
	want := []string{
		"table2", "fig4", "fig5", "fig6", "fig7", "fig8",
		"eq2", "eq3", "mixed",
		"ablation-scheduler", "ablation-sensing", "ablation-doublecheck", "ablation-loss",
		"faultsweep",
		"netevac", "netprop",
	}
	all := All()
	if len(all) != len(want) {
		names := make([]string, 0, len(all))
		for _, g := range all {
			names = append(names, g.Name)
		}
		t.Fatalf("registry has %d generators %v, want %d", len(all), names, len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("All()[%d] = %q, want %q", i, all[i].Name, name)
		}
		g, ok := Lookup(name)
		if !ok || g.Name != name {
			t.Errorf("Lookup(%q) = %+v, %v", name, g, ok)
		}
		if all[i].Meta.Desc == "" {
			t.Errorf("%q has no description", name)
		}
		if all[i].Fn == nil {
			t.Errorf("%q has no function", name)
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

func TestRegistryGroups(t *testing.T) {
	groups := Groups()
	if len(groups) != 2 || groups[0] != "ablations" || groups[1] != "network" {
		t.Fatalf("Groups() = %v, want [ablations network]", groups)
	}
	count := func(group string) int {
		var n int
		for _, g := range All() {
			if g.Meta.Group == group {
				n++
			}
		}
		return n
	}
	if n := count("ablations"); n != 4 {
		t.Errorf("ablations group has %d members, want 4", n)
	}
	if n := count("network"); n != 2 {
		t.Errorf("network group has %d members, want 2 (netevac, netprop)", n)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("table2", Meta{}, func(Config) (Result, error) { return nil, nil })
}

// TestMinDurationFloor: Generator.Run floors short durations, passes
// longer ones through, and leaves floor-less generators alone.
func TestMinDurationFloor(t *testing.T) {
	var seen time.Duration
	g := Generator{Name: "probe", Meta: Meta{MinDuration: 90 * time.Second},
		Fn: func(cfg Config) (Result, error) { seen = cfg.Duration; return nil, nil }}
	if _, err := g.Run(Config{Duration: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if seen != 90*time.Second {
		t.Errorf("short duration floored to %v, want 90s", seen)
	}
	if _, err := g.Run(Config{Duration: 120 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if seen != 120*time.Second {
		t.Errorf("long duration became %v, want 120s untouched", seen)
	}
	g.Meta.MinDuration = 0
	if _, err := g.Run(Config{Duration: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if seen != 30*time.Second {
		t.Errorf("floor-less duration became %v, want 30s", seen)
	}
}

// TestEqGeneratorsRunInstantly: the analytic curves must work through the
// registry without a simulator.
func TestEqGeneratorsRunInstantly(t *testing.T) {
	for _, name := range []string{"eq2", "eq3"} {
		g, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		res, err := g.Run(Config{})
		if err != nil || res == nil {
			t.Fatalf("%s: %v, %v", name, res, err)
		}
		if res.String() == "" {
			t.Errorf("%s rendered empty", name)
		}
	}
}
