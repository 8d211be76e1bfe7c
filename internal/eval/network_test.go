package eval

import (
	"reflect"
	"testing"

	"nwade/internal/vnet"
)

// TestNetScenarioCarriesHarness pins that the network experiments run
// under the harness's fault profile and resilience switch (-faults,
// -retrans), as every single-intersection sweep does through runSpecs.
func TestNetScenarioCarriesHarness(t *testing.T) {
	faults, ok := vnet.FaultProfile("loss15")
	if !ok {
		t.Fatal("no loss15 fault profile")
	}
	cfg := Config{Faults: faults, Resilience: true}.Normalize()
	sc := netScenario(cfg, "corridor:4", cfg.BaseSeed)
	if !reflect.DeepEqual(sc.Net.Faults, faults) {
		t.Errorf("netScenario faults = %+v, want the harness profile %+v", sc.Net.Faults, faults)
	}
	if !sc.Resilience {
		t.Error("netScenario dropped the harness resilience switch")
	}
}
