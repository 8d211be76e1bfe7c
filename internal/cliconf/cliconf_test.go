package cliconf

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// buildFrom parses args through the real flag registration and resolves
// them, exercising exactly the path the CLI tools use.
func buildFrom(t *testing.T, args ...string) (Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	_, err := f.Build()
	return *f, err
}

func TestBuildDefaultsResolve(t *testing.T) {
	if _, err := buildFrom(t); err != nil {
		t.Fatalf("default flags must build: %v", err)
	}
}

// TestRegisterMatchesDefaults pins the flag defaults to Defaults(): the
// JSON front end overlays submissions onto that struct, so a drifting
// flag default would make "omitted over HTTP" and "omitted on the
// command line" mean different scenarios.
func TestRegisterMatchesDefaults(t *testing.T) {
	got, err := buildFrom(t)
	if err != nil {
		t.Fatal(err)
	}
	if got != Defaults() {
		t.Errorf("parsed defaults %+v differ from Defaults() %+v", got, Defaults())
	}
}

func TestBuildRejectsUnknownScenario(t *testing.T) {
	_, err := buildFrom(t, "-scenario", "V99")
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("want unknown-scenario error, got %v", err)
	}
}

func TestBuildRejectsUnknownFaultProfile(t *testing.T) {
	if _, err := buildFrom(t, "-faults", "nosuchprofile"); err == nil {
		t.Fatal("want fault-profile error, got nil")
	}
}

func TestBuildRejectsMalformedNetworkSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-network", "grid"},        // missing dims
		{"-network", "grid:2"},      // missing columns
		{"-network", "grid:ax3"},    // non-numeric rows
		{"-network", "grid:0x0"},    // handled as malformed dims
		{"-network", "grid:2x-1"},   // negative
		{"-network", "corridor:"},   // missing count
		{"-network", "corridor:zz"}, // non-numeric
		{"-network", "ring:4"},      // unknown topology
		// attack region outside the grid
		{"-network", "grid:2x2", "-attack-region", "-1"},
		{"-network", "grid:2x2", "-attack-region", "4"},
		{"-network", "corridor:3", "-attack-region", "3"},
	} {
		if _, err := buildFrom(t, args...); err == nil {
			t.Errorf("network flags %q should be rejected", args)
		}
	}
}

func TestBuildAcceptsValidNetworkSpecs(t *testing.T) {
	for _, spec := range []string{"grid:2x2", "grid:2x3", "corridor:3"} {
		if _, err := buildFrom(t, "-network", spec); err != nil {
			t.Errorf("network spec %q should build: %v", spec, err)
		}
	}
}

func TestBuildRejectsAttackRegionWithoutNetwork(t *testing.T) {
	_, err := buildFrom(t, "-attack-region", "1")
	if err == nil || !strings.Contains(err.Error(), "-attack-region needs -network") {
		t.Fatalf("want attack-region error, got %v", err)
	}
}

func TestBuildRejectsTickWorkersWithoutNetwork(t *testing.T) {
	_, err := buildFrom(t, "-tick-workers", "2")
	if err == nil || !strings.Contains(err.Error(), "-tick-workers needs -network") {
		t.Fatalf("want tick-workers error, got %v", err)
	}
}

func TestBuildRejectsMixWithoutNetwork(t *testing.T) {
	_, err := buildFrom(t, "-intersection", "mix")
	if err == nil || !strings.Contains(err.Error(), `"mix" needs -network`) {
		t.Fatalf("want mix-needs-network error, got %v", err)
	}
}

func TestBuildAcceptsMixWithNetwork(t *testing.T) {
	if _, err := buildFrom(t, "-network", "grid:2x2", "-intersection", "mix"); err != nil {
		t.Fatalf("mix with a network must build: %v", err)
	}
}

func TestBuildRejectsUnknownIntersection(t *testing.T) {
	if _, err := buildFrom(t, "-intersection", "hexagon"); err == nil {
		t.Fatal("unknown layout should be rejected")
	}
}
