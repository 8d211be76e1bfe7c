package cliconf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nwade/internal/roadnet"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

// writeRun builds the scenario through the engine surface, steps it five
// ticks, and checkpoints it to a fresh file.
func writeRun(t *testing.T, network string) (Run, string) {
	t.Helper()
	f := Defaults()
	f.Network = network
	f.Duration = 2 * time.Second
	f.KeyBits = 512
	cfg, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	StepTo(r, 5*cfg.Normalize().Step)
	spec, err := snap.SpecFromScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.snap")
	if err := WriteCheckpoint(path, spec, r); err != nil {
		t.Fatal(err)
	}
	return r, path
}

// TestWriteCheckpointBytes pins WriteCheckpoint to the snap writers of
// each shape: the same run state must produce the same file bytes as
// snap.WriteFile (single) or snap.WriteNetFile (network).
func TestWriteCheckpointBytes(t *testing.T) {
	for _, network := range []string{"", "grid:2x2"} {
		r, path := writeRun(t, network)
		c, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		direct := filepath.Join(t.TempDir(), "direct.snap")
		switch r := r.(type) {
		case *sim.Engine:
			st, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.WriteFile(direct, c.Spec, st); err != nil {
				t.Fatal(err)
			}
		case *roadnet.Network:
			st, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := st.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.WriteNetFile(direct, c.Spec, raw); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(direct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("network %q: WriteCheckpoint bytes differ from the snap writer's", network)
		}
	}
}

// TestLoadSingleCheckpoint round-trips a single-intersection
// checkpoint through Load: the kind, clock, and signing key must come
// back.
func TestLoadSingleCheckpoint(t *testing.T) {
	r, path := writeRun(t, "")
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.State.Net != nil || len(c.State.Regions) != 1 {
		t.Error("single-intersection checkpoint loaded as a network")
	}
	if c.State.Now() != r.Now() {
		t.Errorf("Now() = %v, want %v", c.State.Now(), r.Now())
	}
	if c.Cfg.Seed != 1 || c.Cfg.Intersection != "cross4" {
		t.Errorf("rebuilt scenario drifted: %+v", c.Cfg)
	}
	signers, err := c.State.Signers()
	if err != nil || len(signers) != 1 {
		t.Fatalf("Signers() = %d, %v; want one key", len(signers), err)
	}
}

// TestLoadNetworkCheckpoint does the same for a road-network
// checkpoint: Load must detect the envelope kind and decode the full
// network state, signers included (one per region).
func TestLoadNetworkCheckpoint(t *testing.T) {
	r, path := writeRun(t, "grid:2x2")
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.State.Net == nil {
		t.Fatal("network checkpoint not detected as network")
	}
	if c.State.Now() != r.Now() {
		t.Errorf("Now() = %v, want %v", c.State.Now(), r.Now())
	}
	signers, err := c.State.Signers()
	if err != nil || len(signers) != 4 {
		t.Fatalf("Signers() = %d, %v; want one per region", len(signers), err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("Load of a missing file must error")
	}
}

// TestLoadRejectsDamagedFiles feeds Load a truncated file and a
// wrong-magic file of both kinds, and a network file whose region 1 is
// null: each must fail with an error, not panic or resume a partial
// state.
func TestLoadRejectsDamagedFiles(t *testing.T) {
	for _, network := range []string{"", "grid:2x2"} {
		_, path := writeRun(t, network)
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damaged := map[string][]byte{
			"truncated":   good[:len(good)/2],
			"wrong magic": bytes.Replace(good, []byte(snap.Magic), []byte("NWADE-SNAQ"), 1),
		}
		if network != "" {
			damaged["null region"] = nullRegion(t, path)
		}
		for name, data := range damaged {
			bad := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(bad); err == nil {
				t.Errorf("network %q, %s file: Load succeeded, want error", network, name)
			}
		}
	}
}

// TestLoadRejectsUnknownLayout pins the refusal of a checkpoint whose
// spec names an unknown layout, with the engine's message.
func TestLoadRejectsUnknownLayout(t *testing.T) {
	_, path := writeRun(t, "")
	spec, st, err := snap.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec.Intersection = "hexagon"
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := snap.WriteFile(bad, spec, st); err != nil {
		t.Fatal(err)
	}
	const want = `snap: sim: unknown intersection layout "hexagon" (want one of [cfi4 cross4 ddi4 irregular5 roundabout3])`
	if _, err := Load(bad); err == nil || err.Error() != want {
		t.Fatalf("Load: err = %v, want %q", err, want)
	}
}

// nullRegion returns the bytes of the network checkpoint at path with
// its region 1 state replaced by null.
func nullRegion(t *testing.T, path string) []byte {
	t.Helper()
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c.State.Net.Regions[1] = nil
	raw, err := c.State.Net.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.EncodeNet(&buf, c.Spec, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStateRoundTrip checks the bisector's state operations on both
// shapes: a clone digests equal to its source, a perturbation changes
// exactly the targeted subsystem, and Advance lands on the asked tick.
func TestStateRoundTrip(t *testing.T) {
	for _, tc := range []struct{ network, perturb, key string }{
		{"", "protocol", "protocol"},
		{"grid:2x2", "r1/protocol", "r1/protocol"},
		{"grid:2x2", "traffic", "r0/traffic"},
	} {
		_, path := writeRun(t, tc.network)
		c, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.State.Digests()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(c.State.Subsystems()) {
			t.Errorf("%q: %d digests for %d subsystems", tc.network, len(want), len(c.State.Subsystems()))
		}
		clone, err := c.State.Clone()
		if err != nil {
			t.Fatal(err)
		}
		fn, err := c.State.Perturbation(tc.perturb)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(clone); err != nil {
			t.Fatal(err)
		}
		got, err := clone.Digests()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range c.State.Subsystems() {
			if changed := got[k] != want[k]; changed != (k == tc.key) {
				t.Errorf("%q perturb %s: subsystem %s changed=%v", tc.network, tc.perturb, k, changed)
			}
		}
		next := c.State.Now() + c.Cfg.Step
		adv, err := c.State.Advance(c.Cfg, next)
		if err != nil {
			t.Fatal(err)
		}
		if adv.Now() != next {
			t.Errorf("%q: Advance to %v reached %v", tc.network, next, adv.Now())
		}
	}
	_, path := writeRun(t, "")
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"backbone", "frob", "r1/protocol"} {
		if _, err := c.State.Perturbation(sub); err == nil {
			t.Errorf("single intersection accepted perturbation %q", sub)
		}
	}
}
