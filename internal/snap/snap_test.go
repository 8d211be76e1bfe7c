package snap

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/metrics"
	"nwade/internal/sim"
)

var (
	keyOnce sync.Once
	key     *chain.Signer
)

func testSigner(t *testing.T) *chain.Signer {
	t.Helper()
	keyOnce.Do(func() {
		s, err := chain.NewSigner(1024)
		if err != nil {
			t.Fatalf("NewSigner: %v", err)
		}
		key = s
	})
	return key
}

func refConfig(t *testing.T) sim.Scenario {
	t.Helper()
	inter, err := intersection.Build(intersection.KindCross4, intersection.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := attack.ByName("V1", 10*time.Second)
	if !ok {
		t.Fatal("scenario V1 missing")
	}
	return sim.Scenario{
		Inter:      inter,
		Duration:   20 * time.Second,
		RatePerMin: 80,
		Seed:       42,
		Attack:     sc,
		NWADE:      true,
		KeyBits:    1024,
	}
}

// TestEncodeDecodeRoundTrip checks the full loop: run, checkpoint to
// bytes, decode, rebuild the config from the spec, restore, and finish —
// the resumed run must digest identically to the continuous one.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := refConfig(t)
	cont, err := sim.New(cfg, sim.WithSigner(testSigner(t)))
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Digest(cont.Run())

	e, err := sim.New(cfg, sim.WithSigner(testSigner(t)))
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < 12*time.Second {
		e.Step()
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Encode(&buf, spec, st); err != nil {
		t.Fatal(err)
	}
	spec2, st2, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := spec2.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Restore(cfg2, st2)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Digest(r.Run()); got != want {
		t.Errorf("resumed digest %s != continuous %s", got, want)
	}
}

// TestEncodeIsCanonical checks byte-stability: encoding the same state
// twice, and encoding a decode of the encoding, produce identical bytes.
func TestEncodeIsCanonical(t *testing.T) {
	cfg := refConfig(t)
	e, err := sim.New(cfg, sim.WithSigner(testSigner(t)))
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < 12*time.Second {
		e.Step()
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := Encode(&a, spec, st); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, spec, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same state differ")
	}
	spec2, st2, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := Encode(&c, spec2, st2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}

	per1, all1, err := Digests(st)
	if err != nil {
		t.Fatal(err)
	}
	per2, all2, err := Digests(st2)
	if err != nil {
		t.Fatal(err)
	}
	if all1 != all2 {
		t.Errorf("overall digest changed across encode/decode: %s != %s", all1, all2)
	}
	for _, name := range Subsystems {
		if per1[name] == "" {
			t.Errorf("no digest for subsystem %q", name)
		}
		if per1[name] != per2[name] {
			t.Errorf("subsystem %q digest changed across encode/decode", name)
		}
	}
}

// TestDecodeRejectsBadEnvelope checks magic and version validation.
func TestDecodeRejectsBadEnvelope(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"garbage", "not json", "decode"},
		{"magic", `{"Magic":"OTHER","Version":1}`, "bad magic"},
		{"version", `{"Magic":"NWADE-SNAP","Version":99}`, "unsupported version"},
		{"oldversion", `{"Magic":"NWADE-SNAP","Version":1}`, "unsupported version"},
		{"nostate", `{"Magic":"NWADE-SNAP","Version":2}`, "no state"},
	} {
		_, _, err := Decode(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecWithExchangeKnobsLoads decodes a version-2 network checkpoint
// whose spec still carries ExchangeEvery, LinkDelay and ReportTTL, as
// files written before those became roadnet constants do: it loads to
// the scenario of the same spec without them.
func TestSpecWithExchangeKnobsLoads(t *testing.T) {
	sc, ok := attack.ByName("V3", 10*time.Second)
	if !ok {
		t.Fatal("scenario V3 missing")
	}
	spec, err := SpecFromScenario(sim.Scenario{Network: "grid:2x2", Intersection: "mix",
		Duration: 40 * time.Second, Seed: 7, Attack: sc, AttackRegion: 1, NWADE: true, KeyBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const advisory = `"AdvisoryReports":1`
	old := strings.Replace(string(raw), advisory,
		`"ExchangeEvery":1000000000,"LinkDelay":2000000000,"ReportTTL":2,`+advisory, 1)
	if old == string(raw) {
		t.Fatalf("spec %s has no %s field", raw, advisory)
	}
	got, _, err := DecodeNet(strings.NewReader(`{"Magic":"NWADE-SNAP","Version":2,"Spec":` + old + `,"Net":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := got.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("spec with the old fields loads to\n%+v\nwant\n%+v", cfg, want)
	}
}

// TestSpecRoundTrip checks Spec <-> sim.Scenario fidelity for named
// layouts and schedulers, and rejection of unnameable configs.
func TestSpecRoundTrip(t *testing.T) {
	cfg := refConfig(t)
	cfg.Resilience = true
	spec, err := SpecFromScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Intersection != "cross4" {
		t.Errorf("intersection name %q, want cross4", spec.Intersection)
	}
	got, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if got.Intersection != "cross4" || got.Duration != cfg.Duration.Round(0) ||
		got.Seed != cfg.Seed || got.Attack != cfg.Attack || !got.Resilience {
		t.Errorf("rebuilt config differs: %+v", got)
	}
	// The rebuilt scenario carries names, not instances; sim.New
	// instantiates them.
	inter, err := got.BuildInter()
	if err != nil || inter.Kind != cfg.Inter.Kind {
		t.Errorf("rebuilt intersection %v (%v), want kind %v", inter, err, cfg.Inter.Kind)
	}
	schedr, err := got.BuildScheduler(inter)
	if err != nil || schedr.Name() != "reservation" {
		t.Errorf("rebuilt scheduler %v (%v), want reservation", schedr, err)
	}

	// An empty scenario names the default layout after normalization.
	emptySpec, err := SpecFromScenario(sim.Scenario{})
	if err != nil || emptySpec.Intersection != "cross4" {
		t.Errorf("SpecFromScenario(zero) = %+v (%v), want cross4 default", emptySpec, err)
	}
	if _, err := (Spec{Intersection: "nope"}).Scenario(); err == nil {
		t.Error("BuildConfig accepted an unknown layout name")
	}
	if _, err := (Spec{Intersection: "cross4", Scheduler: "nope"}).Scenario(); err == nil {
		t.Error("BuildConfig accepted an unknown scheduler name")
	}

	names := intersection.KindNameList()
	if len(names) != 5 {
		t.Errorf("KindNameList() = %v, want 5 layouts", names)
	}
	for _, name := range names {
		kind, ok := intersection.KindByName(name)
		if !ok || intersection.KindName(kind) != name {
			t.Errorf("KindName round-trip failed for %q", name)
		}
	}
}
