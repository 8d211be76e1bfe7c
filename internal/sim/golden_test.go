package sim

import (
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/vnet"
)

// goldenMatrix holds the digests of the tick-path matrix below, keyed
// "layout/arm". A change that alters any run's behaviour — who spawns,
// what is sensed, which plans are issued, verified, watched or reported —
// changes its digest. Performance work on the tick must leave every entry
// unchanged; a deliberate behaviour change re-records the table and says
// why.
var goldenMatrix = map[string]string{
	"cfi4/benign":                   "e98c5d8bf87e8b1d2db4772858ec3713aaf01790483d0aabef6f84bf35051d37",
	"cfi4/V5":                       "9b2bd8ab25ddd831bff0c48cf707bc1905bcb96546b59a2d1a7ad169bfa33e63",
	"cfi4/IM_V5":                    "ada8edf8ce00cd9026737095e7dd5883f641f4b301e66c2dfe40c40ea3e30c42",
	"cfi4/legacy20":                 "fe4cb0a6439971857dbb1b417f4194713af4001a09a2b1eab88068609aeaf2a6",
	"cfi4/V5-loss15-retrans":        "383bb5be8f7d9a36e8a607b8629a056de89c9ae39eeeac69fc688f233652aa16",
	"cross4/benign":                 "1a8226c17ccf41d5faae166e0137055dbf456ec94ca4a350d775fdd7c91e37b1",
	"cross4/V5":                     "d79f70f43c5b9e35e206a753cf1095037d9324e066dfec75315e3f1da326f893",
	"cross4/IM_V5":                  "3d0944de9e6023414f723bfbb8572d753d50282d09c6a8f15d3da6b5f916d492",
	"cross4/legacy20":               "439ed8049507738a7c6b6691004b3b939524bb7f77ee976de16617f3e2a03a73",
	"cross4/V5-loss15-retrans":      "b20c826d615ff96f746f511f03b0dd0b6e66b38dfe8fd03adb85e14cc332dea0",
	"ddi4/benign":                   "1192fb01b6a3943d1e1773798be7b17b96d6b2a47c6297b021fdcb8678c9df5e",
	"ddi4/V5":                       "89af4d916a7ad7681992f6489f883dfdcfe0d1c284f4200c573dbea7274dbf19",
	"ddi4/IM_V5":                    "d4645b558c1054bd5d0733e21edb77a9b50db08255d86a9ca473cf4b307c02f3",
	"ddi4/legacy20":                 "bcf3ca207e44ebf4bfdbe777d3d20e64fcf5016c4fd0a1ddea17c5db91087aec",
	"ddi4/V5-loss15-retrans":        "6e9c7be5d7ac033e48b1bfed3687a7bf477540b22428d70924b3edf84b4d72fb",
	"irregular5/benign":             "2b51d661337606b550ecf8779b11dc1ba1b3c8f0714ded9c56d87a518f7ddc1c",
	"irregular5/V5":                 "45f04d4af5ed7b66d8674bfdc0fa279d3b34a357a37d315e586d6ac84786752d",
	"irregular5/IM_V5":              "18e464dab54a00a886ca91fc4e34221dd06e59b94ce1280908ff93cd5fe05639",
	"irregular5/legacy20":           "b265ff79a01ce366da568771d3ca0a3b44657dfc79805271a265b202324dd9c0",
	"irregular5/V5-loss15-retrans":  "7b2471132e6387660df4d30b2cb6394f26ac6e7e302396855291faf7304789cf",
	"roundabout3/benign":            "9d63df349c1e0d39c65c4c54b0ea620f5abb4b819e06d4ff8e84bd532d732c51",
	"roundabout3/V5":                "e0e387d8f53ea476d3580390876b966f2140a1ddec01f29d52e4aaf6c7e5469b",
	"roundabout3/IM_V5":             "c7ea11d92f2948b00cbaea00239685d358b6584273a76e063774ba92c001fde5",
	"roundabout3/legacy20":          "3ed756a0e0c9213f8d9a9483ec787e07e81469b0c12a60efad79e7e639790006",
	"roundabout3/V5-loss15-retrans": "dc614d2f9e2905c8fb6b72fbb053916e510a565db489799e44cf44307142a4af",
}

// goldenArms are the matrix's columns: a benign run, a vehicle attack, a
// compromised-IM attack, mixed legacy traffic, and a vehicle attack on a
// lossy network with the retransmission layer on.
var goldenArms = []struct {
	name  string
	apply func(t *testing.T, sc *Scenario)
}{
	{"benign", func(*testing.T, *Scenario) {}},
	{"V5", func(t *testing.T, sc *Scenario) { sc.Attack = goldenAttack(t, "V5") }},
	{"IM_V5", func(t *testing.T, sc *Scenario) { sc.Attack = goldenAttack(t, "IM_V5") }},
	{"legacy20", func(_ *testing.T, sc *Scenario) { sc.LegacyFraction = 0.2 }},
	{"V5-loss15-retrans", func(t *testing.T, sc *Scenario) {
		sc.Attack = goldenAttack(t, "V5")
		fc, ok := vnet.FaultProfile("loss15")
		if !ok {
			t.Fatal("unknown fault profile loss15")
		}
		sc.Net.Faults = fc
		sc.Resilience = true
	}},
}

// goldenAttack resolves a named attack setting activating at 10 s.
func goldenAttack(t *testing.T, name string) attack.Scenario {
	t.Helper()
	sc, ok := attack.ByName(name, 10*time.Second)
	if !ok {
		t.Fatalf("unknown scenario %s", name)
	}
	return sc
}

// TestGoldenDigestMatrix pins the tick path on every layout: each of the
// five layouts runs each arm for 30 s at 120 veh/min, seed 3. The runs
// share one 1024-bit signer (digests do not cover signatures) and each
// layout is built once.
func TestGoldenDigestMatrix(t *testing.T) {
	signer, err := chain.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range intersection.KindNameList() {
		kind, _ := intersection.KindByName(layout)
		inter, err := intersection.Build(kind, intersection.Config{})
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		for _, arm := range goldenArms {
			key := layout + "/" + arm.name
			sc := Scenario{
				Inter:      inter,
				Duration:   30 * time.Second,
				RatePerMin: 120,
				Seed:       3,
				NWADE:      true,
				KeyBits:    1024,
			}
			arm.apply(t, &sc)
			e, err := New(sc, WithSigner(signer))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := e.Run()
			if d := runDigest(t, got); d != goldenMatrix[key] {
				t.Errorf("%s: digest %s, want %s", key, d, goldenMatrix[key])
			}
		}
	}
}
