package chain

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nwade/internal/plan"
)

func TestVerdictsPassOnlyTheVerifiedBlock(t *testing.T) {
	s, blocks := buildChain(t, 2)
	v := NewVerdicts(s.Public())
	b := blocks[0]
	if v.Passed(b) {
		t.Fatal("empty table passed a block")
	}
	if ran, err := v.NewChain(0).CheckContent(b); !ran || err != nil {
		t.Fatalf("CheckContent(honest block) = %v, %v; want a check that passes", ran, err)
	}
	if !v.Passed(b) {
		t.Fatal("verified block not passed")
	}
	if ran, err := v.NewChain(0).CheckContent(b); ran || err != nil {
		t.Errorf("another view's CheckContent(passed block) = %v, %v; want no check", ran, err)
	}
	if cp := *b; v.Passed(&cp) {
		t.Error("an identical copy of a passed block counts as passed")
	}
	b.Sig[0] ^= 0xFF
	if v.Passed(b) {
		t.Error("a passed block whose signature changed in place is still passed")
	}
	if ran, err := v.NewChain(0).CheckContent(b); !ran || !errors.Is(err, ErrBadSignature) {
		t.Errorf("CheckContent(flipped signature) = %v, %v; want a check failing with ErrBadSignature", ran, err)
	}
	b.Sig[0] ^= 0xFF
	if (*Verdicts)(nil).Passed(b) {
		t.Error("a nil table passed a block")
	}
	for i := 0; i < 2; i++ {
		if ran, err := NewChain(s.Public(), 0).CheckContent(b); !ran || err != nil {
			t.Errorf("a view without a table: CheckContent = %v, %v; want a check that passes", ran, err)
		}
	}
}

func TestVerdictsRejectTamperedRoot(t *testing.T) {
	s, blocks := buildChain(t, 1)
	v := NewVerdicts(s.Public())
	moved := *blocks[0]
	moved.Plans = slices.Clone(moved.Plans)
	moved.Plans[0] = moved.Plans[0].Clone()
	moved.Plans[0].Waypoints[1].S += 1
	if _, err := v.NewChain(0).CheckContent(&moved); !errors.Is(err, ErrBadRoot) {
		t.Fatalf("CheckContent(moved waypoint) = %v, want ErrBadRoot", err)
	}
	if v.Passed(&moved) {
		t.Error("a block that failed its root check was recorded")
	}
}

// TestChainPrependTrustsTable checks that the back-fill path skips the
// signature and root checks only for a block the table passed.
func TestChainPrependTrustsTable(t *testing.T) {
	s, blocks := buildChain(t, 3)
	v := NewVerdicts(s.Public())
	for _, b := range blocks {
		if _, err := v.NewChain(0).CheckContent(b); err != nil {
			t.Fatal(err)
		}
	}
	c := v.NewChain(0)
	if err := c.Append(blocks[2]); err != nil {
		t.Fatal(err)
	}
	forged := *blocks[1]
	forged.Sig = slices.Clone(forged.Sig)
	forged.Sig[0] ^= 0xFF
	if err := c.Prepend(&forged); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Prepend(forged copy) = %v, want ErrBadSignature", err)
	}
	if err := c.Prepend(blocks[1]); err != nil {
		t.Errorf("Prepend(passed block) = %v", err)
	}
	if c.Len() != 2 || c.Blocks()[0] != blocks[1] {
		t.Errorf("window after back-fill = %d blocks", c.Len())
	}
}

// planForScan and allPlansScan are the linear scans of the cached blocks
// that PlanFor and AllPlans ran before the window was indexed, kept as
// the reference the index must match.
func planForScan(blocks []*Block, id plan.VehicleID) (*plan.TravelPlan, *Block, bool) {
	for i := len(blocks) - 1; i >= 0; i-- {
		if p, ok := blocks[i].PlanFor(id); ok {
			return p, blocks[i], true
		}
	}
	return nil, nil, false
}

func allPlansScan(blocks []*Block) []*plan.TravelPlan {
	seen := make(map[plan.VehicleID]bool)
	var out []*plan.TravelPlan
	for i := len(blocks) - 1; i >= 0; i-- {
		for _, p := range blocks[i].Plans {
			if seen[p.Vehicle] {
				continue
			}
			seen[p.Vehicle] = true
			out = append(out, p)
		}
	}
	return out
}

// TestChainIndexMatchesScan drives chain views through random sequences
// of Append, AppendVerified (including out-of-order and repeated blocks),
// Prepend, pruning and RestoreChain, and after every step compares
// PlanFor for every vehicle, and AllPlans, with the linear scans.
func TestChainIndexMatchesScan(t *testing.T) {
	s := sharedSigner(t)
	rng := rand.New(rand.NewSource(3))
	const nBlocks, nVehicles = 30, 12
	var blocks []*Block
	var prev *Block
	for i := 0; i < nBlocks; i++ {
		at := time.Duration(i+1) * time.Second
		plans := testPlans(1+rng.Intn(5), at)
		for _, p := range plans {
			// A small ID pool makes vehicles recur across blocks and,
			// now and then, twice in one block.
			p.Vehicle = plan.VehicleID(1 + rng.Intn(nVehicles))
		}
		b, err := Package(s, prev, at, plans)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = b
	}
	v := NewVerdicts(s.Public())
	for trial := 0; trial < 40; trial++ {
		c := v.NewChain([]int{0, 3, 5, 8}[rng.Intn(4)])
		for step := 0; step < 60; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "Append"
				next := blocks[rng.Intn(nBlocks)]
				if h := c.Head(); h != nil && int(h.Seq)+1 < nBlocks {
					next = blocks[h.Seq+1]
				}
				_ = c.Append(next)
			case r < 6:
				op = "AppendVerified"
				_ = c.AppendVerified(blocks[rng.Intn(nBlocks)])
			case r < 9:
				op = "Prepend"
				if c.Len() > 0 && c.Blocks()[0].Seq > 0 {
					_ = c.Prepend(blocks[c.Blocks()[0].Seq-1])
				}
			default:
				op = "RestoreChain"
				c = v.RestoreChain(c.Snapshot())
			}
			bs := c.Blocks()
			for id := plan.VehicleID(0); id <= nVehicles+1; id++ {
				p, b, ok := c.PlanFor(id)
				wp, wb, wok := planForScan(bs, id)
				if p != wp || b != wb || ok != wok {
					t.Fatalf("trial %d step %d (%s): PlanFor(%v) = %p, %p, %v; scan gives %p, %p, %v",
						trial, step, op, id, p, b, ok, wp, wb, wok)
				}
			}
			if got, want := c.AllPlans(), allPlansScan(bs); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d (%s): AllPlans = %v, scan gives %v", trial, step, op, got, want)
			}
		}
	}
}
