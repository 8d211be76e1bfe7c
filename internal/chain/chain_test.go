package chain

import (
	"errors"
	"testing"
	"time"
)

func buildChain(t *testing.T, n int) (*Signer, []*Block) {
	t.Helper()
	s := sharedSigner(t)
	var blocks []*Block
	var prev *Block
	for i := 0; i < n; i++ {
		b, err := Package(s, prev, time.Duration(i+1)*time.Second, testPlans(3, time.Duration(i+1)*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = b
	}
	return s, blocks
}

func TestChainAppendVerifies(t *testing.T) {
	s, blocks := buildChain(t, 4)
	c := NewChain(s.Public(), 0)
	for _, b := range blocks {
		if err := c.Append(b); err != nil {
			t.Fatalf("Append(%d): %v", b.Seq, err)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Head().Seq != 3 {
		t.Errorf("Head.Seq = %d", c.Head().Seq)
	}
}

func TestChainRejectsTamperedBlock(t *testing.T) {
	s, blocks := buildChain(t, 2)
	c := NewChain(s.Public(), 0)
	if err := c.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	tampered := *blocks[1]
	tampered.Timestamp += time.Second
	if err := c.Append(&tampered); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered block: %v", err)
	}
}

func TestChainRejectsOutOfOrder(t *testing.T) {
	s, blocks := buildChain(t, 3)
	c := NewChain(s.Public(), 0)
	if err := c.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(blocks[2]); !errors.Is(err, ErrBadSeq) {
		t.Errorf("skipping a block: %v", err)
	}
}

func TestChainMidStreamJoin(t *testing.T) {
	s, blocks := buildChain(t, 5)
	// A vehicle arriving late starts its cache at block 3.
	c := NewChain(s.Public(), 0)
	if err := c.Append(blocks[3]); err != nil {
		t.Fatalf("mid-stream first block: %v", err)
	}
	if err := c.Append(blocks[4]); err != nil {
		t.Fatalf("next block: %v", err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestChainPruneKeepsWindow(t *testing.T) {
	s, blocks := buildChain(t, 6)
	c := NewChain(s.Public(), 3)
	for _, b := range blocks {
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (pruned)", c.Len())
	}
	if c.Blocks()[0].Seq != 3 {
		t.Errorf("oldest cached = %d, want 3", c.Blocks()[0].Seq)
	}
	// Appending after pruning still links correctly.
	next, err := Package(s, blocks[5], 7*time.Second, testPlans(2, 7*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(next); err != nil {
		t.Errorf("append after prune: %v", err)
	}
}

func TestChainBySeq(t *testing.T) {
	s, blocks := buildChain(t, 3)
	c := NewChain(s.Public(), 0)
	for _, b := range blocks {
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := c.BySeq(1); err != nil || b.Seq != 1 {
		t.Errorf("BySeq(1) = %v, %v", b, err)
	}
	if _, err := c.BySeq(9); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("BySeq(9): %v", err)
	}
}

func TestChainPlanForAndAllPlans(t *testing.T) {
	s, blocks := buildChain(t, 3)
	c := NewChain(s.Public(), 0)
	for _, b := range blocks {
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	p, b, ok := c.PlanFor(2)
	if !ok || p.Vehicle != 2 {
		t.Fatalf("PlanFor(2) = %v, %v", p, ok)
	}
	// testPlans reuses vehicle IDs per block, so the newest block wins.
	if b.Seq != 2 {
		t.Errorf("PlanFor returned block %d, want newest (2)", b.Seq)
	}
	all := c.AllPlans()
	// 3 unique vehicle IDs across all blocks.
	if len(all) != 3 {
		t.Errorf("AllPlans = %d plans, want 3 deduplicated", len(all))
	}
	for _, p := range all {
		if p.Issued != 3*time.Second {
			t.Errorf("AllPlans returned stale plan issued at %v", p.Issued)
		}
	}
	if _, _, ok := c.PlanFor(99); ok {
		t.Error("PlanFor(99) found a plan")
	}
}

func TestChainEmptyAccessors(t *testing.T) {
	s := sharedSigner(t)
	c := NewChain(s.Public(), 0)
	if c.Head() != nil {
		t.Error("empty Head != nil")
	}
	if c.Len() != 0 {
		t.Error("empty Len != 0")
	}
	if _, _, ok := c.PlanFor(1); ok {
		t.Error("empty PlanFor found a plan")
	}
}
