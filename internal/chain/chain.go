package chain

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"slices"

	"nwade/internal/plan"
)

// Chain is a vehicle- or manager-side view of the travel-plan blockchain.
// Vehicles keep at most MaxLen blocks — the paper's τ/δ bound: crossing
// time over the batch window — and prune older ones as they go.
type Chain struct {
	pub *rsa.PublicKey
	// verdicts, when set, vouches for the signature and Merkle root of
	// the blocks it passed and records the ones this view passes
	// (Verdicts.NewChain); nil means every block is checked in full.
	verdicts *Verdicts
	blocks   []*Block
	// ids and newest index each vehicle's newest plan in the window:
	// ids is sorted, and newest[i] locates the plan of vehicle ids[i].
	// Every change to the window updates them.
	ids    []plan.VehicleID
	newest []planRef
	// MaxLen bounds the number of cached blocks; 0 means unbounded
	// (the intersection manager keeps everything).
	MaxLen int
}

// planRef locates a plan in the window: Plans[plan] of blocks[block].
// Two int32s keep the per-vehicle index entry small.
type planRef struct {
	block, plan int32
}

// NewChain creates an empty chain view that verifies incoming blocks with
// the given public key.
func NewChain(pub *rsa.PublicKey, maxLen int) *Chain {
	return &Chain{pub: pub, MaxLen: maxLen}
}

// ErrUnknownBlock is returned when a requested block is not cached.
var ErrUnknownBlock = errors.New("chain: block not in cache")

// ErrCacheFull is returned by Prepend when the cache window is exhausted.
var ErrCacheFull = errors.New("chain: cache full")

// Len returns the number of cached blocks.
func (c *Chain) Len() int { return len(c.blocks) }

// Head returns the most recent block, or nil when empty.
func (c *Chain) Head() *Block {
	if len(c.blocks) == 0 {
		return nil
	}
	return c.blocks[len(c.blocks)-1]
}

// Blocks returns the cached blocks oldest-first. The returned slice is a
// copy; the blocks themselves are shared and must be treated as
// immutable.
func (c *Chain) Blocks() []*Block {
	out := make([]*Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// BySeq returns the cached block with the given sequence number.
func (c *Chain) BySeq(seq uint64) (*Block, error) {
	for _, b := range c.blocks {
		if b.Seq == seq {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: seq %d", ErrUnknownBlock, seq)
}

// CheckContent checks b's signature and Merkle root (Algorithm 1 step
// i and the root check) unless the chain's verdict table passed b. A
// pass is recorded in the table, so the other chain views reading it
// skip both checks; a failure is not, so each view checks such a block
// itself and reaches its own rejection. ran reports whether the checks
// ran.
func (c *Chain) CheckContent(b *Block) (ran bool, err error) {
	if c.verdicts.Passed(b) {
		return false, nil
	}
	if err := VerifySignature(c.pub, b); err != nil {
		return true, err
	}
	if err := VerifyRoot(b); err != nil {
		return true, err
	}
	if c.verdicts != nil {
		c.verdicts.passed[b] = b.HashBlock()
	}
	return true, nil
}

// Append verifies a block against the chain and appends it: signature,
// Merkle root (CheckContent), and linkage to the current head (Algorithm
// 1 steps i and iii; the plan-conflict step lives in the nwade package
// because it needs the intersection's conflict table). A gap in sequence
// numbers after pruning is accepted when the vehicle has pruned the
// predecessor.
func (c *Chain) Append(b *Block) error {
	if _, err := c.CheckContent(b); err != nil {
		return err
	}
	head := c.Head()
	if head != nil || b.Seq == 0 {
		if head != nil && b.Seq != head.Seq+1 {
			return fmt.Errorf("%w: got %d after %d", ErrBadSeq, b.Seq, head.Seq)
		}
		if err := VerifyLink(head, b); err != nil {
			return err
		}
	}
	// A vehicle that arrives mid-stream accepts its first block without
	// a predecessor (head == nil, b.Seq > 0): it cannot check linkage
	// until the next block arrives.
	c.push(b)
	return nil
}

// AppendVerified appends a block whose signature, Merkle root, and link
// to the current head the caller has itself just verified — Algorithm 1
// runs exactly those checks before appending, and repeating the RSA
// signature verification here would double the per-block crypto cost.
// Only the genesis-link case (first block of a fresh cache), which the
// caller cannot have checked against a nil head, is re-examined. Use
// Append for blocks that arrive unchecked.
func (c *Chain) AppendVerified(b *Block) error {
	if c.Head() == nil && b.Seq == 0 {
		if err := VerifyLink(nil, b); err != nil {
			return err
		}
	}
	c.push(b)
	return nil
}

// Prepend verifies a block that precedes the oldest cached block and
// inserts it at the front. Vehicles that join mid-stream use this to
// back-fill the plans of vehicles that entered earlier: the forward link
// (b.HashBlock() == oldest.PrevHash) proves the fetched block is the
// authentic predecessor even when it came from an untrusted peer. The
// signature and root go through CheckContent.
func (c *Chain) Prepend(b *Block) error {
	if _, err := c.CheckContent(b); err != nil {
		return err
	}
	if len(c.blocks) > 0 {
		if err := VerifyLink(b, c.blocks[0]); err != nil {
			return err
		}
		if c.MaxLen > 0 && len(c.blocks) >= c.MaxLen {
			return fmt.Errorf("%w: %d blocks", ErrCacheFull, c.MaxLen)
		}
	}
	c.blocks = append(c.blocks, nil)
	copy(c.blocks[1:], c.blocks)
	c.blocks[0] = b
	for k := range c.newest {
		c.newest[k].block++
	}
	// Every indexed plan is newer than b's, so b only adds vehicles the
	// window did not hold.
	for j, p := range b.Plans {
		if i, found := slices.BinarySearch(c.ids, p.Vehicle); !found {
			c.insertRef(i, p.Vehicle, planRef{0, int32(j)})
		}
	}
	return nil
}

// push appends a block as the newest in the window, indexes its plans
// and prunes the window to MaxLen.
func (c *Chain) push(b *Block) {
	c.blocks = append(c.blocks, b)
	c.indexNewest(len(c.blocks) - 1)
	c.prune()
}

// indexNewest indexes the plans of blocks[pos], which is newer than every
// block indexed so far: its plans supersede theirs, and within the block
// a vehicle's first plan wins.
func (c *Chain) indexNewest(pos int) {
	for j, p := range c.blocks[pos].Plans {
		ref := planRef{int32(pos), int32(j)}
		i, found := slices.BinarySearch(c.ids, p.Vehicle)
		switch {
		case !found:
			c.insertRef(i, p.Vehicle, ref)
		case int(c.newest[i].block) != pos:
			c.newest[i] = ref
		}
	}
}

// insertRef inserts an index entry at position i of the sorted ids.
func (c *Chain) insertRef(i int, id plan.VehicleID, ref planRef) {
	c.ids = slices.Insert(c.ids, i, id)
	c.newest = slices.Insert(c.newest, i, ref)
}

// prune drops the oldest blocks beyond MaxLen, and the index entries of
// the vehicles whose newest plan they held.
func (c *Chain) prune() {
	if c.MaxLen <= 0 || len(c.blocks) <= c.MaxLen {
		return
	}
	drop := len(c.blocks) - c.MaxLen
	n := copy(c.blocks, c.blocks[drop:])
	clear(c.blocks[n:])
	c.blocks = c.blocks[:n]
	kept := 0
	for i, ref := range c.newest {
		if int(ref.block) < drop {
			continue
		}
		ref.block -= int32(drop)
		c.ids[kept], c.newest[kept] = c.ids[i], ref
		kept++
	}
	c.ids, c.newest = c.ids[:kept], c.newest[:kept]
}

// PlanFor returns the given vehicle's newest plan in the cached window
// (reissued plans win) and the block holding it.
func (c *Chain) PlanFor(id plan.VehicleID) (*plan.TravelPlan, *Block, bool) {
	i, found := slices.BinarySearch(c.ids, id)
	if !found {
		return nil, nil, false
	}
	ref := c.newest[i]
	b := c.blocks[ref.block]
	return b.Plans[ref.plan], b, true
}

// AllPlans returns every plan in the cached window, newest block first.
// When a vehicle appears in several blocks only its newest plan is
// returned, matching "the latest plan supersedes". The caller owns the
// returned slice.
func (c *Chain) AllPlans() []*plan.TravelPlan {
	out := make([]*plan.TravelPlan, 0, len(c.ids))
	for pos := len(c.blocks) - 1; pos >= 0; pos-- {
		for j, p := range c.blocks[pos].Plans {
			i, _ := slices.BinarySearch(c.ids, p.Vehicle)
			if c.newest[i] == (planRef{int32(pos), int32(j)}) {
				out = append(out, p)
			}
		}
	}
	return out
}
