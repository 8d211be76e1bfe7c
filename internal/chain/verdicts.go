package chain

import "crypto/rsa"

// Verdicts is one intersection's table of blocks whose signature and
// Merkle root passed verification under its public key. Every receiver
// of a broadcast block reaches the same verdict on those two checks, so
// the vehicles' chain views share one table: the first view whose
// CheckContent passes a block records it, and the others skip both
// checks. The rest of Algorithm 1 (the link to the vehicle's own head
// and the plan-conflict checks) stays per vehicle.
type Verdicts struct {
	pub *rsa.PublicKey
	// passed maps each block that passed to its HashBlock at the time.
	passed map[*Block]Hash
}

// NewVerdicts returns an empty table for blocks signed with pub's key.
func NewVerdicts(pub *rsa.PublicKey) *Verdicts {
	return &Verdicts{pub: pub, passed: make(map[*Block]Hash)}
}

// Passed reports whether b is a block the table passed, unchanged since:
// the same *Block with the same HashBlock, which covers the header, the
// Merkle root and the signature. Any other copy, however identical, is
// not passed. The plans are not rehashed: a block is immutable once
// broadcast. A nil table passes nothing.
func (v *Verdicts) Passed(b *Block) bool {
	if v == nil {
		return false
	}
	h, ok := v.passed[b]
	return ok && h == b.HashBlock()
}

// NewChain returns an empty chain view of at most maxLen blocks that
// verifies blocks with the table's key, skips the signature and root
// checks of blocks the table passed, and records the blocks it passes.
func (v *Verdicts) NewChain(maxLen int) *Chain {
	return &Chain{pub: v.pub, verdicts: v, MaxLen: maxLen}
}
