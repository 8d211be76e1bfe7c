package chain

import "crypto/rsa"

// Verdicts is one intersection's table of blocks whose signature and
// Merkle root passed verification under its public key. Every receiver
// of a broadcast block reaches the same verdict on those two checks, so
// the simulation engine runs them once per block and the vehicles'
// chain views read the result; the rest of Algorithm 1 (the link to the
// vehicle's own head and the plan-conflict checks) stays per vehicle.
//
// A table is written only by Verify and read only by Passed. The caller
// orders the two: the engine writes before it hands deliveries to the
// handlers and never while they run, so concurrent handlers read a table
// no one is writing.
type Verdicts struct {
	pub *rsa.PublicKey
	// passed maps each block that passed to its HashBlock at the time.
	passed map[*Block]Hash
}

// NewVerdicts returns an empty table for blocks signed with pub's key.
func NewVerdicts(pub *rsa.PublicKey) *Verdicts {
	return &Verdicts{pub: pub, passed: make(map[*Block]Hash)}
}

// Verify checks b's signature and Merkle root and, when both hold,
// records b as passed. A failure is never recorded: it drops any earlier
// record of b, so every receiver checks such a block in full.
func (v *Verdicts) Verify(b *Block) error {
	err := VerifySignature(v.pub, b)
	if err == nil {
		err = VerifyRoot(b)
	}
	if err != nil {
		delete(v.passed, b)
		return err
	}
	v.passed[b] = b.HashBlock()
	return nil
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
// verifies blocks with the table's key and skips the signature and root
// checks of blocks the table passed.
func (v *Verdicts) NewChain(maxLen int) *Chain {
	return &Chain{pub: v.pub, verdicts: v, MaxLen: maxLen}
}
