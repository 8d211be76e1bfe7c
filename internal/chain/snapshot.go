// Checkpoint support: plain-data state mirrors for the signer and the
// chain view. Blocks are immutable value types with only exported fields,
// so they serialize directly; the signer's RSA key round-trips through
// its PKCS#1 DER form, which preserves the exact key (and therefore the
// exact deterministic PKCS#1 v1.5 signatures) across a restore.
package chain

import (
	"crypto/x509"
	"fmt"
)

// SignerState is a serializable snapshot of a Signer.
type SignerState struct {
	// KeyDER is the PKCS#1 DER encoding of the private key.
	KeyDER []byte
}

// Snapshot captures the signer's key.
func (s *Signer) Snapshot() SignerState {
	return SignerState{KeyDER: x509.MarshalPKCS1PrivateKey(s.key)}
}

// RestoreSigner rebuilds a signer from a snapshot. The restored signer
// produces signatures bit-identical to the original's.
func RestoreSigner(st SignerState) (*Signer, error) {
	key, err := x509.ParsePKCS1PrivateKey(st.KeyDER)
	if err != nil {
		return nil, fmt.Errorf("chain: restore signer: %w", err)
	}
	key.Precompute()
	return &Signer{key: key}, nil
}

// ChainState is a serializable snapshot of a chain view. Blocks are
// stored by value; restored views hold fresh copies, which is sound
// because blocks are immutable and compared by content, never identity.
type ChainState struct {
	Blocks []Block
	MaxLen int
}

// Snapshot captures the cached window.
func (c *Chain) Snapshot() ChainState {
	st := ChainState{MaxLen: c.MaxLen, Blocks: make([]Block, len(c.blocks))}
	for i, b := range c.blocks {
		st.Blocks[i] = *b
	}
	return st
}

// RestoreChain rebuilds a chain view that reads the table from a
// snapshot without re-verifying the blocks: they were verified before
// the snapshot was taken, and the restore path must not consume
// verification side effects twice. The restored blocks are fresh copies,
// which the table has not passed.
func (v *Verdicts) RestoreChain(st ChainState) *Chain {
	c := v.NewChain(st.MaxLen)
	c.blocks = make([]*Block, len(st.Blocks))
	for i := range st.Blocks {
		b := st.Blocks[i]
		c.blocks[i] = &b
		c.indexNewest(i)
	}
	return c
}
