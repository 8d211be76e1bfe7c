// Package errdrop exercises the errdrop analyzer: discarding the error
// result of a must-check call — as a bare statement, via go/defer, or by
// blanking the error position — must be flagged; checked calls must not.
package errdrop

import (
	"crypto/rsa"
	"encoding/json"
	"os"

	"nwade/internal/chain"
	"nwade/internal/eval"
	"nwade/internal/serve"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

// dropped uses must-check calls as bare statements.
func dropped(c *chain.Chain, b *chain.Block, pub *rsa.PublicKey) {
	c.Append(b)                   // want "error result of nwade/internal/chain\.Chain\.Append discarded"
	json.Marshal(b)               // want "error result of encoding/json\.Marshal discarded"
	os.WriteFile("x", nil, 0o644) // want "error result of os\.WriteFile discarded"
	chain.VerifySignature(pub, b) // want "error result of nwade/internal/chain\.VerifySignature discarded"
}

// deferred discards through defer and go statements.
func deferred(c *chain.Chain, b *chain.Block) {
	defer c.Append(b) // want "error result of nwade/internal/chain\.Chain\.Append discarded"
	go c.Prepend(b)   // want "error result of nwade/internal/chain\.Chain\.Prepend discarded"
}

// blanked sends the error position to the blank identifier.
func blanked(b *chain.Block, leaves [][]byte) {
	_, _ = chain.NewSigner(chain.DefaultKeyBits) // want "error result of nwade/internal/chain\.NewSigner assigned to _"
	_, _ = chain.MerkleRoot(leaves)              // want "error result of nwade/internal/chain\.MerkleRoot assigned to _"
	_ = json.NewEncoder(os.Stdout).Encode(b)     // want "error result of encoding/json\.Encoder\.Encode assigned to _"
}

// checked handles every error: nothing to report.
func checked(c *chain.Chain, b *chain.Block) error {
	if err := c.Append(b); err != nil {
		return err
	}
	data, err := json.Marshal(b)
	if err != nil {
		return err
	}
	return os.WriteFile("x", data, 0o644)
}

// unlisted calls are outside the must-check set even when they return
// errors; the analyzer stays silent.
func unlisted() {
	os.Remove("x")
}

// droppedSnap discards checkpoint codec errors: a torn or unread
// checkpoint must never pass silently.
func droppedSnap(spec snap.Spec, st *sim.State) {
	snap.Encode(os.Stdout, spec, st)   // want "error result of nwade/internal/snap\.Encode discarded"
	snap.WriteFile("x.snap", spec, st) // want "error result of nwade/internal/snap\.WriteFile discarded"
	_, _, _ = snap.Decode(os.Stdin)    // want "error result of nwade/internal/snap\.Decode assigned to _"
	_, _, _ = snap.ReadFile("x.snap")  // want "error result of nwade/internal/snap\.ReadFile assigned to _"
}

// checkedSnap handles every checkpoint error: nothing to report.
func checkedSnap(spec snap.Spec, st *sim.State) error {
	if err := snap.Encode(os.Stdout, spec, st); err != nil {
		return err
	}
	_, _, err := snap.ReadFile("x.snap")
	return err
}

// droppedQueue discards work-queue lease errors: a Complete whose
// ErrLeaseLost goes unread double-records a cell; a dropped Release
// leaves the cell stuck until the TTL reclaims it.
func droppedQueue(q *eval.DirQueue, l *eval.Lease) {
	q.Complete(l, nil)    // want "error result of nwade/internal/eval\.DirQueue\.Complete discarded"
	defer q.Release(l)    // want "error result of nwade/internal/eval\.DirQueue\.Release discarded"
	_ = q.Quarantine("k") // want "error result of nwade/internal/eval\.DirQueue\.Quarantine assigned to _"
}

// droppedServe discards job-record persistence errors: a lost job.json
// write is a job the next daemon start silently forgets.
func droppedServe(rec serve.JobRecord) {
	serve.WriteJob("job.json", rec)  // want "error result of nwade/internal/serve\.WriteJob discarded"
	_, _ = serve.ReadJob("job.json") // want "error result of nwade/internal/serve\.ReadJob assigned to _"
}

// checkedQueue handles every queue and job-record error.
func checkedQueue(q *eval.DirQueue, l *eval.Lease) error {
	if err := q.Complete(l, nil); err != nil {
		return err
	}
	_, err := serve.ReadJob("job.json")
	return err
}
