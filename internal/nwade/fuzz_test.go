package nwade

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"nwade/internal/chain"
	"nwade/internal/plan"
)

// Fields FuzzVerifyBlock can alter. The fuzzer's field byte selects one
// modulo fuzzFields.
const (
	fuzzSeq = iota
	fuzzPrevHash
	fuzzTimestamp
	fuzzRoot
	fuzzSig
	fuzzSigLen
	fuzzWaypointT
	fuzzWaypointS
	fuzzWaypointV
	fuzzPlanOrder
	fuzzPlanCount
	fuzzFields
)

// fuzzChain is a signed two-block chain over scheduled plans: the
// receivers hold genesis, and next is the valid block the fuzzer alters.
type fuzzChain struct {
	signer        *chain.Signer
	chk           *plan.ConflictChecker
	genesis, next *chain.Block
}

func newFuzzChain(t testing.TB) *fuzzChain {
	s, in := fixtures(t)
	plans := scheduledPlans(t, 5)
	genesis, err := chain.Package(s, nil, time.Second, plans[:2])
	if err != nil {
		t.Fatal(err)
	}
	next, err := chain.Package(s, genesis, 2*time.Second, plans[2:])
	if err != nil {
		t.Fatal(err)
	}
	return &fuzzChain{signer: s, chk: &plan.ConflictChecker{Inter: in}, genesis: genesis, next: next}
}

// receiver returns a chain view over verdicts that holds genesis.
func (fc *fuzzChain) receiver(t *testing.T, verdicts *chain.Verdicts) *chain.Chain {
	c := verdicts.NewChain(0)
	if err := VerifyBlock(c, fc.chk, fc.genesis, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

// alter returns a copy of b with one field changed: field selects the
// field, index the byte, plan or waypoint, and value the new content.
// The copy shares nothing mutable with b.
func alter(b *chain.Block, field uint8, index uint16, value uint64) *chain.Block {
	cp := *b
	cp.Sig = slices.Clone(b.Sig)
	cp.Plans = slices.Clone(b.Plans)
	i := int(index)
	switch field % fuzzFields {
	case fuzzSeq:
		cp.Seq = value
	case fuzzPrevHash:
		cp.PrevHash[i%len(cp.PrevHash)] = byte(value)
	case fuzzTimestamp:
		cp.Timestamp = time.Duration(value)
	case fuzzRoot:
		cp.Root[i%len(cp.Root)] = byte(value)
	case fuzzSig:
		cp.Sig[i%len(cp.Sig)] = byte(value)
	case fuzzSigLen:
		cp.Sig = cp.Sig[:int(value%uint64(len(cp.Sig)+1))]
	case fuzzWaypointT, fuzzWaypointS, fuzzWaypointV:
		k := i % len(cp.Plans)
		p := cp.Plans[k].Clone()
		w := &p.Waypoints[(i/len(cp.Plans))%len(p.Waypoints)]
		switch field % fuzzFields {
		case fuzzWaypointT:
			w.T = time.Duration(value)
		case fuzzWaypointS:
			w.S = math.Float64frombits(value)
		default:
			w.V = math.Float64frombits(value)
		}
		cp.Plans[k] = p
	case fuzzPlanOrder:
		j, k := i%len(cp.Plans), int(value%uint64(len(cp.Plans)))
		cp.Plans[j], cp.Plans[k] = cp.Plans[k], cp.Plans[j]
	case fuzzPlanCount:
		n := int(value % uint64(2*len(cp.Plans)+1))
		if n <= len(cp.Plans) {
			cp.Plans = cp.Plans[:n]
		} else {
			cp.Plans = append(cp.Plans, cp.Plans[:n-len(cp.Plans)]...)
		}
	}
	return &cp
}

// sameEncoding reports whether a's header, signature and plan encodings
// equal b's.
func sameEncoding(a, b *chain.Block) bool {
	if a.Seq != b.Seq || a.PrevHash != b.PrevHash || a.Timestamp != b.Timestamp || a.Root != b.Root ||
		!bytes.Equal(a.Sig, b.Sig) || len(a.Plans) != len(b.Plans) {
		return false
	}
	for i := range a.Plans {
		if !bytes.Equal(a.Plans[i].Encode(), b.Plans[i].Encode()) {
			return false
		}
	}
	return true
}

// FuzzVerifyBlock alters one field of a valid signed block — a header
// field, a signature byte or its length, a waypoint, the plan order or
// the plan count — and checks Algorithm 1 on the copy twice: on a fresh
// chain view, and on a view whose verdict table passed the original and
// whose tick table holds another receiver's proofs for it. Both must
// reject the copy unless its encodings equal the original's, in which
// case both accept it; neither may panic. The seed corpus in
// testdata/fuzz/FuzzVerifyBlock holds one alteration of each field and
// one that changes nothing.
func FuzzVerifyBlock(f *testing.F) {
	fc := newFuzzChain(f)
	f.Fuzz(func(t *testing.T, field uint8, index uint16, value uint64) {
		alt := alter(fc.next, field, index, value)
		same := sameEncoding(alt, fc.next)
		const now = 2 * time.Second

		fresh := VerifyBlock(fc.receiver(t, chain.NewVerdicts(fc.signer.Public())), fc.chk, alt, nil)

		verdicts := chain.NewVerdicts(fc.signer.Public())
		table := NewTickTable()
		if err := verifyBlockObs(fc.receiver(t, verdicts), fc.chk, fc.next, nil, table, now, nil); err != nil {
			t.Fatalf("original block rejected: %v", err)
		}
		warm := verifyBlockObs(fc.receiver(t, verdicts), fc.chk, alt, nil, table, now, nil)

		for _, v := range []struct {
			name string
			err  error
		}{{"fresh", fresh}, {"warm", warm}} {
			if same && v.err != nil {
				t.Errorf("%s view rejects a copy that encodes like the original: %v", v.name, v.err)
			}
			if !same && v.err == nil {
				t.Errorf("%s view accepts an altered block (field %d, index %d, value %#x)", v.name, field%fuzzFields, index, value)
			}
		}
	})
}
