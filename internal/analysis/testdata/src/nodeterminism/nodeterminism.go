// Package nodeterminism exercises the nodeterminism analyzer: wall-clock
// reads and global math/rand draws must be flagged; seeded per-component
// streams and pure duration arithmetic must not.
package nodeterminism

import (
	"math/rand"
	"time"
)

// wallClock reads the host clock three banned ways.
func wallClock() time.Duration {
	t0 := time.Now()    // want "time\.Now reads the wall clock"
	d := time.Since(t0) // want "time\.Since reads the wall clock"
	d += time.Until(t0) // want "time\.Until reads the wall clock"
	return d
}

// globalRand draws from the shared, unseeded process-wide stream.
func globalRand() float64 {
	n := rand.Intn(10) // want "rand\.Intn draws from the global RNG"
	_ = n
	return rand.Float64() // want "rand\.Float64 draws from the global RNG"
}

// seeded builds a per-component stream: constructors are allowed, and
// draws through the owned *rand.Rand are fine.
func seeded() float64 {
	r := rand.New(rand.NewSource(1))
	return r.Float64()
}

// simTime derives timestamps from simulated time only.
func simTime(base, dt time.Duration) time.Duration {
	return base + 3*dt + time.Duration(float64(dt)*0.5)
}

// suppressed shows an explained suppression: the directive on the line
// above silences the finding.
func suppressed() time.Time {
	//lint:ignore nodeterminism fixture demonstrates an explained suppression
	return time.Now()
}

// wallNow mirrors the production wallNow shims (eval, obs):
// the fixture config sanctions it, so its body may read the host clock
// without a finding.
func wallNow() time.Time { return time.Now() }

// leaseExpired models the eval work-queue's TTL check done wrong: a
// clock read outside the sanctioned shim is flagged even though the
// same expression inside wallNow is not.
func leaseExpired(expiry time.Time) bool {
	if wallNow().After(expiry) { // sanctioned path: silent
		return true
	}
	return time.Now().After(expiry) // want "time\.Now reads the wall clock"
}
