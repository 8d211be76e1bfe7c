package eval

import "time"

// wallNow is this package's single sanctioned wall-clock read (beside
// obs.wallNow, the measurement lane; see the nodeterminism analyzer
// configuration). It stamps and checks work-queue leases — fleet
// sequencing, not simulation state: no simulated outcome, stored cell,
// or digest ever depends on it. Tests replace it via QueueOptions.Now.
func wallNow() time.Time { return time.Now() }
