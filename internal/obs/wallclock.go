package obs

import "time"

// wallNow is this package's single sanctioned wall-clock read, one of
// three shims the nodeterminism analyzer sanctions (with eval.wallNow and
// roadnet.wallNow). Only the profiling mode (Options.Profile) reaches it;
// everything else in obs — and in the packages obs instruments — derives
// timestamps from simulated time. The analyzer knows this function by
// name (NoDeterminismConfig.Sanctioned) so the call below needs no
// per-site ignore directive, and any new time.Now creeping in elsewhere
// still fails the lint.
func wallNow() time.Time {
	return time.Now()
}
