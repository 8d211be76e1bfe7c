package obs

import "time"

// wallNow is the repository's one sanctioned measurement read of the
// host clock. Spans read it directly under the profiling mode
// (Options.Profile); every other wall-time measurement goes through
// Stopwatch. Nothing it returns may feed simulation state, traces or
// digests. The nodeterminism and phasepurity analyzers sanction this
// function by name, so any new time.Now elsewhere still fails the lint.
func wallNow() time.Time {
	return time.Now()
}

// Stopwatch measures host wall time for reporting only: the per-region
// step imbalance of a road network and the Fig. 6 crypto costs. Its
// readings are nondeterministic by nature and must never reach
// simulation state.
type Stopwatch time.Time

// StartStopwatch starts a stopwatch at the current host time.
func StartStopwatch() Stopwatch { return Stopwatch(wallNow()) }

// Elapsed returns the host time since the stopwatch started.
func (w Stopwatch) Elapsed() time.Duration { return wallNow().Sub(time.Time(w)) }
