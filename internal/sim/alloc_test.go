package sim

import (
	"runtime"
	"testing"
	"time"
)

// steadyAllocBudget is the per-tick heap-allocation ceiling once the
// reference scenario reaches steady state. The engine's tick path is
// allocation-free by construction; the budget is not zero because a few
// protocol events remain legitimately episodic — watcher incident
// reports, the IM's once-per-second legacy-hazard sync, and sorted-key
// extraction when a vehicle files a report — and testing.AllocsPerRun
// averages whole allocations over a finite window. Raising this number
// is a regression: find the new allocation with a heap-profile delta
// (see DESIGN.md §12) before touching the budget.
const steadyAllocBudget = 2.0

// steadyBytesBudget is the per-tick ceiling on heap bytes allocated,
// averaged over steadyBytesTicks. It is 34.7 B/tick (seed 1, the
// most-allocating input) plus 15% and 256 B of slack for the episodic
// events above, so a near-zero figure cannot turn measurement jitter
// into a failure; the same reasoning as the allocation budget applies
// before raising it.
const (
	steadyBytesBudget = 296.0
	steadyBytesTicks  = 1000
)

// TestSteadyStateAllocBudget pins the tick path's heap traffic at two
// seeds. SpawnCutoff closes the arrival stream at 20s; by 45s every
// spawned vehicle has crossed or settled, block issuance has drained,
// and each Step should run through spawn, delivery, physics, grid
// rebuild, IM and vehicle protocol ticks, and collision checks without
// touching the heap. From 45s, testing.AllocsPerRun counts allocations
// on one engine and runtime.MemStats deltas count bytes over a
// 1000-tick window on a second, identically seeded one.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warm-up is ~45s of sim time")
	}
	inter, err := Cross4ForTest()
	if err != nil {
		t.Fatal(err)
	}
	warm := func(seed int64) *Engine {
		e, err := New(Scenario{
			Inter:       inter,
			Duration:    time.Hour,
			RatePerMin:  80,
			Seed:        seed,
			NWADE:       true,
			KeyBits:     1024,
			SpawnCutoff: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		stepTo(e, 45*time.Second)
		return e
	}
	for _, seed := range []int64{1, 42} {
		avg := testing.AllocsPerRun(100, warm(seed).Step)
		t.Logf("seed %d: steady-state allocs/tick = %.2f", seed, avg)
		if avg > steadyAllocBudget {
			t.Errorf("seed %d: steady-state allocs/tick = %.2f, budget %.1f", seed, avg, steadyAllocBudget)
		}

		e := warm(seed)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steadyBytesTicks; i++ {
			e.Step()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / steadyBytesTicks
		t.Logf("seed %d: steady-state bytes/tick = %.1f", seed, bytes)
		if bytes > steadyBytesBudget {
			t.Errorf("seed %d: steady-state bytes/tick = %.1f, budget %.0f", seed, bytes, steadyBytesBudget)
		}
	}
}
