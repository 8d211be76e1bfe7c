package sim

import (
	"testing"
	"time"
)

// TestParallelDigestMatchesSequential is the determinism contract of the
// sharded tick: the run digest — full event log, traffic counters, and
// network totals — must be bit-identical for every worker count,
// including worker counts that do not divide the partition count evenly
// and counts larger than the machine's core count. The workers=1 path
// does not even spin up the pool, so agreement between 1 and N proves
// the partition/commit split preserves the sequential interleaving.
func TestParallelDigestMatchesSequential(t *testing.T) {
	cfg := zeroFaultRefConfig(t)
	digests := make(map[int]string)
	for _, workers := range []int{1, 2, 4, 7} {
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digests[workers] = runDigest(t, e.Run())
	}
	if digests[1] != zeroFaultGolden {
		t.Fatalf("sequential digest %s != golden %s", digests[1], zeroFaultGolden)
	}
	for workers, d := range digests {
		if d != digests[1] {
			t.Errorf("workers=%d digest %s != sequential %s", workers, d, digests[1])
		}
	}
}

// TestParallelRaceShort is a short mid-attack window with workers=4, so
// a `go test -race` run exercises the pool's claim counter, the shared
// read-only grid and verdict table, and the per-body event buffers under
// the detector without paying for the full 40s reference run, which the
// digest equality above covers.
func TestParallelRaceShort(t *testing.T) {
	cfg := zeroFaultRefConfig(t)
	cfg.Duration = 24 * time.Second

	run := func(workers int) string {
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runDigest(t, e.Run())
	}
	seq := run(1)
	if par := run(4); par != seq {
		t.Fatalf("workers=4 digest %s != sequential %s", par, seq)
	}
}

// TestParallelCheckpointRoundTrip asserts the checkpoint layer composes
// with the parallel tick: a snapshot taken from a workers=4 engine
// restores into a workers=1 engine (and vice versa) and both finish on
// the sequential golden digest. Worker count is runtime configuration,
// not simulation state, so snapshots are interchangeable across it.
func TestParallelCheckpointRoundTrip(t *testing.T) {
	cfg := zeroFaultRefConfig(t)
	for _, tc := range []struct{ snapWorkers, resumeWorkers int }{
		{4, 1}, {1, 4}, {4, 4},
	} {
		snapCfg := cfg
		snapCfg.Workers = tc.snapWorkers
		e, err := New(snapCfg, WithSigner(testSigner(t)))
		if err != nil {
			t.Fatal(err)
		}
		stepTo(e, 25*time.Second)
		st, err := e.Snapshot()
		if err != nil {
			t.Fatalf("snapshot (workers=%d): %v", tc.snapWorkers, err)
		}
		resumeCfg := cfg
		resumeCfg.Workers = tc.resumeWorkers
		r, err := Restore(resumeCfg, st)
		if err != nil {
			t.Fatalf("restore (workers=%d): %v", tc.resumeWorkers, err)
		}
		if got := finish(t, r); got != zeroFaultGolden {
			t.Errorf("snap workers=%d resume workers=%d: digest %s != golden %s",
				tc.snapWorkers, tc.resumeWorkers, got, zeroFaultGolden)
		}
	}
}
