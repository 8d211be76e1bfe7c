package eval

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for lease-expiry tests; queue
// option Now keeps the production code on wallNow while tests stay
// deterministic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestLeaseExclusive is the regression test for the pre-queue DirStore:
// cell files carried no ownership metadata, so two workers sharing a
// directory could both claim a cell. Under the lease protocol exactly
// one of two workers may hold a cell at a time.
func TestLeaseExclusive(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	qa, err := NewDirQueue(dir, QueueOptions{Owner: "a", Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := NewDirQueue(dir, QueueOptions{Owner: "b", Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	la, err := qa.TryLease("cell")
	if err != nil || la == nil {
		t.Fatalf("worker a TryLease = %v, %v; want a lease", la, err)
	}
	lb, err := qb.TryLease("cell")
	if err != nil {
		t.Fatal(err)
	}
	if lb != nil {
		t.Fatal("worker b acquired a lease worker a already holds")
	}
	// Completion frees nothing to claim: the cell is done.
	if err := qa.Complete(la, []byte("r")); err != nil {
		t.Fatal(err)
	}
	if l, err := qb.TryLease("cell"); err != nil || l != nil {
		t.Fatalf("TryLease on a completed cell = %v, %v; want nil, nil", l, err)
	}
	if data, ok, err := qb.Load("cell"); err != nil || !ok || string(data) != "r" {
		t.Fatalf("Load = %q ok=%v err=%v", data, ok, err)
	}
	// Release, by contrast, reopens the cell.
	la2, err := qa.TryLease("other")
	if err != nil || la2 == nil {
		t.Fatal("worker a could not lease a fresh cell")
	}
	if err := qa.Release(la2); err != nil {
		t.Fatal(err)
	}
	if l, err := qb.TryLease("other"); err != nil || l == nil {
		t.Fatalf("TryLease after release = %v, %v; want a lease", l, err)
	}
}

// TestLeaseExpiryReclaim: a lease whose holder stops renewing (crashed
// worker) is claimable again once the TTL passes, and the reclaim is
// counted.
func TestLeaseExpiryReclaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	ttl := time.Minute
	qa, err := NewDirQueue(dir, QueueOptions{Owner: "a", LeaseTTL: ttl, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := NewDirQueue(dir, QueueOptions{Owner: "b", LeaseTTL: ttl, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if l, err := qa.TryLease("cell"); err != nil || l == nil {
		t.Fatalf("initial lease: %v, %v", l, err)
	}
	clk.Advance(ttl / 2)
	if l, err := qb.TryLease("cell"); err != nil || l != nil {
		t.Fatalf("half-TTL TryLease = %v, %v; want busy", l, err)
	}
	clk.Advance(ttl)
	lb, err := qb.TryLease("cell")
	if err != nil || lb == nil {
		t.Fatalf("post-expiry TryLease = %v, %v; want a reclaim", lb, err)
	}
	if got := qb.Stats().Reclaimed; got != 1 {
		t.Errorf("Reclaimed = %d, want 1", got)
	}
	if err := qb.Complete(lb, []byte("r")); err != nil {
		t.Fatal(err)
	}
}

// TestCompleteAfterExpiryConflict: the crashed-then-revived worker whose
// lease was reclaimed must get ErrLeaseLost from Complete instead of
// silently double-recording.
func TestCompleteAfterExpiryConflict(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	ttl := time.Minute
	qa, err := NewDirQueue(dir, QueueOptions{Owner: "a", LeaseTTL: ttl, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := NewDirQueue(dir, QueueOptions{Owner: "b", LeaseTTL: ttl, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	la, err := qa.TryLease("cell")
	if err != nil || la == nil {
		t.Fatalf("initial lease: %v, %v", la, err)
	}
	clk.Advance(2 * ttl)
	lb, err := qb.TryLease("cell")
	if err != nil || lb == nil {
		t.Fatalf("reclaim: %v, %v", lb, err)
	}
	if err := qa.Complete(la, []byte("stale")); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Complete err = %v, want ErrLeaseLost", err)
	}
	if got := qa.Stats().Conflicts; got != 1 {
		t.Errorf("Conflicts = %d, want 1", got)
	}
	// Releasing the lost lease must not disturb the reclaimer's.
	if err := qa.Release(la); err != nil {
		t.Fatal(err)
	}
	if err := qb.Complete(lb, []byte("fresh")); err != nil {
		t.Fatalf("reclaimer Complete: %v", err)
	}
	if data, ok, err := qb.Load("cell"); err != nil || !ok || string(data) != "fresh" {
		t.Fatalf("Load = %q ok=%v err=%v; want the reclaimer's record", data, ok, err)
	}
}

func intCodec() CellCodec[int] {
	return CellCodec[int]{
		Encode: func(v int) ([]byte, error) { return []byte(fmt.Sprintf("%d", v)), nil },
		Decode: func(b []byte) (int, error) { var v int; _, err := fmt.Sscanf(string(b), "%d", &v); return v, err },
	}
}

// TestDrainQuarantinesCorruptCell: a truncated or garbage done-file must
// be moved aside and re-run, not crash the drain or poison its results.
func TestDrainQuarantinesCorruptCell(t *testing.T) {
	dir := t.TempDir()
	q, err := NewDirQueue(dir, QueueOptions{Owner: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(q.path("cell-2"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cells := []int{1, 2, 3}
	key := func(i int, c int) string { return fmt.Sprintf("cell-%d", c) }
	got, err := RunCellsStored(1, q, key, intCodec(), cells, func(c int) (int, error) { return 10 * c, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if got[i] != 10*c {
			t.Errorf("cell %d = %d, want %d", i, got[i], 10*c)
		}
	}
	st := q.Stats()
	if st.Quarantined != 1 || st.Executed != 3 {
		t.Errorf("stats = %+v, want Quarantined=1 Executed=3", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt, done int
	for _, e := range entries {
		switch {
		case strings.Contains(e.Name(), ".corrupt-"):
			corrupt++
		case strings.HasSuffix(e.Name(), ".json"):
			done++
		}
	}
	if corrupt != 1 || done != 3 {
		t.Errorf("dir holds %d corrupt + %d done files, want 1 + 3", corrupt, done)
	}
}

// TestConcurrentDrain is the in-process model of the CI two-worker drain
// job: two queues over one directory drain the same cell set at once.
// Both workers must return the full, identical result set; the union of
// their Executed counters must equal the cell count exactly (each cell
// ran once, nothing twice, nothing lost).
func TestConcurrentDrain(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	key := func(i int, c int) string { return fmt.Sprintf("cell-%03d", c) }
	run := func(c int) (int, error) {
		time.Sleep(time.Millisecond) // widen the contention window
		return 7 * c, nil
	}
	drain := func(owner string) ([]int, *DirQueue, error) {
		q, err := NewDirQueue(dir, QueueOptions{Owner: owner, Poll: time.Millisecond})
		if err != nil {
			return nil, nil, err
		}
		res, err := RunCellsStored(4, q, key, intCodec(), cells, run)
		return res, q, err
	}
	type res struct {
		got []int
		q   *DirQueue
		err error
	}
	out := make(chan res, 2)
	for _, owner := range []string{"a", "b"} {
		go func(owner string) {
			got, q, err := drain(owner)
			out <- res{got, q, err}
		}(owner)
	}
	var executed int64
	for i := 0; i < 2; i++ {
		r := <-out
		if r.err != nil {
			t.Fatal(r.err)
		}
		for j, c := range cells {
			if r.got[j] != 7*c {
				t.Fatalf("worker %s cell %d = %d, want %d", r.q.Owner(), j, r.got[j], 7*c)
			}
		}
		executed += r.q.Stats().Executed
	}
	if executed != n {
		t.Errorf("workers executed %d cells in total, want exactly %d", executed, n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var done int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			done++
		} else if !e.IsDir() {
			t.Errorf("unexpected residue in drain dir: %s", e.Name())
		}
	}
	if done != n {
		t.Errorf("drain dir holds %d done files, want %d", done, n)
	}
}

// TestSuffixesUniqueAcrossQueues: two queues of one process on one
// directory, drawing temp-file suffixes at once, never draw the same
// one. With a counter per queue both drew <pid>-1, <pid>-2, …, so
// TestConcurrentDrain's two workers could link each other's lease temp
// files away.
func TestSuffixesUniqueAcrossQueues(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	seen := make(map[string]string)
	var wg sync.WaitGroup
	for _, owner := range []string{"a", "b"} {
		q, err := NewDirQueue(dir, QueueOptions{Owner: owner})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(owner string, q *DirQueue) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := q.uniqueSuffix()
				mu.Lock()
				if prev, dup := seen[s]; dup {
					t.Errorf("queues %s and %s both drew suffix %s", prev, owner, s)
				}
				seen[s] = owner
				mu.Unlock()
			}
		}(owner, q)
	}
	wg.Wait()
}

// TestLeaseChainCleanup: terminal lease operations must leave no lease
// files behind, whatever generation the chain reached — Complete and
// Release both clear the whole chain, and a released cell reads as
// unclaimed (claiming it again is not a reclaim).
func TestLeaseChainCleanup(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	ttl := time.Minute
	newQ := func(owner string) *DirQueue {
		q, err := NewDirQueue(dir, QueueOptions{Owner: owner, LeaseTTL: ttl, Now: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	noLeases := func(when string) {
		t.Helper()
		left, err := filepath.Glob(filepath.Join(dir, "*.lease.*"))
		if err != nil || len(left) != 0 {
			t.Fatalf("%s: lease residue %v (err %v)", when, left, err)
		}
	}
	qa, qb := newQ("a"), newQ("b")
	// Drive the chain to generation 3 via two expiry reclaims.
	if l, err := qa.TryLease("cell"); err != nil || l == nil {
		t.Fatalf("gen-1 lease: %v, %v", l, err)
	}
	clk.Advance(2 * ttl)
	if l, err := qb.TryLease("cell"); err != nil || l == nil {
		t.Fatalf("gen-2 reclaim: %v, %v", l, err)
	}
	clk.Advance(2 * ttl)
	l3, err := qa.TryLease("cell")
	if err != nil || l3 == nil {
		t.Fatalf("gen-3 reclaim: %v, %v", l3, err)
	}
	if err := qa.Release(l3); err != nil {
		t.Fatal(err)
	}
	noLeases("after releasing a generation-3 lease")
	// Re-claiming the released cell is a fresh claim, not a reclaim.
	// qa's probe floor still points at the vanished generation 3, so
	// this exercises the from-1 rescan after an empty probe — and its
	// reclaim counter must still show only the expiry takeover.
	la, err := qa.TryLease("cell")
	if err != nil || la == nil {
		t.Fatalf("post-release claim: %v, %v", la, err)
	}
	if got := qa.Stats().Reclaimed; got != 1 {
		t.Errorf("Reclaimed = %d, want 1 (a released cell is unclaimed, not crashed)", got)
	}
	if err := qa.Complete(la, []byte("r")); err != nil {
		t.Fatal(err)
	}
	noLeases("after completion")
	// qb carries a stale generation floor from the earlier chain; the
	// completed cell must still resolve as done.
	if l, err := qb.TryLease("cell"); err != nil || l != nil {
		t.Fatalf("TryLease on completed cell = %v, %v; want nil, nil", l, err)
	}
}

// TestLeaseProbeGapTolerance: the generation probe must find the top of
// a chain even when a middle generation file was removed out-of-band
// (the contiguity invariant holds in the protocol itself; the lookahead
// is defense-in-depth, and this pins it).
func TestLeaseProbeGapTolerance(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	ttl := time.Minute
	qa, err := NewDirQueue(dir, QueueOptions{Owner: "a", LeaseTTL: ttl, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 3; gen++ {
		if l, err := qa.TryLease("cell"); err != nil || l == nil {
			t.Fatalf("gen-%d lease: %v, %v", gen, l, err)
		}
		clk.Advance(2 * ttl)
	}
	if err := os.Remove(qa.leaseName("cell", 2)); err != nil {
		t.Fatal(err)
	}
	// A fresh worker (no cached floor) probes from generation 1 across
	// the hole and must still see generation 3 as the top: its expired
	// record is reclaimed as generation 4, never double-claimed lower.
	qb, err := NewDirQueue(dir, QueueOptions{Owner: "b", LeaseTTL: ttl, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := qb.currentLease("cell")
	if err != nil || gen != 3 {
		t.Fatalf("currentLease across gap = gen %d, %v; want 3", gen, err)
	}
	lb, err := qb.TryLease("cell")
	if err != nil || lb == nil {
		t.Fatalf("reclaim across gap: %v, %v", lb, err)
	}
	if lb.gen != 4 {
		t.Errorf("reclaimed generation = %d, want 4", lb.gen)
	}
	if err := qb.Complete(lb, []byte("r")); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTryLeaseBusyCrowdedDir measures the busy-cell probe with
// thousands of sibling done-files in the sweep directory — the path
// that used to os.ReadDir the whole directory per probe, making an
// N-cell drain O(N·dir) under contention; it is now a constant handful
// of generation-file stats.
func BenchmarkTryLeaseBusyCrowdedDir(b *testing.B) {
	dir := b.TempDir()
	clk := newFakeClock()
	qa, err := NewDirQueue(dir, QueueOptions{Owner: "a", Now: clk.Now})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := os.WriteFile(qa.path(fmt.Sprintf("done-%04d", i)), []byte("r"), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if l, err := qa.TryLease("hot"); err != nil || l == nil {
		b.Fatalf("setup lease: %v, %v", l, err)
	}
	qb, err := NewDirQueue(dir, QueueOptions{Owner: "b", Now: clk.Now})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := qb.TryLease("hot")
		if err != nil {
			b.Fatal(err)
		}
		if l != nil {
			b.Fatal("busy cell was claimed")
		}
	}
}

// TestSaveQuarantinesDiffering: Save over an existing, differing record
// (a stale format the caller recomputed) replaces it and preserves the
// old bytes in a quarantine file rather than silently clobbering them.
func TestSaveQuarantinesDiffering(t *testing.T) {
	dir := t.TempDir()
	q, err := NewDirQueue(dir, QueueOptions{Owner: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Save("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := q.Save("k", []byte("old")); err != nil {
		t.Fatal(err) // identical bytes: a no-op, not a conflict
	}
	if err := q.Save("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := q.Load("k"); err != nil || string(data) != "new" {
		t.Fatalf("Load = %q, %v; want the replacement", data, err)
	}
	old, err := filepath.Glob(filepath.Join(dir, "k.corrupt-*"))
	if err != nil || len(old) != 1 {
		t.Fatalf("quarantined copies = %v (err %v), want exactly one", old, err)
	}
	if data, err := os.ReadFile(old[0]); err != nil || string(data) != "old" {
		t.Fatalf("quarantine holds %q, %v; want the old bytes", data, err)
	}
}
