// The sweep work queue: DirStore generalized into a lease-based,
// directory-backed queue so a fleet of workers — goroutines, processes,
// or machines sharing a filesystem — can drain one sweep cooperatively.
//
// Cell lifecycle: pending (no file) → leased (<key>.lease.g<N>) →
// done (<key>.json). Leases carry an owner, an opaque token, and an
// expiry stamp; a worker that crashes mid-cell simply stops renewing
// nothing — its lease times out and any other worker reclaims the cell
// by acquiring the next lease *generation*. Generations make reclaim
// race-free without advisory file locks: a lease file is only ever
// created (atomically, via link(2) of a fully-written temp file), never
// rewritten, so for each generation number exactly one worker in the
// fleet can hold the lease.
//
// Guarantees (see DESIGN.md §15):
//
//   - Recording is exactly-once: the done file is written atomically
//     (temp + rename) and never rewritten with different content — every
//     completer of a cell computes byte-identical results, because cells
//     are deterministic functions of their key.
//   - Execution is exactly-once while no lease expires, and at-least-
//     once across crashes: a reclaimed cell re-runs, which is safe for
//     the same reason recording is.
//   - A worker whose lease was reclaimed learns so at Complete time
//     (ErrLeaseLost) instead of silently double-recording.
package eval

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ErrLeaseLost is returned by Complete when the caller's lease expired
// and another worker reclaimed the cell. The caller's computed result is
// still valid (cells are deterministic), but the reclaimer owns the
// recording.
var ErrLeaseLost = errors.New("eval: lease lost to another worker")

// Queue extends CellStore with cooperative lease semantics. RunCellsStored
// detects a Queue-capable store and switches from the write-through cache
// protocol to the drain protocol: lease before run, complete after,
// defer cells another worker holds.
type Queue interface {
	CellStore
	// TryLease attempts to claim a cell. It returns nil (and no error)
	// when the cell is already completed or currently leased by a live
	// worker; an expired lease is reclaimed transparently.
	TryLease(key string) (*Lease, error)
	// Complete records a finished cell's bytes and releases the lease.
	// It fails with ErrLeaseLost when the lease was reclaimed.
	Complete(l *Lease, data []byte) error
	// Release abandons a lease without recording a result, so the cell
	// becomes immediately claimable again.
	Release(l *Lease) error
	// Quarantine moves a corrupt or truncated done-file aside so the
	// cell re-runs instead of poisoning every drain that loads it.
	Quarantine(key string) error
	// PollInterval is how long a drain should wait between checks on a
	// cell another worker holds.
	PollInterval() time.Duration
}

// QueueOptions tunes a DirQueue.
type QueueOptions struct {
	// Owner identifies this worker in lease records and drain stats
	// (default "w<pid>").
	Owner string
	// LeaseTTL is how long a lease lives before other workers may
	// presume its holder dead and reclaim the cell (default 10m). It
	// must comfortably exceed the slowest single cell.
	LeaseTTL time.Duration
	// Poll is the wait between checks on a busy cell (default 100ms).
	Poll time.Duration
	// Now supplies the clock for lease stamps and expiry checks; nil
	// means the wall clock. Tests inject a fake. Simulation results
	// never depend on it — it sequences work, not outcomes.
	Now func() time.Time
}

func (o QueueOptions) normalize() QueueOptions {
	if o.Owner == "" {
		o.Owner = fmt.Sprintf("w%d", os.Getpid())
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Minute
	}
	if o.Poll <= 0 {
		o.Poll = 100 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = wallNow
	}
	return o
}

// Lease is a claim on one cell. The token ties Complete/Release calls to
// the exact acquisition, so a worker cannot release a lease it lost.
type Lease struct {
	Key   string
	gen   int
	token string
}

// leaseRecord is the on-disk lease content.
type leaseRecord struct {
	Owner          string
	Token          string
	AcquiredUnixNS int64
	ExpiresUnixNS  int64
}

// QueueStats summarizes one worker's view of a drain.
type QueueStats struct {
	// Executed counts cells this worker ran and recorded.
	Executed int64
	// Loaded counts done-file hits (cells served from the store).
	Loaded int64
	// Reclaimed counts expired leases this worker took over.
	Reclaimed int64
	// Conflicts counts completions that lost their lease (ErrLeaseLost).
	Conflicts int64
	// Quarantined counts corrupt done-files moved aside.
	Quarantined int64
}

// DirQueue is the directory-backed Queue (and CellStore): one done-file
// per cell plus transient lease files, shareable between processes and —
// over a shared filesystem — machines. It is safe for concurrent use.
type DirQueue struct {
	dir  string
	opts QueueOptions

	// floorMu guards genFloor: per cell, the highest lease generation
	// this process has observed. Generations only grow, so probes start
	// at the floor instead of generation 1 — and, crucially, instead of
	// listing the whole sweep directory (currentLease used to ReadDir,
	// making a drain of N cells O(N·dir) stat work under contention).
	floorMu  sync.Mutex
	genFloor map[string]int

	executed, loaded, reclaimed, conflicts, quarantined atomic.Int64
}

// NewDirQueue creates the directory if needed.
func NewDirQueue(dir string, opts QueueOptions) (*DirQueue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eval: cell queue: %w", err)
	}
	return &DirQueue{dir: dir, opts: opts.normalize(), genFloor: map[string]int{}}, nil
}

// Stats returns this worker's drain counters.
func (q *DirQueue) Stats() QueueStats {
	return QueueStats{
		Executed:    q.executed.Load(),
		Loaded:      q.loaded.Load(),
		Reclaimed:   q.reclaimed.Load(),
		Conflicts:   q.conflicts.Load(),
		Quarantined: q.quarantined.Load(),
	}
}

// Owner returns the worker identity recorded in this queue's leases.
func (q *DirQueue) Owner() string { return q.opts.Owner }

// PollInterval implements Queue.
func (q *DirQueue) PollInterval() time.Duration { return q.opts.Poll }

func (q *DirQueue) path(key string) string { return filepath.Join(q.dir, key+".json") }

// leaseName builds the file name of one lease generation.
func (q *DirQueue) leaseName(key string, gen int) string {
	return filepath.Join(q.dir, fmt.Sprintf("%s.lease.g%d", key, gen))
}

// suffixSeq numbers the file suffixes of every DirQueue in the process:
// queues that share a directory (one per worker of an in-process fleet)
// must never pick the same temp name, and a per-queue counter would.
var suffixSeq atomic.Int64

// uniqueSuffix builds process-unique file suffixes without randomness.
func (q *DirQueue) uniqueSuffix() string {
	return fmt.Sprintf("%d-%d", os.Getpid(), suffixSeq.Add(1))
}

// Load reads one completed cell; a missing file is a miss, not an error.
func (q *DirQueue) Load(key string) ([]byte, bool, error) {
	data, err := os.ReadFile(q.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("eval: cell queue: %w", err)
	}
	q.loaded.Add(1)
	return data, true, nil
}

// TryLease implements Queue. The claim protocol is generation-based:
// read the highest lease generation; if none exists or it has expired
// (or is unreadable — a torn lease counts as abandoned), attempt to
// link the next generation into place. link(2) fails if the name
// exists, so exactly one contender wins each generation.
func (q *DirQueue) TryLease(key string) (*Lease, error) {
	if _, err := os.Stat(q.path(key)); err == nil {
		return nil, nil // already completed
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("eval: cell queue: %w", err)
	}
	gen, cur, err := q.currentLease(key)
	if err != nil {
		return nil, err
	}
	next, reclaim := 1, false
	if gen > 0 {
		if cur != nil && q.opts.Now().UnixNano() < cur.ExpiresUnixNS {
			return nil, nil // held by a live worker
		}
		next, reclaim = gen+1, true
	}
	l, err := q.acquire(key, next)
	if err != nil || l == nil {
		return nil, err
	}
	// A completer may have recorded the cell and cleaned its lease
	// between our done-check and the acquisition; back out if so.
	if _, err := os.Stat(q.path(key)); err == nil {
		if rerr := q.Release(l); rerr != nil {
			return nil, rerr
		}
		return nil, nil
	}
	if reclaim {
		q.reclaimed.Add(1)
	}
	// Spent generations below next stay on disk until Complete or
	// Release clears the chain: contiguity from generation 1 is what
	// lets currentLease probe generation files directly instead of
	// listing the directory.
	q.raiseFloor(key, next)
	return l, nil
}

// acquire publishes a fully-written lease record under the generation's
// name via link(2). A nil, nil return means another worker won the race.
func (q *DirQueue) acquire(key string, gen int) (*Lease, error) {
	now := q.opts.Now()
	rec := leaseRecord{
		Owner:          q.opts.Owner,
		Token:          q.opts.Owner + "-" + q.uniqueSuffix(),
		AcquiredUnixNS: now.UnixNano(),
		ExpiresUnixNS:  now.Add(q.opts.LeaseTTL).UnixNano(),
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("eval: cell queue: %w", err)
	}
	tmp := filepath.Join(q.dir, ".lease.tmp-"+q.uniqueSuffix())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, fmt.Errorf("eval: cell queue: %w", err)
	}
	linkErr := os.Link(tmp, q.leaseName(key, gen))
	if rmErr := os.Remove(tmp); rmErr != nil && linkErr == nil {
		return nil, fmt.Errorf("eval: cell queue: %w", rmErr)
	}
	if linkErr != nil {
		if os.IsExist(linkErr) {
			return nil, nil
		}
		return nil, fmt.Errorf("eval: cell queue: %w", linkErr)
	}
	return &Lease{Key: key, gen: gen, token: rec.Token}, nil
}

// leaseProbeGap is how many consecutive missing generations the probe
// scans past before concluding no higher lease exists. The protocol
// keeps each cell's lease chain contiguous from generation 1 (spent
// generations stay on disk until Complete or Release clear the whole
// chain, and removeLeases deletes top-down so a partial failure leaves
// a contiguous prefix), so gaps cannot normally appear; the lookahead
// is defense-in-depth against out-of-band file removal.
const leaseProbeGap = 2

// probeFloor returns the generation to start probing a cell at (>= 1).
// It starts one below the cached floor so the common "top generation
// was just released or completed" observation lands without a rescan.
func (q *DirQueue) probeFloor(key string) int {
	q.floorMu.Lock()
	defer q.floorMu.Unlock()
	if g := q.genFloor[key] - 1; g > 1 {
		return g
	}
	return 1
}

// raiseFloor records that generation gen was observed for a cell, so
// later probes skip the spent generations below it. Floors only rise;
// setFloor force-assigns when a rescan proved the chain restarted.
func (q *DirQueue) raiseFloor(key string, gen int) {
	q.floorMu.Lock()
	defer q.floorMu.Unlock()
	if gen > q.genFloor[key] {
		q.genFloor[key] = gen
	}
}

func (q *DirQueue) setFloor(key string, gen int) {
	q.floorMu.Lock()
	defer q.floorMu.Unlock()
	q.genFloor[key] = gen
}

// currentLease returns the highest lease generation on disk and its
// decoded record. A generation whose file vanished or does not parse
// yields (gen, nil, nil): the lease exists in name but its holder is
// untrustworthy, so callers treat it as expired.
//
// Generations are probed directly — stat g<floor>, g<floor+1>, … upward
// from the per-key cached floor — so the cost per probe is a handful of
// stats regardless of how many cells (and their done-files) share the
// sweep directory. A cached floor can overshoot reality when the chain
// was cleared and restarted behind our back (another worker completed,
// the done-file was quarantined, the cell re-ran from generation 1);
// an empty probe above a floor therefore rescans from the bottom and
// resets the floor to what it finds.
func (q *DirQueue) currentLease(key string) (int, *leaseRecord, error) {
	start := q.probeFloor(key)
	max, err := q.probeFrom(key, start)
	if err != nil {
		return 0, nil, err
	}
	if max == 0 && start > 1 {
		if max, err = q.probeFrom(key, 1); err != nil {
			return 0, nil, err
		}
		q.setFloor(key, max)
	}
	if max == 0 {
		return 0, nil, nil
	}
	q.raiseFloor(key, max)
	data, err := os.ReadFile(q.leaseName(key, max))
	if err != nil {
		return max, nil, nil
	}
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return max, nil, nil
	}
	return max, &rec, nil
}

// probeFrom stats generation files upward from start, returning the
// highest generation present (0 if none), tolerating leaseProbeGap
// consecutive missing generations before giving up.
func (q *DirQueue) probeFrom(key string, start int) (int, error) {
	max, misses := 0, 0
	for g := start; misses <= leaseProbeGap; g++ {
		_, err := os.Stat(q.leaseName(key, g))
		switch {
		case err == nil:
			max, misses = g, 0
		case os.IsNotExist(err):
			misses++
		default:
			return 0, fmt.Errorf("eval: cell queue: %w", err)
		}
	}
	return max, nil
}

// removeLeases clears lease generations up to and including upto. Best
// effort: a straggling lease file is inert (its generation is spent).
func (q *DirQueue) removeLeases(key string, upto int) {
	for g := upto; g >= 1; g-- {
		if err := os.Remove(q.leaseName(key, g)); err != nil && !os.IsNotExist(err) {
			return
		}
	}
}

// Complete implements Queue: verify the lease is still ours, record the
// result atomically, then clear the lease chain.
func (q *DirQueue) Complete(l *Lease, data []byte) error {
	gen, cur, err := q.currentLease(l.Key)
	if err != nil {
		return err
	}
	if cur == nil || gen != l.gen || cur.Token != l.token {
		q.conflicts.Add(1)
		return fmt.Errorf("eval: complete %s: %w", l.Key, ErrLeaseLost)
	}
	if err := q.writeAtomic(l.Key, data); err != nil {
		return err
	}
	q.executed.Add(1)
	q.removeLeases(l.Key, l.gen)
	return nil
}

// Release implements Queue: drop the lease if it is still ours. The
// whole chain is cleared (not just our generation) so the cell reads
// as unclaimed — leaving spent lower generations behind would make the
// next claimant look like a crash reclaim.
func (q *DirQueue) Release(l *Lease) error {
	gen, cur, err := q.currentLease(l.Key)
	if err != nil {
		return err
	}
	if cur == nil || gen != l.gen || cur.Token != l.token {
		return nil // already lost; nothing of ours to drop
	}
	if err := os.Remove(q.leaseName(l.Key, l.gen)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("eval: cell queue: %w", err)
	}
	q.removeLeases(l.Key, l.gen-1)
	return nil
}

// Quarantine implements Queue: move a corrupt done-file to
// <key>.corrupt-<pid>-<seq> so the cell re-runs. A concurrent
// quarantine of the same cell is a no-op.
func (q *DirQueue) Quarantine(key string) error {
	target := filepath.Join(q.dir, key+".corrupt-"+q.uniqueSuffix())
	err := os.Rename(q.path(key), target)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("eval: cell queue: %w", err)
	}
	q.quarantined.Add(1)
	return nil
}

// Save implements CellStore through the lease protocol, so even callers
// on the plain write-through interface get claim-before-write semantics
// (the historical DirStore wrote unconditionally, letting two workers
// sharing a directory both claim a cell). An identical completed record
// — cells are deterministic in their key — satisfies the save as-is; a
// differing one (torn write, older record format the caller recomputed)
// is quarantined and replaced. A cell another worker holds is waited
// out, then resolved the same way.
func (q *DirQueue) Save(key string, data []byte) error {
	for {
		l, err := q.TryLease(key)
		if err != nil {
			return err
		}
		if l != nil {
			err := q.Complete(l, data)
			if errors.Is(err, ErrLeaseLost) {
				return nil // the reclaimer records the identical bytes
			}
			return err
		}
		existing, ok, err := q.Load(key)
		if err != nil {
			return err
		}
		if ok {
			if bytes.Equal(existing, data) {
				return nil
			}
			if err := q.Quarantine(key); err != nil {
				return err
			}
			continue
		}
		time.Sleep(q.opts.Poll)
	}
}

// writeAtomic writes one done-file via temp + rename, so a crash
// mid-write cannot leave a torn cell that poisons the next drain.
func (q *DirQueue) writeAtomic(key string, data []byte) error {
	tmp := filepath.Join(q.dir, key+".tmp-"+q.uniqueSuffix())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("eval: cell queue: %w", err)
	}
	if err := os.Rename(tmp, q.path(key)); err != nil {
		if rmErr := os.Remove(tmp); rmErr != nil && !os.IsNotExist(rmErr) {
			return fmt.Errorf("eval: cell queue: %w", errors.Join(err, rmErr))
		}
		return fmt.Errorf("eval: cell queue: %w", err)
	}
	return nil
}
