// Package serve is the simulation-as-a-service layer: a long-lived
// daemon around the same engines the batch CLIs drive. Clients submit
// scenarios (the cliconf vocabulary, as JSON) — single intersections
// and full road networks alike — a bounded worker pool runs them under
// per-client quotas and priorities, trace events stream live over SSE,
// and every job checkpoints through internal/snap as it runs. A killed
// daemon restarts, re-enqueues its in-flight jobs, and finishes them
// with results bit-identical to an uninterrupted run; a drained job
// parks its checkpoint and a second daemon adopts it with Import,
// finishing it digest-identically. DESIGN.md §15 covers the
// architecture and its guarantees.
//
// The state directory layout is one subdirectory per job:
//
//	<dir>/jobs/<id>/job.json     durable JobRecord (atomic replace)
//	<dir>/jobs/<id>/ckpt.snap    latest checkpoint (atomic replace)
//	<dir>/jobs/<id>/trace.jsonl  append-only obs trace
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nwade/internal/cliconf"
	"nwade/internal/ordered"
	"nwade/internal/snap"
)

// Options configures a Server.
type Options struct {
	// Dir is the state directory; it is created if needed and is the
	// unit of daemon identity — restart with the same Dir to resume.
	Dir string
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// CheckpointEvery is the default simulated-time checkpoint interval
	// for submissions that don't set their own (default 5s). Zero after
	// an explicit negative disables default checkpointing.
	CheckpointEvery time.Duration
	// QueueDepth bounds jobs accepted but not yet running (default
	// 1024); past it, submits get 503 rather than unbounded memory
	// growth. It gates admission only — recovery rebuilds arbitrarily
	// many queued jobs.
	QueueDepth int
	// MaxRunningPerClient caps how many of one client's jobs run at
	// once (0 = unlimited). A client at its cap is skipped, not
	// blocked: other clients' jobs dispatch past it.
	MaxRunningPerClient int
	// MaxQueuedPerClient caps one client's pending jobs (0 =
	// unlimited); past it, that client's submits get 429.
	MaxQueuedPerClient int
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 5 * time.Second
	}
	if o.CheckpointEvery < 0 {
		o.CheckpointEvery = 0
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// Admission sentinels; handleSubmit maps them onto HTTP statuses.
var (
	errQueueFull   = errors.New("job queue full")
	errClientQuota = errors.New("client queued-job quota exceeded")
)

// Server is the daemon: an http.Handler plus the job table and worker
// pool behind it.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on scheduler state changes, guarded by mu
	jobs   map[string]*job
	order  []string
	nextID int
	closed bool

	// pending is the dispatch queue, kept sorted by (priority desc,
	// seq asc) so the next job to run is always pending[first eligible].
	pending []*job
	// running counts in-flight jobs per client (named clients only),
	// for the MaxRunningPerClient skip rule.
	running    map[string]int
	nextSeq    int
	dispatched int

	stopping chan struct{}
	wg       sync.WaitGroup

	submitted atomic.Int64
	resumed   atomic.Int64
	parked    atomic.Int64
	imported  atomic.Int64
	ticks     atomic.Int64
	requests  atomic.Int64
}

// New opens (or creates) a state directory, rebuilds the job table a
// previous daemon left behind — re-queueing interrupted jobs, honoring
// persisted cancels, leaving parked jobs parked — and starts the
// worker pool. Recovery loads everything into the in-memory dispatch
// queue before any worker starts, so a state directory of any size
// (far past QueueDepth) recovers without blocking.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:     opts.normalize(),
		start:    time.Now(),
		jobs:     map[string]*job{},
		running:  map[string]int{},
		stopping: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.routes()
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) jobsDir() string { return filepath.Join(s.opts.Dir, "jobs") }

// recover scans the state directory and rebuilds the job table. Jobs
// found running were interrupted by a kill: they restart as queued with
// Resumes bumped, and their checkpoint (if any) decides where the
// engine picks up — unless a persisted cancel request says to finish
// them as canceled instead. Parked jobs stay parked (they belong to
// whoever imports them). ReadDir returns sorted names and IDs are
// zero-padded, so recovery preserves submission order within a
// priority class.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		j := &job{id: ent.Name(), dir: filepath.Join(s.jobsDir(), ent.Name()), done: make(chan struct{})}
		rec, err := ReadJob(j.recordPath())
		if err != nil {
			return err
		}
		j.rec = rec
		j.client, j.pri = rec.Client, rec.Priority
		var n int
		if _, err := fmt.Sscanf(j.id, "j%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		switch {
		case rec.State == JobRunning || rec.State == JobQueued:
			if rec.CancelRequested {
				// The cancel was accepted before the kill; honor it
				// rather than resurrecting the job.
				j.cancel.Store(true)
				j.finish(func(r *JobRecord) { r.State = JobCanceled })
				break
			}
			if rec.State == JobRunning {
				if err := j.update(func(r *JobRecord) { r.State = JobQueued; r.Resumes++ }); err != nil {
					return err
				}
				s.resumed.Add(1)
			}
			bc, err := newBroadcaster(j.tracePath())
			if err != nil {
				return err
			}
			j.bc = bc
			s.enqueueLocked(j)
		case rec.State == JobParked:
			// Inert until an Import (possibly by this very daemon)
			// adopts it; status and trace history stay readable.
		default:
			// Terminal: history only. Events replay from the trace file,
			// so no broadcaster is opened (done is already closed).
			j.finished.Store(true)
			close(j.done)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	return nil
}

// enqueueLocked inserts a job into the pending queue at its scheduling
// position: priority descending, admission order ascending within a
// class. Caller holds s.mu (or, during recovery, is the only actor).
func (s *Server) enqueueLocked(j *job) {
	s.nextSeq++
	j.seq = s.nextSeq
	i := len(s.pending)
	for k, p := range s.pending {
		if p.pri < j.pri {
			i = k
			break
		}
	}
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = j
	s.cond.Broadcast()
}

// removePendingLocked takes a job out of the pending queue; false means
// a worker already claimed it. Caller holds s.mu.
func (s *Server) removePendingLocked(j *job) bool {
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return true
		}
	}
	return false
}

// pendingForLocked counts a client's queued jobs. Caller holds s.mu.
func (s *Server) pendingForLocked(client string) int {
	n := 0
	for _, p := range s.pending {
		if p.client == client {
			n++
		}
	}
	return n
}

// next blocks until a dispatchable job exists (nil on shutdown): the
// highest-priority, oldest pending job whose client is under its
// running cap. Jobs of capped clients are skipped, not head-of-line
// blockers.
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		for i, j := range s.pending {
			if j.client != "" && s.opts.MaxRunningPerClient > 0 &&
				s.running[j.client] >= s.opts.MaxRunningPerClient {
				continue
			}
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			if j.client != "" {
				s.running[j.client]++
			}
			s.dispatched++
			j.dispatchSeq = s.dispatched
			return j
		}
		s.cond.Wait()
	}
}

// release returns a worker slot: the job's client may dispatch again.
func (s *Server) release(j *job) {
	s.mu.Lock()
	if j.client != "" {
		if s.running[j.client]--; s.running[j.client] <= 0 {
			delete(s.running, j.client)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// worker runs jobs from the dispatch queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
		s.release(j)
	}
}

// Close stops the worker pool gracefully: running jobs checkpoint and
// park as queued, queued jobs stay queued, and a later New on the same
// directory picks all of them up.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.stopping)
	s.wg.Wait()
	// Broadcasters of jobs that never got a worker again: close so
	// their subscribers end and the trace fds release.
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, id := range s.order {
		if bc := s.jobs[id].bc; bc != nil {
			if err := bc.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Import adopts a parked job directory — typically from another
// daemon's state dir, after a drain — into this daemon: the directory
// moves into the local state dir (its ID is kept when free, remapped
// otherwise), the job re-queues, and its checkpoint resumes exactly
// where the origin daemon parked it, finishing with the same digest an
// uninterrupted run produces. A persisted cancel request is honored
// instead of running. Returns the job's local ID.
func (s *Server) Import(src string) (string, error) {
	rec, err := ReadJob(filepath.Join(src, "job.json"))
	if err != nil {
		return "", err
	}
	if rec.State != JobParked {
		return "", fmt.Errorf("serve: import %s: job is %s, not parked", src, rec.State)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("serve: import: server is shut down")
	}
	id := rec.ID
	if _, taken := s.jobs[id]; taken || id == "" {
		id = fmt.Sprintf("j%04d", s.nextID)
		s.nextID++
	} else {
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	dst := filepath.Join(s.jobsDir(), id)
	if err := os.Rename(src, dst); err != nil {
		return "", fmt.Errorf("serve: import: %w", err)
	}
	j := &job{id: id, dir: dst, done: make(chan struct{})}
	j.rec = rec
	j.client, j.pri = rec.Client, rec.Priority
	if err := j.update(func(r *JobRecord) { r.ID = id; r.State = JobQueued }); err != nil {
		return "", err
	}
	if rec.CancelRequested {
		j.cancel.Store(true)
		j.finish(func(r *JobRecord) { r.State = JobCanceled })
	} else {
		bc, err := newBroadcaster(j.tracePath())
		if err != nil {
			return "", err
		}
		j.bc = bc
		s.enqueueLocked(j)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.imported.Add(1)
	return id, nil
}

// --- HTTP surface -----------------------------------------------------

// Submit is the POST /jobs request body. Every field is optional and
// overlays cliconf.Defaults(), so omitting a field over HTTP means
// exactly what omitting the flag means on the nwade-sim command line;
// pointer fields exist so a client can also express the non-default
// direction explicitly. Durations are Go duration strings ("45s",
// "2m").
type Submit struct {
	Network      string  `json:"network,omitempty"`
	Intersection string  `json:"intersection,omitempty"`
	Density      float64 `json:"density,omitempty"`
	Duration     string  `json:"duration,omitempty"`
	Seed         *int64  `json:"seed,omitempty"`
	Scenario     string  `json:"scenario,omitempty"`
	AttackAt     string  `json:"attack_at,omitempty"`
	AttackRegion *int    `json:"attack_region,omitempty"`
	NWADE        *bool   `json:"nwade,omitempty"`
	KeyBits      int     `json:"keybits,omitempty"`
	Faults       string  `json:"faults,omitempty"`
	Retrans      *bool   `json:"retrans,omitempty"`
	// Client names the submitting tenant for quotas and metrics; the
	// X-NWADE-Client header sets it too (the body field wins).
	Client string `json:"client,omitempty"`
	// Priority orders dispatch: higher first, FIFO within a class.
	Priority int `json:"priority,omitempty"`
	// CheckpointEvery overrides the daemon's default checkpoint
	// interval (simulated time) for this job.
	CheckpointEvery string `json:"checkpoint_every,omitempty"`
	// Throttle sleeps this long of wall time per tick — pure pacing for
	// live dashboards (and for the CI kill-mid-run window); it cannot
	// affect results.
	Throttle string `json:"throttle,omitempty"`
}

// overlay applies the submission on top of a base flag set (the shared
// defaults in production; the parity test also overlays a fully
// flipped base to prove every field expresses both directions).
func (sub Submit) overlay(f cliconf.Flags) (cliconf.Flags, error) {
	if sub.Network != "" {
		f.Network = sub.Network
	}
	if sub.Intersection != "" {
		f.Intersection = sub.Intersection
	}
	if sub.Density != 0 {
		f.Density = sub.Density
	}
	if sub.Duration != "" {
		d, err := time.ParseDuration(sub.Duration)
		if err != nil {
			return f, fmt.Errorf("duration: %w", err)
		}
		f.Duration = d
	}
	if sub.Seed != nil {
		f.Seed = *sub.Seed
	}
	if sub.Scenario != "" {
		f.AttackName = sub.Scenario
	}
	if sub.AttackAt != "" {
		d, err := time.ParseDuration(sub.AttackAt)
		if err != nil {
			return f, fmt.Errorf("attack_at: %w", err)
		}
		f.AttackAt = d
	}
	if sub.AttackRegion != nil {
		f.AttackRegion = *sub.AttackRegion
	}
	if sub.NWADE != nil {
		f.NWADE = *sub.NWADE
	}
	if sub.KeyBits != 0 {
		f.KeyBits = sub.KeyBits
	}
	if sub.Faults != "" {
		f.Faults = sub.Faults
	}
	if sub.Retrans != nil {
		f.Retrans = *sub.Retrans
	}
	return f, nil
}

// statusView is a job as the status endpoints render it.
type statusView struct {
	JobRecord
	SimNowNS int64 `json:"sim_now_ns"`
}

func (s *Server) view(j *job) statusView {
	return statusView{JobRecord: j.snapshot(), SimNowNS: j.simNowNS.Load()}
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/drain", s.handleDrain)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing more useful than dropping the
		// connection, which the server does for us on return.
		return
	}
}

type apiError struct {
	Error string `json:"error"`
}

// validClient restricts client names to metrics-label-safe tokens.
func validClient(c string) bool {
	if len(c) > 64 {
		return false
	}
	for _, r := range c {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var sub Submit
	if err := dec.Decode(&sub); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad submission: " + err.Error()})
		return
	}
	client := r.Header.Get("X-NWADE-Client")
	if sub.Client != "" {
		client = sub.Client
	}
	if !validClient(client) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad client name (64 chars of [A-Za-z0-9._-] max)"})
		return
	}
	f, err := sub.overlay(cliconf.Defaults())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	cfg, err := f.Build()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	every := s.opts.CheckpointEvery
	if sub.CheckpointEvery != "" {
		if every, err = time.ParseDuration(sub.CheckpointEvery); err != nil || every < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad checkpoint_every"})
			return
		}
	}
	var throttle time.Duration
	if sub.Throttle != "" {
		if throttle, err = time.ParseDuration(sub.Throttle); err != nil || throttle < 0 || throttle > time.Second {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad throttle (0..1s per tick)"})
			return
		}
	}
	spec, err := snap.SpecFromScenario(cfg)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	j, err := s.register(spec, every, throttle, client, sub.Priority)
	switch {
	case errors.Is(err, errQueueFull):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case errors.Is(err, errClientQuota):
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	s.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, s.view(j))
}

// register creates, persists, and enqueues one job, enforcing the
// global queue depth and the per-client queued quota.
func (s *Server) register(spec snap.Spec, every, throttle time.Duration, client string, pri int) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server is shut down")
	}
	if len(s.pending) >= s.opts.QueueDepth {
		return nil, errQueueFull
	}
	if client != "" && s.opts.MaxQueuedPerClient > 0 &&
		s.pendingForLocked(client) >= s.opts.MaxQueuedPerClient {
		return nil, fmt.Errorf("%w (%d queued)", errClientQuota, s.opts.MaxQueuedPerClient)
	}
	id := fmt.Sprintf("j%04d", s.nextID)
	j := &job{
		id:     id,
		dir:    filepath.Join(s.jobsDir(), id),
		client: client,
		pri:    pri,
		done:   make(chan struct{}),
		rec: JobRecord{
			ID:                id,
			Spec:              spec,
			CheckpointEveryNS: int64(every),
			ThrottleNS:        int64(throttle),
			State:             JobQueued,
			Client:            client,
			Priority:          pri,
		},
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job dir: %w", err)
	}
	if err := WriteJob(j.recordPath(), j.rec); err != nil {
		return nil, err
	}
	bc, err := newBroadcaster(j.tracePath())
	if err != nil {
		return nil, err
	}
	j.bc = bc
	s.nextID++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.enqueueLocked(j)
	return j, nil
}

// lookup resolves the {id} path segment.
func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]statusView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.view(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []statusView `json:"jobs"`
	}{views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	rec := j.snapshot()
	switch rec.State {
	case JobDone:
		writeJSON(w, http.StatusOK, rec.Result)
	case JobFailed:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: rec.Error})
	default:
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job is %s", rec.State)})
	}
}

// handleCancel cancels a job durably: the request is persisted in the
// record before anything reacts to it, so a cancel accepted for a
// queued or running job holds across a daemon kill. Cancel of a job
// already in a terminal state is a conflict, not a silent accept.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	var already JobState
	if err := j.update(func(rec *JobRecord) {
		if rec.State.terminal() {
			already = rec.State
			return
		}
		rec.CancelRequested = true
	}); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if already != "" {
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job is already %s", already)})
		return
	}
	j.cancel.Store(true)
	// A job no worker holds finishes right here: pending jobs leave
	// the dispatch queue, parked jobs just close out. Running jobs
	// finish at the loop's next cancel check.
	s.mu.Lock()
	removed := s.removePendingLocked(j)
	s.mu.Unlock()
	if removed || j.snapshot().State == JobParked {
		j.finish(func(rec *JobRecord) { rec.State = JobCanceled })
	}
	writeJSON(w, http.StatusAccepted, s.view(j))
}

// handleDrain checkpoints and parks a job so another daemon can adopt
// it (Import). A running job parks at its next tick boundary — poll
// the status until it reads parked; a queued job parks immediately; a
// parked job is already drained (200); terminal jobs conflict.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	switch st := j.snapshot().State; {
	case st == JobParked:
		writeJSON(w, http.StatusOK, s.view(j))
		return
	case st.terminal():
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job is already %s", st)})
		return
	}
	j.drain.Store(true)
	s.mu.Lock()
	removed := s.removePendingLocked(j)
	s.mu.Unlock()
	if removed {
		// Never ran (or is between daemon lives): park as-is; the
		// adopter starts it from its checkpoint or from scratch.
		s.park(j)
	}
	writeJSON(w, http.StatusAccepted, s.view(j))
}

// handleEvents streams the job's obs trace as server-sent events: the
// full history so far, then live lines until the job (or client) ends.
// Each SSE data line is one JSONL trace record.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	var history [][]byte
	var live <-chan []byte
	cancel := func() {}
	if j.bc != nil {
		var err error
		history, live, cancel, err = j.bc.Subscribe()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
	} else {
		// Terminal or parked job from a previous daemon life: replay
		// the file.
		var err error
		history, err = readTraceLines(j.tracePath())
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, line := range history {
		if !writeEvent(w, line) {
			return
		}
	}
	flusher.Flush()
	if live == nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case line, ok := <-live:
			if !ok {
				return
			}
			if !writeEvent(w, line) {
				return
			}
			flusher.Flush()
		}
	}
}

// writeEvent frames one trace line as an SSE event; false means the
// client is gone.
func writeEvent(w http.ResponseWriter, line []byte) bool {
	if _, err := fmt.Fprintf(w, "data: %s\n\n", strings.TrimRight(string(line), "\n")); err != nil {
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := fmt.Fprintln(w, "ok"); err != nil {
		return
	}
}

// handleMetricsz renders the Prometheus text exposition format by hand
// (the repo is dependency-free). Gauges and counters only. Per-client
// gauges cover the quota-relevant states (queued, running) for every
// named client with live jobs, in sorted client order.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	counts := map[JobState]int{}
	perClient := map[string]map[JobState]int{}
	s.mu.Lock()
	for _, id := range s.order {
		st := s.jobs[id]
		rec := st.snapshot()
		counts[rec.State]++
		if rec.Client != "" && (rec.State == JobQueued || rec.State == JobRunning) {
			if perClient[rec.Client] == nil {
				perClient[rec.Client] = map[JobState]int{}
			}
			perClient[rec.Client][rec.State]++
		}
	}
	s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP nwade_jobs Jobs by state.\n# TYPE nwade_jobs gauge\n")
	for _, st := range jobStates {
		fmt.Fprintf(&b, "nwade_jobs{state=%q} %d\n", st, counts[st])
	}
	fmt.Fprintf(&b, "# HELP nwade_client_jobs Live jobs by client and state.\n# TYPE nwade_client_jobs gauge\n")
	for _, c := range ordered.Keys(perClient) {
		for _, st := range []JobState{JobQueued, JobRunning} {
			fmt.Fprintf(&b, "nwade_client_jobs{client=%q,state=%q} %d\n", c, st, perClient[c][st])
		}
	}
	fmt.Fprintf(&b, "# TYPE nwade_jobs_submitted_total counter\nnwade_jobs_submitted_total %d\n", s.submitted.Load())
	fmt.Fprintf(&b, "# TYPE nwade_jobs_resumed_total counter\nnwade_jobs_resumed_total %d\n", s.resumed.Load())
	fmt.Fprintf(&b, "# TYPE nwade_jobs_parked_total counter\nnwade_jobs_parked_total %d\n", s.parked.Load())
	fmt.Fprintf(&b, "# TYPE nwade_jobs_imported_total counter\nnwade_jobs_imported_total %d\n", s.imported.Load())
	fmt.Fprintf(&b, "# TYPE nwade_sim_ticks_total counter\nnwade_sim_ticks_total %d\n", s.ticks.Load())
	fmt.Fprintf(&b, "# TYPE nwade_http_requests_total counter\nnwade_http_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(&b, "# TYPE nwade_uptime_seconds gauge\nnwade_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write([]byte(b.String())); err != nil {
		return
	}
}
