// Tests for the serve layer's lifecycle hardening: overlay parity,
// admission limits (queue depth, per-client quotas), priority
// scheduling, durable cancellation, network-job crash-resume, and
// drain/import migration.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nwade/internal/cliconf"
	"nwade/internal/roadnet"
	"nwade/internal/snap"
)

// newTestServerOpts is newTestServer with explicit options (the dir in
// opts wins when set).
func newTestServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, hs
}

// post issues one POST and returns the response status plus decoded
// body (when it is a status view).
func post(t *testing.T, url, body string, hdr map[string]string) (int, statusView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v statusView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// quickSpec builds a small valid spec for handcrafted job records.
func quickSpec(t *testing.T) snap.Spec {
	t.Helper()
	f := cliconf.Defaults()
	f.Duration = 2 * time.Second
	f.KeyBits = 512
	cfg, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := snap.SpecFromScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOverlayParity proves the JSON submission surface and the flag
// surface are the same dial: an empty submission is exactly
// cliconf.Defaults(), a full submission moves every field, and the
// optional booleans express both directions (the Retrans regression:
// a plain bool could never overlay false onto a true base).
func TestOverlayParity(t *testing.T) {
	// Guard: optional booleans in Submit must be *bool. A plain bool
	// field is indistinguishable between "omitted" and "false", so one
	// of the two directions silently stops working.
	rt := reflect.TypeOf(Submit{})
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() == reflect.Bool {
			t.Errorf("Submit.%s is a plain bool; optional booleans must be *bool", rt.Field(i).Name)
		}
	}

	base := cliconf.Defaults()
	got, err := Submit{}.overlay(base)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("empty overlay: %+v != defaults %+v", got, base)
	}

	seed, region := int64(9), 1
	off, on := false, true
	full := Submit{
		Network: "grid:2x2", Intersection: "mix", Density: 10,
		Duration: "6s", Seed: &seed, Scenario: "V1", AttackAt: "2s",
		AttackRegion: &region, NWADE: &off, KeyBits: 512,
		Faults: "lossy", Retrans: &on,
	}
	flipped, err := full.overlay(base)
	if err != nil {
		t.Fatal(err)
	}
	// TickWorkers keeps its default: a job's spec has no worker count.
	want := cliconf.Flags{
		Network: "grid:2x2", Intersection: "mix", Density: 10,
		Duration: 6 * time.Second, Seed: 9, AttackName: "V1",
		AttackAt: 2 * time.Second, AttackRegion: 1, NWADE: false,
		KeyBits: 512, Faults: "lossy", Retrans: true, TickWorkers: 1,
	}
	if flipped != want {
		t.Errorf("full overlay:\n got %+v\nwant %+v", flipped, want)
	}

	// Both directions: from the flipped base, the pointer fields must
	// come back — NWADE true, Retrans false, AttackRegion 0, Seed 1.
	seedBack, regionBack := int64(1), 0
	back, err := Submit{Seed: &seedBack, AttackRegion: &regionBack, NWADE: &on, Retrans: &off}.overlay(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if back.NWADE != true || back.Retrans != false || back.AttackRegion != 0 || back.Seed != 1 {
		t.Errorf("reverse overlay lost a direction: %+v", back)
	}
}

// TestQueueFull503: admission past QueueDepth is a deterministic 503,
// not unbounded queue growth.
func TestQueueFull503(t *testing.T) {
	_, hs := newTestServerOpts(t, Options{Workers: 1, QueueDepth: 1})
	// The blocker's 60s of simulated time never finishes inside the
	// test (shutdown suspends it); it only exists to pin the worker.
	blocker := `{"scenario":"benign","duration":"60s","keybits":512,"throttle":"10ms"}`
	v := submit(t, hs.URL, blocker)
	waitState(t, hs.URL, v.ID, JobRunning) // blocker holds the only worker
	if code, _ := post(t, hs.URL+"/jobs", quickJob, nil); code != http.StatusAccepted {
		t.Fatalf("first queued job: status %d", code)
	}
	code, _ := post(t, hs.URL+"/jobs", quickJob, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit past queue depth: status %d, want 503", code)
	}
}

// TestRecoverBeyondQueueDepth is the recovery-deadlock regression: a
// state directory holding more queued jobs than QueueDepth must
// recover (the old code sent every recovered job into the bounded
// dispatch channel before any worker existed, so New blocked forever).
func TestRecoverBeyondQueueDepth(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(t)
	const njobs = 4
	for i := 0; i < njobs; i++ {
		id := fmt.Sprintf("j%04d", i)
		jd := filepath.Join(dir, "jobs", id)
		if err := os.MkdirAll(jd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteJob(filepath.Join(jd, "job.json"), JobRecord{ID: id, Spec: spec, State: JobQueued}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan *Server, 1)
	errc := make(chan error, 1)
	go func() {
		s, err := New(Options{Dir: dir, Workers: 2, QueueDepth: 2})
		if err != nil {
			errc <- err
			return
		}
		done <- s
	}()
	var s *Server
	select {
	case s = <-done:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("New blocked recovering more jobs than QueueDepth")
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	for i := 0; i < njobs; i++ {
		waitState(t, hs.URL, fmt.Sprintf("j%04d", i), JobDone)
	}
	// New submissions number past the recovered jobs.
	v := submit(t, hs.URL, quickJob)
	if v.ID != fmt.Sprintf("j%04d", njobs) {
		t.Errorf("post-recovery ID = %s, want j%04d", v.ID, njobs)
	}
}

// TestDurableCancelAcrossRestart: a cancel accepted before a daemon
// kill holds — recovery finishes the job as canceled instead of
// resurrecting it, and scrubs the stale checkpoint.
func TestDurableCancelAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	jd := filepath.Join(dir, "jobs", "j0000")
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{ID: "j0000", Spec: quickSpec(t), State: JobRunning, CancelRequested: true}
	if err := WriteJob(filepath.Join(jd, "job.json"), rec); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(jd, "ckpt.snap")
	if err := os.WriteFile(ckpt, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, dir)
	v := getStatus(t, hs.URL, "j0000")
	if v.State != JobCanceled {
		t.Errorf("recovered state = %s, want canceled", v.State)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("stale checkpoint survived the canceled transition (err=%v)", err)
	}
	onDisk, err := ReadJob(filepath.Join(jd, "job.json"))
	if err != nil || onDisk.State != JobCanceled || !onDisk.CancelRequested {
		t.Errorf("persisted record = %+v err %v, want canceled with cancel_requested", onDisk, err)
	}
}

// TestRecoveredStatesEndpoints drives the read endpoints over a
// handcrafted state directory: a job whose checkpoint is corrupt (it
// must fail on resume, not wedge), a finished job from a previous
// daemon life (result and trace replay come from disk), and a parked
// job (result conflicts until someone adopts and finishes it).
func TestRecoveredStatesEndpoints(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(t)
	mk := func(id string, rec JobRecord, files map[string]string) {
		t.Helper()
		jd := filepath.Join(dir, "jobs", id)
		if err := os.MkdirAll(jd, 0o755); err != nil {
			t.Fatal(err)
		}
		rec.ID, rec.Spec = id, spec
		if err := WriteJob(filepath.Join(jd, "job.json"), rec); err != nil {
			t.Fatal(err)
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(jd, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk("j0000", JobRecord{State: JobRunning}, map[string]string{"ckpt.snap": "garbage, not a snapshot"})
	mk("j0001", JobRecord{State: JobDone, Result: &JobResult{Digest: "cafe"}},
		map[string]string{"trace.jsonl": "{\"k\":\"meta\"}\n{\"k\":\"sum\"}\n"})
	mk("j0002", JobRecord{State: JobParked}, nil)
	_, hs := newTestServerOpts(t, Options{Dir: dir, Workers: 1})

	// The corrupt checkpoint fails the resume instead of wedging the
	// worker (waitState would abort on failed, so poll by hand).
	for deadline := time.Now().Add(time.Minute); ; {
		if getStatus(t, hs.URL, "j0000").State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("corrupt-checkpoint job never failed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := getStatus(t, hs.URL, "j0000"); !strings.Contains(v.Error, "resume checkpoint") {
		t.Errorf("failure reason %q, want a resume-checkpoint error", v.Error)
	}

	resp, err := http.Get(hs.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []statusView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 3 {
		t.Errorf("list has %d jobs, want 3", len(list.Jobs))
	}

	for _, tc := range []struct {
		id   string
		code int
	}{
		{"j0000", http.StatusInternalServerError}, // failed: 500 + error
		{"j0001", http.StatusOK},                  // done: the stored result
		{"j0002", http.StatusConflict},            // parked: not finished
	} {
		resp, err := http.Get(hs.URL + "/jobs/" + tc.id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("result of %s: status %d, want %d", tc.id, resp.StatusCode, tc.code)
		}
	}

	// Events of a job finished in a previous daemon life replay from
	// the trace file (it has no live broadcaster).
	resp, err = http.Get(hs.URL + "/jobs/j0001/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if !strings.Contains(body, `data: {"k":"meta"}`) || !strings.Contains(body, `data: {"k":"sum"}`) {
		t.Errorf("trace replay missing records:\n%s", body)
	}
}

// TestImportErrors: Import refuses anything that isn't a readable
// parked job directory, and a shut-down server refuses everything.
func TestImportErrors(t *testing.T) {
	s, _ := newTestServerOpts(t, Options{Workers: 1})
	if _, err := s.Import(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("import of a missing directory must error")
	}
	jd := filepath.Join(t.TempDir(), "j0000")
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{ID: "j0000", Spec: quickSpec(t), State: JobDone}
	if err := WriteJob(filepath.Join(jd, "job.json"), rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Import(jd); err == nil || !strings.Contains(err.Error(), "not parked") {
		t.Errorf("import of a done job = %v, want a not-parked error", err)
	}

	s2, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	rec.State = JobParked
	if err := WriteJob(filepath.Join(jd, "job.json"), rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Import(jd); err == nil {
		t.Error("import on a closed server must error")
	}
	if err := s2.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestUnknownJob404s: every per-job route answers 404 for an unknown
// ID.
func TestUnknownJob404s(t *testing.T) {
	_, hs := newTestServerOpts(t, Options{Workers: 1})
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/nope"},
		{http.MethodGet, "/jobs/nope/result"},
		{http.MethodGet, "/jobs/nope/events"},
		{http.MethodPost, "/jobs/nope/cancel"},
		{http.MethodPost, "/jobs/nope/drain"},
	} {
		req, err := http.NewRequest(r.method, hs.URL+r.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
}

// TestCancelParkedJob: a parked job cancels immediately and durably —
// nobody is going to adopt it anymore.
func TestCancelParkedJob(t *testing.T) {
	_, hs := newTestServerOpts(t, Options{Workers: 1})
	v := submit(t, hs.URL, `{"scenario":"benign","duration":"30s","keybits":512,"throttle":"10ms"}`)
	waitState(t, hs.URL, v.ID, JobRunning)
	if code, _ := post(t, hs.URL+"/jobs/"+v.ID+"/drain", "", nil); code != http.StatusAccepted {
		t.Fatalf("drain: status %d", code)
	}
	waitState(t, hs.URL, v.ID, JobParked)
	if code, _ := post(t, hs.URL+"/jobs/"+v.ID+"/cancel", "", nil); code != http.StatusAccepted {
		t.Fatalf("cancel of parked job: status %d", code)
	}
	if st := getStatus(t, hs.URL, v.ID).State; st != JobCanceled {
		t.Errorf("parked job after cancel = %s, want canceled", st)
	}
}

// TestCancelTerminalConflict: cancel of a finished job is a 409, not a
// silent accept; cancel of a queued job finishes it without waiting
// for a worker.
func TestCancelTerminalConflict(t *testing.T) {
	_, hs := newTestServerOpts(t, Options{Workers: 1})
	done := submit(t, hs.URL, quickJob)
	waitState(t, hs.URL, done.ID, JobDone)
	if code, _ := post(t, hs.URL+"/jobs/"+done.ID+"/cancel", "", nil); code != http.StatusConflict {
		t.Errorf("cancel of done job: status %d, want 409", code)
	}

	// Pin the worker with a job that outlives the test, then cancel a
	// job that is still queued behind it.
	blocker := submit(t, hs.URL, `{"scenario":"benign","duration":"60s","keybits":512,"throttle":"10ms"}`)
	waitState(t, hs.URL, blocker.ID, JobRunning)
	queued := submit(t, hs.URL, quickJob)
	if code, _ := post(t, hs.URL+"/jobs/"+queued.ID+"/cancel", "", nil); code != http.StatusAccepted {
		t.Fatalf("cancel of queued job: status %d, want 202", code)
	}
	if v := getStatus(t, hs.URL, queued.ID); v.State != JobCanceled {
		t.Errorf("queued job after cancel = %s, want canceled immediately", v.State)
	}
}

// TestClientQuotas429: a client at MaxQueuedPerClient gets 429 while
// other clients keep submitting, the body field overrides the header,
// and the per-client gauges show up on /metricsz.
func TestClientQuotas429(t *testing.T) {
	_, hs := newTestServerOpts(t, Options{Workers: 1, MaxQueuedPerClient: 2})
	// Pins the only worker for the whole test (suspended at shutdown).
	blocker := `{"client":"alice","scenario":"benign","duration":"60s","keybits":512,"throttle":"10ms"}`
	v := submit(t, hs.URL, blocker)
	waitState(t, hs.URL, v.ID, JobRunning) // running jobs don't count toward the queued quota

	aliceJob := `{"client":"alice","scenario":"V1","duration":"6s","keybits":512}`
	for i := 0; i < 2; i++ {
		if code, _ := post(t, hs.URL+"/jobs", aliceJob, nil); code != http.StatusAccepted {
			t.Fatalf("alice job %d: status %d", i, code)
		}
	}
	if code, _ := post(t, hs.URL+"/jobs", aliceJob, nil); code != http.StatusTooManyRequests {
		t.Errorf("alice past quota: status %d, want 429", code)
	}
	// The header names the client too; the body field wins.
	code, hv := post(t, hs.URL+"/jobs", quickJob, map[string]string{"X-NWADE-Client": "bob"})
	if code != http.StatusAccepted || hv.Client != "bob" {
		t.Errorf("header client: status %d client %q, want 202 bob", code, hv.Client)
	}
	code, hv = post(t, hs.URL+"/jobs", aliceJob, map[string]string{"X-NWADE-Client": "bob"})
	if code != http.StatusTooManyRequests {
		t.Errorf("body client must override header: status %d, want alice's 429", code)
	}

	resp, err := http.Get(hs.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	for _, want := range []string{
		`nwade_client_jobs{client="alice",state="queued"} 2`,
		`nwade_client_jobs{client="alice",state="running"} 1`,
		`nwade_client_jobs{client="bob",state="queued"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q in:\n%s", want, body)
		}
	}
}

// TestMaxRunningPerClientSkip: a client at its running cap is skipped,
// not a head-of-line blocker — other clients' jobs overtake.
func TestMaxRunningPerClientSkip(t *testing.T) {
	_, hs := newTestServerOpts(t, Options{Workers: 2, MaxRunningPerClient: 1})
	long := `{"client":"alice","scenario":"benign","duration":"6s","keybits":512,"throttle":"20ms"}`
	a1 := submit(t, hs.URL, long)
	waitState(t, hs.URL, a1.ID, JobRunning)
	a2 := submit(t, hs.URL, long)
	bob := submit(t, hs.URL, `{"client":"bob","scenario":"V1","duration":"6s","attack_at":"3s","seed":42,"keybits":512}`)
	// Alice's first job sleeps through >=1.2s of throttle, so both
	// later submissions land while she is at her cap. The idle second
	// worker must dispatch bob past alice's older queued job — without
	// the skip, a2 (earlier submission, same priority) would get the
	// worker first.
	a2Seq := waitState(t, hs.URL, a2.ID, JobDone).DispatchSeq
	bobSeq := waitState(t, hs.URL, bob.ID, JobDone).DispatchSeq
	if bobSeq >= a2Seq {
		t.Errorf("dispatch order bob=%d a2=%d; bob must overtake the capped client", bobSeq, a2Seq)
	}
}

// TestPriorityOrderingDeterministic: dispatch order is priority
// descending, submission order within a class — auditable after the
// fact through DispatchSeq.
func TestPriorityOrderingDeterministic(t *testing.T) {
	_, hs := newTestServerOpts(t, Options{Workers: 1})
	// The blocker pins the worker long enough (>=4s of throttle sleep)
	// for all four submissions to land while it runs, then finishes so
	// the queue drains in scheduled order.
	blocker := submit(t, hs.URL, `{"scenario":"benign","duration":"20s","keybits":512,"throttle":"20ms"}`)
	waitState(t, hs.URL, blocker.ID, JobRunning)
	mk := func(pri int) string {
		return submit(t, hs.URL, fmt.Sprintf(
			`{"priority":%d,"scenario":"V1","duration":"6s","attack_at":"3s","seed":42,"keybits":512}`, pri)).ID
	}
	a, b, c, d := mk(0), mk(5), mk(1), mk(5)
	order := map[string]int{}
	for _, id := range []string{a, b, c, d} {
		order[id] = waitState(t, hs.URL, id, JobDone).DispatchSeq
	}
	// Blocker dispatched first; then b and d (priority 5, FIFO), then
	// c (1), then a (0).
	if !(order[b] < order[d] && order[d] < order[c] && order[c] < order[a]) {
		t.Errorf("dispatch order b=%d d=%d c=%d a=%d, want b<d<c<a",
			order[b], order[d], order[c], order[a])
	}
}

// networkRefDigest runs the reference for a network job the way
// nwade-sim -network does: directly on roadnet, uninterrupted.
func networkRefDigest(t *testing.T) (string, time.Duration) {
	t.Helper()
	f := cliconf.Defaults()
	f.Network = "grid:2x2"
	f.AttackName = "V3"
	f.AttackRegion = 1
	f.Duration = 6 * time.Second
	f.Seed = 7
	f.KeyBits = 512
	cfg, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := roadnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur := cfg.Normalize().Duration
	for n.Now() < dur {
		n.Step()
	}
	return n.Digest(), dur
}

// TestNetworkJobCrashResumeDigest is the tentpole proof: a network job
// submitted over HTTP, killed mid-run, and resumed by the next daemon
// finishes with a digest bit-identical to a direct, uninterrupted
// roadnet run of the same scenario.
func TestNetworkJobCrashResumeDigest(t *testing.T) {
	refDigest, _ := networkRefDigest(t)

	dir := t.TempDir()
	s1, hs1 := newTestServer(t, dir)
	body := `{"network":"grid:2x2","scenario":"V3","attack_region":1,"duration":"6s",` +
		`"seed":7,"keybits":512,"checkpoint_every":"2s","throttle":"10ms"}`
	v := submit(t, hs1.URL, body)
	s1.mu.Lock()
	j := s1.jobs[v.ID]
	s1.mu.Unlock()
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(j.ckptPath()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no network checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	j.crash.Store(true)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, hs2 := newTestServer(t, dir)
	resumed := waitState(t, hs2.URL, v.ID, JobDone)
	if resumed.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", resumed.Resumes)
	}
	if resumed.Result == nil {
		t.Fatal("resumed network job has no result")
	}
	if resumed.Result.Regions != 4 {
		t.Errorf("Regions = %d, want 4 for grid:2x2", resumed.Result.Regions)
	}
	if resumed.Result.Digest != refDigest {
		t.Errorf("resumed network digest %s != direct roadnet digest %s",
			resumed.Result.Digest, refDigest)
	}
}

// TestDrainImportDigest: drain checkpoints and parks a running job;
// a second daemon adopts the parked directory with Import and finishes
// it with the uninterrupted digest. Migration, end to end.
func TestDrainImportDigest(t *testing.T) {
	refDigest, _ := networkRefDigest(t)

	s1, hs1 := newTestServerOpts(t, Options{Workers: 1})
	body := `{"network":"grid:2x2","scenario":"V3","attack_region":1,"duration":"6s",` +
		`"seed":7,"keybits":512,"throttle":"10ms"}`
	v := submit(t, hs1.URL, body)
	waitState(t, hs1.URL, v.ID, JobRunning)
	time.Sleep(50 * time.Millisecond) // let some ticks land first
	if code, _ := post(t, hs1.URL+"/jobs/"+v.ID+"/drain", "", nil); code != http.StatusAccepted {
		t.Fatalf("drain: status %d, want 202", code)
	}
	waitState(t, hs1.URL, v.ID, JobParked)
	// Drain is idempotent on a parked job.
	if code, _ := post(t, hs1.URL+"/jobs/"+v.ID+"/drain", "", nil); code != http.StatusOK {
		t.Errorf("re-drain of parked job: status %d, want 200", code)
	}

	src := filepath.Join(s1.opts.Dir, "jobs", v.ID)
	s2, hs2 := newTestServerOpts(t, Options{Workers: 1})
	id, err := s2.Import(src)
	if err != nil {
		t.Fatal(err)
	}
	if id != v.ID {
		t.Errorf("import remapped free ID %s to %s", v.ID, id)
	}
	final := waitState(t, hs2.URL, id, JobDone)
	if final.Result == nil || final.Result.Digest != refDigest {
		t.Fatalf("migrated digest %+v, want %s", final.Result, refDigest)
	}
	if final.Resumes != 0 {
		// Import is adoption, not a crash resume; the counter that
		// matters is the daemon's imported total.
		t.Logf("note: migrated job carries Resumes=%d", final.Resumes)
	}
	if got := s2.imported.Load(); got != 1 {
		t.Errorf("imported counter = %d, want 1", got)
	}
	// The trace carries both daemon lives.
	data, err := os.ReadFile(filepath.Join(s2.opts.Dir, "jobs", id, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"k":"meta"`); n != 2 {
		t.Errorf("migrated trace has %d meta records, want 2", n)
	}
	// Drain of a terminal job conflicts.
	if code, _ := post(t, hs2.URL+"/jobs/"+id+"/drain", "", nil); code != http.StatusConflict {
		t.Errorf("drain of done job: status %d, want 409", code)
	}
}
