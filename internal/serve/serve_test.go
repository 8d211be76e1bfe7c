package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// newTestServer boots a daemon on a fresh state dir with fast
// checkpoints, wired to a real HTTP listener (the SSE path needs one).
func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Dir: dir, Workers: 2, CheckpointEvery: time.Second})
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

// submit posts one job and returns its rendered status.
func submit(t *testing.T, base string, body string) statusView {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, e.Error)
	}
	var v statusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getStatus fetches one job's status view.
func getStatus(t *testing.T, base, id string) statusView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v statusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls until the job reaches a wanted state or times out.
func waitState(t *testing.T, base, id string, want ...JobState) statusView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v := getStatus(t, base, id)
		for _, w := range want {
			if v.State == w {
				return v
			}
		}
		if v.State == JobFailed {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return statusView{}
}

// quickJob is a small, fast submission: 6 simulated seconds of the V1
// attack with a small signing key.
const quickJob = `{"scenario":"V1","duration":"6s","attack_at":"3s","seed":42,"keybits":512}`

func TestSubmitRunAndResult(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	v := submit(t, hs.URL, quickJob)
	if v.ID == "" || v.State != JobQueued {
		t.Fatalf("submit view = %+v", v)
	}
	final := waitState(t, hs.URL, v.ID, JobDone)
	if final.Result == nil || final.Result.Digest == "" {
		t.Fatalf("done without result: %+v", final)
	}
	if final.Result.Spawned == 0 {
		t.Error("no vehicles spawned in 6 simulated seconds at default density")
	}
	resp, err := http.Get(hs.URL + "/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res.Digest != final.Result.Digest {
		t.Fatalf("result endpoint: status %d, digest %q vs %q", resp.StatusCode, res.Digest, final.Result.Digest)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown scenario", `{"scenario":"V99"}`},
		{"bad network dims", `{"network":"grid:0x0"}`},
		{"attack_region out of range", `{"network":"grid:2x2","attack_region":4}`},
		{"attack_region without network", `{"attack_region":1}`},
		{"unknown field", `{"scenaro":"V1"}`},
		{"tick_workers is not a submission field", `{"tick_workers":2}`},
		{"bad duration", `{"duration":"banana"}`},
		{"bad throttle", `{"throttle":"5s"}`},
		{"bad checkpoint interval", `{"checkpoint_every":"banana"}`},
		{"mix without network", `{"intersection":"mix"}`},
		{"bad client name", `{"client":"no spaces allowed"}`},
		{"client name too long", `{"client":"` + strings.Repeat("x", 65) + `"}`},
	} {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitRejectsUnknownLayout pins the refusal of an unknown layout
// at submit time: 400, with the engine's message.
func TestSubmitRejectsUnknownLayout(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(`{"intersection":"hexagon"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	const want = `sim: unknown intersection layout "hexagon" (want one of [cfi4 cross4 ddi4 irregular5 roundabout3])`
	if resp.StatusCode != http.StatusBadRequest || e.Error != want {
		t.Fatalf("status %d, error %q; want 400, %q", resp.StatusCode, e.Error, want)
	}
}

func TestEventsStream(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	v := submit(t, hs.URL, quickJob)
	resp, err := http.Get(hs.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	kinds := map[string]int{}
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var rec struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &rec); err != nil {
			t.Fatalf("bad SSE line %q: %v", line, err)
		}
		kinds[rec.K]++
	}
	// The stream ends when the job finishes: a full trace has a meta
	// header, events from the attack run, and the final summary.
	if kinds["meta"] != 1 || kinds["sum"] != 1 || kinds["ev"] == 0 {
		t.Fatalf("stream record kinds = %v; want one meta, one sum, some ev", kinds)
	}
	waitState(t, hs.URL, v.ID, JobDone)
}

func TestCancel(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	// Throttled so the job is reliably still running when the cancel
	// lands (60 ticks x 5ms >= 300ms of wall time).
	v := submit(t, hs.URL, `{"scenario":"benign","duration":"6s","keybits":512,"throttle":"5ms"}`)
	waitState(t, hs.URL, v.ID, JobRunning)
	resp, err := http.Post(hs.URL+"/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	final := waitState(t, hs.URL, v.ID, JobCanceled)
	if final.Result != nil {
		t.Errorf("canceled job carries a result: %+v", final.Result)
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	v := submit(t, hs.URL, quickJob)
	waitState(t, hs.URL, v.ID, JobDone)
	resp, err = http.Get(hs.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(resp)
	for _, want := range []string{
		`nwade_jobs{state="done"} 1`,
		"nwade_jobs_submitted_total 1",
		"nwade_jobs_resumed_total 0",
		"nwade_sim_ticks_total 60", // 6s at the 100ms default step
		"nwade_http_requests_total",
		"nwade_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q in:\n%s", want, body)
		}
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var b bytes.Buffer
	_, err := b.ReadFrom(resp.Body)
	return b.String(), err
}

// TestCrashResumeDigest is the in-process half of the CI service job:
// a job killed mid-run (the crash hook models kill -9 — nothing further
// is persisted) must resume from its last checkpoint on the next daemon
// start and finish with a digest bit-identical to an uninterrupted run
// of the same submission.
func TestCrashResumeDigest(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, dir)
	// Throttle stretches the 60-tick run to >=600ms of wall time so the
	// crash reliably lands mid-run, after the 2s-sim-time checkpoint.
	body := `{"scenario":"V1","duration":"6s","attack_at":"3s","seed":7,"keybits":512,` +
		`"checkpoint_every":"2s","throttle":"10ms"}`
	v := submit(t, hs1.URL, body)
	s1.mu.Lock()
	j := s1.jobs[v.ID]
	s1.mu.Unlock()
	// Wait for the first checkpoint, then pull the plug.
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(j.ckptPath()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	j.crash.Store(true)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err := ReadJob(j.recordPath()); err != nil || rec.State != JobRunning {
		t.Fatalf("after crash: state %v err %v, want still-running on disk", rec.State, err)
	}

	// Daemon restart: the job must come back queued with Resumes=1 and
	// run to completion from the checkpoint.
	_, hs2 := newTestServer(t, dir)
	resumed := waitState(t, hs2.URL, v.ID, JobDone)
	if resumed.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", resumed.Resumes)
	}
	if resumed.Result == nil || resumed.Result.Digest == "" {
		t.Fatalf("resumed job has no digest: %+v", resumed)
	}

	// Reference: the same submission, uninterrupted, on a fresh daemon.
	_, hs3 := newTestServer(t, t.TempDir())
	ref := submit(t, hs3.URL, `{"scenario":"V1","duration":"6s","attack_at":"3s","seed":7,"keybits":512}`)
	refFinal := waitState(t, hs3.URL, ref.ID, JobDone)
	if refFinal.Result.Digest != resumed.Result.Digest {
		t.Errorf("resumed digest %s != uninterrupted digest %s",
			resumed.Result.Digest, refFinal.Result.Digest)
	}
	// The resumed trace file carries both daemon lives: two meta
	// records, one final summary.
	data, err := os.ReadFile(j.tracePath())
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"k":"meta"`)); n != 2 {
		t.Errorf("resumed trace has %d meta records, want 2 (one per daemon life)", n)
	}
}

// TestGracefulSuspendResume: a daemon Close while a job runs must park
// it queued-with-checkpoint; the next daemon finishes it and the digest
// still matches an uninterrupted run.
func TestGracefulSuspendResume(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1)
	body := `{"scenario":"benign","duration":"6s","seed":3,"keybits":512,` +
		`"checkpoint_every":"1s","throttle":"10ms"}`
	v := submit(t, hs1.URL, body)
	waitState(t, hs1.URL, v.ID, JobRunning)
	time.Sleep(50 * time.Millisecond) // let a few ticks land
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	recPath := fmt.Sprintf("%s/jobs/%s/job.json", dir, v.ID)
	rec, err := ReadJob(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != JobQueued {
		t.Fatalf("after graceful close: state %s, want queued", rec.State)
	}

	_, hs2 := newTestServer(t, dir)
	final := waitState(t, hs2.URL, v.ID, JobDone)

	_, hs3 := newTestServer(t, t.TempDir())
	ref := submit(t, hs3.URL, `{"scenario":"benign","duration":"6s","seed":3,"keybits":512}`)
	refFinal := waitState(t, hs3.URL, ref.ID, JobDone)
	if final.Result.Digest != refFinal.Result.Digest {
		t.Errorf("suspended digest %s != uninterrupted digest %s",
			final.Result.Digest, refFinal.Result.Digest)
	}
}

func TestJobRecordRoundTrip(t *testing.T) {
	path := t.TempDir() + "/job.json"
	rec := JobRecord{ID: "j0007", State: JobQueued, CheckpointEveryNS: int64(5 * time.Second), Resumes: 2}
	if err := WriteJob(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJob(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.State != rec.State || got.Resumes != 2 ||
		got.CheckpointEveryNS != rec.CheckpointEveryNS {
		t.Errorf("round trip: %+v != %+v", got, rec)
	}
	if _, err := ReadJob(t.TempDir() + "/missing.json"); err == nil {
		t.Error("ReadJob on a missing file must error")
	}
}
