package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"nwade/internal/cliconf"
	"nwade/internal/serve"
)

// clock is the time source of the open-loop generator; tests replace it.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// jobAPI is the daemon as the generator sees it.
type jobAPI interface {
	// submit posts job i; refused reports a 429/503 admission refusal.
	submit(i int) (id string, refused bool, err error)
	// status returns a job's state and, once done, its result digest.
	status(id string) (state, digest string, err error)
}

// jobTimes is one job's timeline as the client saw it.
type jobTimes struct {
	id      string
	refused bool
	state   string
	digest  string
	// due is when the schedule called for the submission; sent and
	// accepted bracket the submit request; running and done are the
	// polls that first saw those states.
	due, sent, accepted, running, done time.Time
}

// latency is measured from the due time, so a generator that falls
// behind charges its lateness to the jobs it delays.
func (j jobTimes) latency() time.Duration { return j.done.Sub(j.due) }

// openLoop submits n jobs one interval apart regardless of how earlier
// jobs fare, and polls every unfinished job each pollEvery.
type openLoop struct {
	clk       clock
	n         int
	interval  time.Duration
	pollEvery time.Duration
	timeout   time.Duration
}

var errSessionTimeout = errors.New("bench: open-loop session timed out")

func (o openLoop) run(api jobAPI) ([]jobTimes, error) {
	start := o.clk.Now()
	jobs := make([]jobTimes, o.n)
	for i := range jobs {
		jobs[i].due = start.Add(time.Duration(i) * o.interval)
	}
	next := 0
	for {
		for next < o.n && !o.clk.Now().Before(jobs[next].due) {
			j := &jobs[next]
			j.sent = o.clk.Now()
			id, refused, err := api.submit(next)
			if err != nil {
				return jobs, err
			}
			j.accepted = o.clk.Now()
			j.id, j.refused = id, refused
			next++
		}
		open := false
		for i := 0; i < next; i++ {
			j := &jobs[i]
			if j.refused || !j.done.IsZero() {
				continue
			}
			open = true
			state, digest, err := api.status(j.id)
			if err != nil {
				return jobs, err
			}
			seen := o.clk.Now()
			switch state {
			case string(serve.JobQueued):
			case string(serve.JobRunning):
				if j.running.IsZero() {
					j.running = seen
				}
			default:
				if j.running.IsZero() {
					j.running = seen
				}
				j.done, j.state, j.digest = seen, state, digest
			}
		}
		if next == o.n && !open {
			return jobs, nil
		}
		if o.clk.Now().Sub(start) > o.timeout {
			return jobs, errSessionTimeout
		}
		wait := o.pollEvery
		if next < o.n {
			wait = min(wait, jobs[next].due.Sub(o.clk.Now()))
		}
		if wait > 0 {
			o.clk.Sleep(wait)
		}
	}
}

// httpJobs drives a daemon over HTTP on one keep-alive connection.
type httpJobs struct {
	base   string
	client *http.Client
	body   func(i int) []byte
}

func (h httpJobs) submit(i int) (string, bool, error) {
	resp, err := h.client.Post(h.base+"/jobs", "application/json", bytes.NewReader(h.body(i)))
	if err != nil {
		return "", false, fmt.Errorf("bench: submit: %w", err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return "", true, nil
	case resp.StatusCode != http.StatusAccepted:
		return "", false, fmt.Errorf("bench: submit: HTTP %d", resp.StatusCode)
	case err != nil:
		return "", false, fmt.Errorf("bench: submit: %w", err)
	}
	return st.ID, false, nil
}

func (h httpJobs) status(id string) (string, string, error) {
	resp, err := h.client.Get(h.base + "/jobs/" + id)
	if err != nil {
		return "", "", fmt.Errorf("bench: status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("bench: status %s: HTTP %d", id, resp.StatusCode)
	}
	var st struct {
		State  string `json:"state"`
		Result *struct {
			Digest string `json:"digest"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", "", fmt.Errorf("bench: status %s: %w", id, err)
	}
	digest := ""
	if st.Result != nil {
		digest = st.Result.Digest
	}
	return st.State, digest, nil
}

// jobSpecs is the size of the job mix: specs with seeds 1..jobSpecs. A
// job's load swings with its Poisson arrivals (20 s jobs of seeds
// 1001-1016 carried 26 to 44 vehicles, checkpoints 3 to 10 MB), so a mix
// drawn afresh from each run's seed made memory and latency depend on
// which heavy specs a run happened to draw. The mix is fixed instead,
// every run submits each spec equally often, and the run's seed draws
// the order the specs arrive in.
const jobSpecs = 6

// jobOrder is the spec index of each job of perms successive seeded
// permutations of the mix.
func jobOrder(seed int64, perms int) []int {
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for i := 0; i < perms; i++ {
		out = append(out, rng.Perm(jobSpecs)...)
	}
	return out
}

// newServe is serve-ckpt: an in-process nwade-serve daemon with its
// default two workers and 5 s checkpoints, fed open-loop over loopback
// HTTP. Job i is {"intersection":"cross4","duration":D,"density":120,
// "seed":1+order[i]}.
func newServe(r *runCtx) (*bench, error) {
	ss, kt, err := keys(1, cliconf.Defaults().KeyBits)
	if err != nil {
		return nil, err
	}
	f := cliconf.Defaults()
	f.Intersection = r.sz.layout
	f.Duration = r.sz.jobDur
	f.Density = 120
	f.Seed = 1
	cfg, err := f.Build()
	if err != nil {
		return nil, err
	}
	rep := spec{scen: cfg, signers: ss}
	b := &bench{rep: rep, keygen: kt, workers: 2, benign: true}
	b.construct = func() error { _, err := rep.build(1, nil, nil); return err }
	// refs are the batch digests of the job specs, computed before the
	// timed section; every job's result must match its spec's. They
	// share one prebuilt layout, which runs identically to a named one.
	var refs []string
	b.warm = func(r *runCtx) error {
		inter, err := cfg.BuildInter()
		if err != nil {
			return err
		}
		refs = refs[:0]
		for k := 0; k < jobSpecs; k++ {
			sp := rep
			sp.scen.Seed = 1 + int64(k)
			sp.scen.Inter = inter
			pr, err := runSpec(sp, 1, nil, nil)
			if err != nil {
				return err
			}
			refs = append(refs, pr.digest)
		}
		h := sha256.New()
		for _, d := range refs {
			fmt.Fprintln(h, d)
		}
		d := hex.EncodeToString(h.Sum(nil))
		r.checkPinned(d)
		fmt.Fprintf(r.log, "bench: %s: digest %s over %d job specs\n", r.name, d, len(refs))
		return wrapperCheck(r, rep)
	}
	b.session = func(r *runCtx) ([]jobTimes, error) {
		perms := max(1, int(r.seconds/r.sz.jobInterval)/jobSpecs)
		order := jobOrder(r.seed, perms)
		jobs, err := session(r, order)
		if err != nil {
			return jobs, err
		}
		for i, j := range jobs {
			r.attempted++
			switch {
			case j.refused:
				r.failed++
				fmt.Fprintf(r.log, "bench: %s: job %d refused\n", r.name, i)
			case j.state != string(serve.JobDone):
				r.failed++
				fmt.Fprintf(r.log, "bench: %s: job %d ended %s\n", r.name, i, j.state)
			default:
				ref := refs[order[i]]
				r.check(j.digest == ref, "job %d digest %s, batch run of its spec %s", i, short(j.digest), short(ref))
			}
		}
		return jobs, nil
	}
	b.measure = func(r *runCtx) ([]unit, error) {
		jobs, err := b.session(r)
		if err != nil {
			return nil, err
		}
		var out []unit
		for _, j := range jobs {
			if j.refused || j.done.IsZero() {
				continue
			}
			out = append(out, unit{
				latency: j.latency(), busy: j.done.Sub(j.running), simSeconds: r.sz.jobDur.Seconds(),
				from: j.sent, to: j.done,
			})
		}
		return out, nil
	}
	return b, nil
}

// session starts a daemon in the run's scratch directory, runs one
// open-loop session of the ordered jobs against it, and shuts it down.
func session(r *runCtx, order []int) ([]jobTimes, error) {
	dir := filepath.Join(r.dir, "serve")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Dir: dir, Workers: 2})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	api := httpJobs{
		base:   ts.URL,
		client: &http.Client{Transport: transport, Timeout: time.Minute},
		body: func(i int) []byte {
			return []byte(fmt.Sprintf(`{"intersection":%q,"duration":%q,"density":120,"seed":%d}`,
				r.sz.layout, r.sz.jobDur, 1+order[i]))
		},
	}
	ol := openLoop{clk: realClock{}, n: len(order), interval: r.sz.jobInterval, pollEvery: 20 * time.Millisecond, timeout: 2 * time.Minute}
	jobs, runErr := ol.run(api)
	transport.CloseIdleConnections()
	ts.Close()
	closeErr := srv.Close()
	if err := os.RemoveAll(dir); err != nil && closeErr == nil {
		closeErr = err
	}
	if runErr != nil {
		return jobs, runErr
	}
	return jobs, closeErr
}
