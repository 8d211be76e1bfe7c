package main

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock advances only when the code under test sleeps or a fake call
// costs time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// fakeDaemon runs every job for a fixed service time from its
// acceptance, with unlimited workers; submitting job i costs submitCost[i].
type fakeDaemon struct {
	clk        *fakeClock
	service    time.Duration
	submitCost map[int]time.Duration
	accepted   map[string]time.Time
}

func (d *fakeDaemon) submit(i int) (string, bool, error) {
	d.clk.Sleep(d.submitCost[i])
	id := fmt.Sprintf("j%d", i)
	d.accepted[id] = d.clk.Now()
	return id, false, nil
}

func (d *fakeDaemon) status(id string) (string, string, error) {
	switch age := d.clk.Now().Sub(d.accepted[id]); {
	case age >= d.service:
		return "done", "digest-" + id, nil
	case age > 0:
		return "running", "", nil
	}
	return "queued", "", nil
}

// A generator that stalls charges its lateness to the jobs it delays:
// latency runs from when a job was due, not from when it was sent.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := &fakeDaemon{
		clk:     clk,
		service: 300 * time.Millisecond,
		// Submitting job 1 stalls the generator for 1.5 intervals, so job
		// 2 goes out half an interval late.
		submitCost: map[int]time.Duration{1: 1500 * time.Millisecond},
		accepted:   map[string]time.Time{},
	}
	ol := openLoop{clk: clk, n: 4, interval: time.Second, pollEvery: 10 * time.Millisecond, timeout: time.Minute}
	start := clk.Now()
	jobs, err := ol.run(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if want := start.Add(time.Duration(i) * time.Second); !j.due.Equal(want) {
			t.Errorf("job %d due %v, want %v", i, j.due.Sub(start), want.Sub(start))
		}
		if j.state != "done" || j.digest != fmt.Sprintf("digest-j%d", i) {
			t.Errorf("job %d ended %q with digest %q", i, j.state, j.digest)
		}
	}
	// Job 0: on time, done one service time (rounded up to a poll) later.
	if got := jobs[0].latency(); got < 300*time.Millisecond || got > 320*time.Millisecond {
		t.Errorf("job 0 latency %v, want ~300ms", got)
	}
	// Job 2 was due at 2s but sent at 2.5s: its latency includes the
	// half second the generator owed it.
	if lag := jobs[2].sent.Sub(jobs[2].due); lag != 500*time.Millisecond {
		t.Errorf("job 2 generator lag %v, want 500ms", lag)
	}
	if got := jobs[2].latency(); got < 800*time.Millisecond || got > 820*time.Millisecond {
		t.Errorf("job 2 latency %v, want ~800ms (500ms lag + 300ms service)", got)
	}
	// Measured from the send instead, it would hide the stall.
	if fromSend := jobs[2].done.Sub(jobs[2].sent); fromSend >= jobs[2].latency() {
		t.Errorf("latency from send %v should be shorter than from due %v", fromSend, jobs[2].latency())
	}
	// Job 1's own submit took 1.5s: accepted 1.5s after it was sent.
	if got := jobs[1].accepted.Sub(jobs[1].sent); got != 1500*time.Millisecond {
		t.Errorf("job 1 submit took %v, want 1.5s", got)
	}
}

func TestOpenLoopTimeout(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	d := &fakeDaemon{clk: clk, service: time.Hour, submitCost: map[int]time.Duration{}, accepted: map[string]time.Time{}}
	ol := openLoop{clk: clk, n: 2, interval: time.Second, pollEvery: 100 * time.Millisecond, timeout: 10 * time.Second}
	if _, err := ol.run(d); err != errSessionTimeout {
		t.Fatalf("err = %v, want %v", err, errSessionTimeout)
	}
}
