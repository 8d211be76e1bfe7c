package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler records the Go runtime's resident-memory estimate — bytes
// mapped minus bytes released to the OS — every few milliseconds while a
// timed section runs, so each unit's memory high-water mark can be read
// back from its own time window. The process-wide peak (rusage Maxrss)
// is a single extreme value that swings with which jobs happen to
// overlap a GC cycle; the median over units of each unit's peak is the
// steady figure.
type memSampler struct {
	mu   sync.Mutex
	at   []time.Time
	mb   []float64
	stop chan struct{}
	done chan struct{}
}

const memEvery = 5 * time.Millisecond

func startMem() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go m.loop()
	return m
}

func (m *memSampler) loop() {
	defer close(m.done)
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	t := time.NewTicker(memEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		mb := float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / 1e6
		m.mu.Lock()
		m.at = append(m.at, time.Now())
		m.mb = append(m.mb, mb)
		m.mu.Unlock()
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
	}
}

// close stops the sampler and waits for it to exit.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// peak is the highest sample in [from, to], or the first sample after
// from when the window is shorter than the sampling interval.
func (m *memSampler) peak(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	hi, seen := 0.0, false
	for i, t := range m.at {
		if t.Before(from) {
			continue
		}
		if t.After(to) {
			if !seen {
				return m.mb[i]
			}
			break
		}
		hi, seen = max(hi, m.mb[i]), true
	}
	return hi
}
