package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one benchmark-side trace span: a timed call into a layer.
// Parent is the id of the span open when this one began (0 = none).
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pay one nil check per span.
// It is used from one goroutine.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // indexes into spans of the open spans, innermost last
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	idx := len(l.spans)
	l.spans = append(l.spans, span{
		Workload: l.workload, ID: idx + 1, Parent: parent, Name: name,
		StartNS: time.Since(l.t0).Nanoseconds(),
	})
	l.open = append(l.open, idx)
	return func() {
		l.spans[idx].EndNS = time.Since(l.t0).Nanoseconds()
		for i := len(l.open) - 1; i >= 0; i-- {
			if l.open[i] == idx {
				l.open = append(l.open[:i], l.open[i+1:]...)
				break
			}
		}
	}
}

// write stores the spans as JSONL.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("bench: spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: spans: %w", err)
	}
	return f.Close()
}
