package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	s.Inc(CntBlocksVerified)
	s.Add(CntNetBytes, 100)
	s.Observe(HistMsgBytes, 1)
	s.Event(time.Second, "report-sent", 1, 2, "")
	s.NetSend(time.Second, "a", "b", "block", 10, false)
	s.WriteMeta(Meta{Seed: 1})
	sp := s.Begin("tick", 0)
	sp.AddItems(3)
	sp.End(time.Second)
	if s.Enabled() {
		t.Fatalf("nil sink reports enabled")
	}
	if got := s.Counter(CntBlocksVerified); got != 0 {
		t.Fatalf("nil sink counter = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if sum := s.Summary(); len(sum.Counters) != 0 {
		t.Fatalf("nil summary non-empty: %+v", sum)
	}
}

func TestCountersAndHistograms(t *testing.T) {
	s := New(Options{})
	s.Inc(CntBlocksVerified)
	s.Add(CntBlocksVerified, 2)
	if got := s.Counter(CntBlocksVerified); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	for _, v := range []float64{10, 64, 65, 20000} {
		s.Observe(HistMsgBytes, v)
	}
	sum := s.Summary()
	var hs *HistStat
	for i := range sum.Hists {
		if sum.Hists[i].Name == "msg-bytes" {
			hs = &sum.Hists[i]
		}
	}
	if hs == nil {
		t.Fatalf("msg-bytes histogram missing from summary")
	}
	if hs.N != 4 {
		t.Fatalf("hist n = %d, want 4", hs.N)
	}
	// 10 and 64 land in the first bucket (le 64), 65 in the second,
	// 20000 in +Inf.
	if hs.Counts[0] != 2 || hs.Counts[1] != 1 || hs.Counts[len(hs.Counts)-1] != 1 {
		t.Fatalf("bucket counts = %v", hs.Counts)
	}
}

func TestSpansNestAndAggregate(t *testing.T) {
	s := New(Options{})
	tick := s.Begin("tick", 0)
	child := s.Begin("deliver", 0)
	child.AddItems(5)
	child.End(0)
	tick.End(100 * time.Millisecond)
	tick2 := s.Begin("tick", 100*time.Millisecond)
	tick2.End(200 * time.Millisecond)
	sum := s.Summary()
	got := make(map[string]SpanStat)
	for _, sp := range sum.Spans {
		got[sp.Path] = sp
	}
	if sp := got["tick"]; sp.Count != 2 || sp.SimNS != int64(200*time.Millisecond) {
		t.Fatalf("tick span = %+v", sp)
	}
	if sp := got["tick/deliver"]; sp.Count != 1 || sp.Items != 5 {
		t.Fatalf("tick/deliver span = %+v", sp)
	}
	if got["tick"].WallNS != 0 {
		t.Fatalf("wall time recorded without profiling mode")
	}
}

func TestUnbalancedSpanEndsChildren(t *testing.T) {
	s := New(Options{})
	outer := s.Begin("outer", 0)
	s.Begin("leaked", 0) // never explicitly ended
	outer.End(time.Second)
	sum := s.Summary()
	paths := make(map[string]bool)
	for _, sp := range sum.Spans {
		paths[sp.Path] = true
	}
	if !paths["outer"] || !paths["outer/leaked"] {
		t.Fatalf("spans = %+v", sum.Spans)
	}
	// The stack must be empty again: a new root span gets a root path.
	root := s.Begin("fresh", 0)
	root.End(0)
	if sum := s.Summary(); func() bool {
		for _, sp := range sum.Spans {
			if sp.Path == "fresh" {
				return false
			}
		}
		return true
	}() {
		t.Fatalf("stack not reset after unbalanced end: %+v", sum.Spans)
	}
}

func TestProfilingRecordsWallTime(t *testing.T) {
	s := New(Options{Profile: true})
	sp := s.Begin("work", 0)
	busy := 0
	for i := 0; i < 1000; i++ {
		busy += i
	}
	_ = busy
	sp.End(0)
	sum := s.Summary()
	if len(sum.Spans) != 1 || sum.Spans[0].WallNS <= 0 {
		t.Fatalf("profiling span = %+v", sum.Spans)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{Trace: &buf})
	s.WriteMeta(Meta{Scenario: "v1", Seed: 42, Intersection: "cross4", DurationNS: int64(time.Minute)})
	s.Event(2*time.Second, "block-broadcast", 0, 0, "seq 0")
	s.NetSend(2*time.Second, "im", "*", "block", 500, true)
	s.Event(3*time.Second, "report-sent", 7, 9, "")
	s.NetSend(3*time.Second, "v7", "im", "incident", 120, false)
	s.Event(4*time.Second, "incident-confirmed", 0, 9, "")
	s.Event(5*time.Second, "evacuation-started", 0, 0, "1 suspects")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Meta == nil || tr.Meta.Seed != 42 || tr.Meta.Scenario != "v1" {
		t.Fatalf("meta = %+v", tr.Meta)
	}
	if len(tr.Events) != 4 || len(tr.Net) != 2 {
		t.Fatalf("events=%d net=%d", len(tr.Events), len(tr.Net))
	}
	if tr.Summary == nil {
		t.Fatalf("summary record missing")
	}
	ts := tr.Stats()
	if ts.NetPackets != 2 || ts.NetBytes != 620 {
		t.Fatalf("net stats = %+v", ts)
	}
	if ts.KindBytes["block"] != 500 || ts.KindPackets["incident"] != 1 {
		t.Fatalf("kind stats = %+v", ts)
	}
	lat, ok := ts.DetectionLatency()
	if !ok || lat != time.Second {
		t.Fatalf("detection latency = %v ok=%v", lat, ok)
	}
	if ts.FirstEvac != 5*time.Second {
		t.Fatalf("first evac = %v", ts.FirstEvac)
	}
	// The summary record matches the live summary.
	if got, want := len(tr.Summary.Net), 2; got != want {
		t.Fatalf("summary net kinds = %d, want %d", got, want)
	}
}

func TestTraceIsByteStable(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		s := New(Options{Trace: &buf})
		s.WriteMeta(Meta{Seed: 7})
		for i := 0; i < 5; i++ {
			s.Event(time.Duration(i)*time.Second, "block-broadcast", 0, 0, "x")
			s.NetSend(time.Duration(i)*time.Second, "im", "*", "block", 100+i, true)
		}
		sp := s.Begin("tick", 0)
		sp.End(time.Second)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("trace not byte-stable:\n%s\n---\n%s", a, b)
	}
	if strings.Count(a, "\n") != 12 { // meta + 5 ev + 5 net + sum
		t.Fatalf("unexpected line count: %d\n%s", strings.Count(a, "\n"), a)
	}
}

func TestNetSendAggregates(t *testing.T) {
	s := New(Options{})
	s.NetSend(0, "im", "*", "block", 400, true)
	s.NetSend(0, "v1", "im", "request", 90, false)
	s.NetSend(0, "v2", "im", "request", 90, false)
	if got := s.Counter(CntNetPackets); got != 3 {
		t.Fatalf("net packets = %d", got)
	}
	if got := s.Counter(CntNetBytes); got != 580 {
		t.Fatalf("net bytes = %d", got)
	}
	sum := s.Summary()
	if len(sum.Net) != 2 || sum.Net[0].Kind != "block" || sum.Net[1].Packets != 2 {
		t.Fatalf("net summary = %+v", sum.Net)
	}
}

func TestWriteReportMentionsSections(t *testing.T) {
	s := New(Options{})
	s.Inc(CntBlocksVerified)
	s.NetSend(0, "im", "*", "block", 400, true)
	sp := s.Begin("tick", 0)
	sp.End(time.Second)
	var buf bytes.Buffer
	s.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"blocks-verified", "block", "tick", "msg-bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCounterAndHistNames(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "" || c.String() == "unknown-counter" {
			t.Fatalf("counter %d unnamed", c)
		}
	}
	if Counter(200).String() != "unknown-counter" {
		t.Fatalf("out-of-range counter name")
	}
	for h := HistID(0); h < numHists; h++ {
		if h.String() == "" || h.String() == "unknown-hist" {
			t.Fatalf("hist %d unnamed", h)
		}
	}
}
