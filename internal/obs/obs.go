// Package obs is the deterministic observability layer of the repro: it
// collects monotonic counters, fixed-bucket histograms, hierarchical
// timing spans, and a structured JSONL protocol-event trace from a
// simulation run.
//
// Determinism contract: everything obs records with the default options
// is derived from simulated time and protocol state, so two runs of the
// same seed produce byte-identical traces and summaries. The only wall-
// clock read in the package is wallNow (wallclock.go): spans reach it
// only when Options.Profile is set — the explicitly nondeterministic
// profiling mode — and other packages reach it only through Stopwatch,
// whose readings are reported, never simulated on. The nodeterminism
// analyzer configuration sanctions it as such.
//
// Nil-safety contract: every method on *Sink (and on Span values obtained
// from one) is safe to call on a nil receiver and does nothing. Code under
// instrumentation threads a nil-by-default *Sink and pays one pointer
// check when observability is off; it never branches on "is obs enabled".
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"nwade/internal/ordered"
)

// Options configures a Sink.
type Options struct {
	// Trace, when non-nil, receives the JSONL protocol-event trace
	// (one record per line: meta, ev, net, and a final sum record).
	Trace io.Writer
	// Profile enables wall-clock span timing. The resulting WallNS span
	// fields are nondeterministic by nature; everything else in the
	// trace and summary stays replay-stable.
	Profile bool
}

// Sink accumulates a run's observability data. The zero value is not
// usable; construct with New. A nil *Sink is the disabled layer: all
// methods are no-ops.
//
// A Sink is safe for concurrent use; the simulator is single-threaded,
// but the virtual network takes its own lock and bench harnesses may
// drive several engines.
type Sink struct {
	mu    sync.Mutex
	opts  Options
	err   error // first trace-write error
	cnt   [numCounters]uint64
	hists [numHists]histogram
	stack []spanFrame
	spans map[string]*SpanStat
	// netKinds aggregates per-message-kind transmissions (one entry per
	// Unicast/Broadcast send, mirroring vnet's own stats).
	netKinds map[string]*KindStat
}

// New builds a Sink. Options may be zero: the Sink then only aggregates
// counters, histograms and spans in memory.
func New(o Options) *Sink {
	s := &Sink{
		opts:     o,
		spans:    make(map[string]*SpanStat),
		netKinds: make(map[string]*KindStat),
	}
	for i := range s.hists {
		s.hists[i].init(histDefs[i].bounds)
	}
	return s
}

// Enabled reports whether the layer is live (s != nil). Instrumented code
// does not need it — every method is nil-safe — but CLIs use it to decide
// whether to print a summary.
func (s *Sink) Enabled() bool { return s != nil }

// Inc adds one to a counter.
func (s *Sink) Inc(c Counter) { s.Add(c, 1) }

// Add adds n to a counter.
func (s *Sink) Add(c Counter, n uint64) {
	if s == nil || c >= numCounters {
		return
	}
	s.mu.Lock()
	s.cnt[c] += n
	s.mu.Unlock()
}

// Counter returns a counter's current value.
func (s *Sink) Counter(c Counter) uint64 {
	if s == nil || c >= numCounters {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cnt[c]
}

// Observe records one sample into a fixed-bucket histogram.
func (s *Sink) Observe(h HistID, v float64) {
	if s == nil || h >= numHists {
		return
	}
	s.mu.Lock()
	s.hists[h].observe(v)
	s.mu.Unlock()
}

// KindStat is the per-message-kind network aggregate.
type KindStat struct {
	Kind    string `json:"kind"`
	Packets int    `json:"packets"`
	Bytes   int    `json:"bytes"`
}

// Event records one protocol event into the trace and nothing else; the
// protocol cores own the per-event counters.
func (s *Sink) Event(at time.Duration, typ string, actor, subject uint64, info string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Trace == nil {
		return
	}
	s.writeRecord(Ev{K: recEv, T: int64(at), Type: typ, Actor: actor, Subject: subject, Info: info})
}

// NetSend records one transmission on the virtual network: counters, the
// per-kind aggregate, the message-size histogram, and a trace record.
// A broadcast counts as one transmission (one packet on the shared
// medium), matching vnet's accounting.
func (s *Sink) NetSend(at time.Duration, from, to, kind string, size int, broadcast bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cnt[CntNetPackets]++
	s.cnt[CntNetBytes] += uint64(size)
	ks := s.netKinds[kind]
	if ks == nil {
		ks = &KindStat{Kind: kind}
		s.netKinds[kind] = ks
	}
	ks.Packets++
	ks.Bytes += size
	s.hists[HistMsgBytes].observe(float64(size))
	if s.opts.Trace != nil {
		s.writeRecord(Net{K: recNet, T: int64(at), Kind: kind, From: from, To: to, Bytes: size, Bcast: broadcast})
	}
}

// Summary returns the aggregated view of everything the Sink collected,
// with deterministic ordering: counters in enum order (zeros omitted),
// network kinds and spans sorted by key.
func (s *Sink) Summary() Summary {
	if s == nil {
		return Summary{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summaryLocked()
}

func (s *Sink) summaryLocked() Summary {
	sum := Summary{K: recSum}
	for c := Counter(0); c < numCounters; c++ {
		if s.cnt[c] != 0 {
			sum.Counters = append(sum.Counters, CounterStat{Name: c.String(), Value: s.cnt[c]})
		}
	}
	for _, kind := range ordered.Keys(s.netKinds) {
		sum.Net = append(sum.Net, *s.netKinds[kind])
	}
	for _, path := range ordered.Keys(s.spans) {
		sum.Spans = append(sum.Spans, *s.spans[path])
	}
	for h := HistID(0); h < numHists; h++ {
		if st := s.hists[h].stat(h); st.N > 0 {
			sum.Hists = append(sum.Hists, st)
		}
	}
	return sum
}

// Close flushes the final summary record to the trace (when tracing) and
// returns the first write error encountered, if any. Closing a nil Sink
// is a no-op.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Trace != nil {
		s.writeRecord(s.summaryLocked())
	}
	return s.err
}

// Err returns the first trace-write error.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// WriteReport prints the human-readable summary (the -obs flag).
func (s *Sink) WriteReport(w io.Writer) {
	if s == nil {
		return
	}
	sum := s.Summary()
	fmt.Fprintf(w, "observability summary\n")
	if len(sum.Counters) > 0 {
		fmt.Fprintf(w, "  counters:\n")
		for _, c := range sum.Counters {
			fmt.Fprintf(w, "    %-22s %d\n", c.Name, c.Value)
		}
	}
	if len(sum.Net) > 0 {
		fmt.Fprintf(w, "  network (per kind):\n")
		for _, k := range sum.Net {
			fmt.Fprintf(w, "    %-22s %6d pkts %10d bytes\n", k.Kind, k.Packets, k.Bytes)
		}
	}
	if len(sum.Spans) > 0 {
		fmt.Fprintf(w, "  spans:\n")
		for _, sp := range sum.Spans {
			line := fmt.Sprintf("    %-28s count=%-8d items=%-8d sim=%v", sp.Path, sp.Count, sp.Items, time.Duration(sp.SimNS))
			if sp.WallNS > 0 {
				line += fmt.Sprintf(" wall=%v", time.Duration(sp.WallNS))
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, h := range sum.Hists {
		fmt.Fprintf(w, "  histogram %s: n=%d sum=%.0f\n", h.Name, h.N, h.Sum)
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			label := "+Inf"
			if i < len(h.Bounds) {
				label = fmt.Sprintf("%.0f", h.Bounds[i])
			}
			fmt.Fprintf(w, "    le %-8s %d\n", label, c)
		}
	}
}
