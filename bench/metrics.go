package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// carries the same names with their direction and bounds; the smoke test
// holds the two lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run. A unit below is one simulation run (cross4-dense,
// grid3x3-attack), one Fig. 4 sweep pass (sweep-fig4) or one daemon job
// (serve-ckpt).
var endToEnd = []metricDef{
	// Simulated seconds per host second: a unit's simulated time over
	// the time spent simulating it, the median over units.
	{"sim_s_per_s", "sim-s/s"},
	// Unit latency, for a job from when it was due until it was seen
	// done: the median and the 75th percentile.
	{"job_p50_s", "s"},
	{"job_p75_s", "s"},
	// Median construction time of the workload's engine, keys supplied.
	{"setup_s", "s"},
	// Memory high-water mark while one unit runs (the Go runtime's
	// resident estimate, sampled every 5 ms), the median over units.
	{"peak_mem_mb", "MB"},
}

// phases are the eight tick phases of sim.Engine.step, in tick order.
var phases = []string{"spawn", "reindex", "deliver", "physics", "regrid", "im", "vehicles", "collisions"}

// layouts are the intersection layouts intersection.Build constructs.
var layouts = []string{"cross4", "roundabout3", "irregular5", "cfi4", "ddi4"}

// perLayer are the metrics of single layers, reported by every traced
// run. README.md says which end-to-end metric each should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.tick_us", "us"},
		{"sim.tick_growth", "ratio"},
	}
	for _, p := range phases {
		defs = append(defs, metricDef{"sim.phase." + p + "_us", "us"})
	}
	defs = append(defs,
		metricDef{"sim.deliver_items", "items/tick"},
		metricDef{"sim.im_items", "items/tick"},
		metricDef{"sim.vehicles_items", "items/tick"},
		metricDef{"sim.trace_overhead", "ratio"},
		metricDef{"pool.speedup", "x"},
		metricDef{"pool.serial_frac", "ratio"},
		metricDef{"pool.amdahl_2", "x"},
		metricDef{"pool.amdahl_4", "x"},
		metricDef{"chain.verify_us", "us"},
		metricDef{"chain.merkle_us", "us"},
		metricDef{"chain.package_us", "us"},
		metricDef{"chain.algo1_us", "us"},
		metricDef{"chain.sig_checks", "count"},
		metricDef{"chain.blocks_packaged", "count"},
		metricDef{"chain.verifies_per_block", "ratio"},
		metricDef{"chain.crypto_share", "ratio"},
		metricDef{"chain.keygen_ms", "ms"},
		metricDef{"plan.conflict_checks", "count"},
		metricDef{"plan.check_ns", "ns"},
		metricDef{"sched.schedule_us_p50", "us"},
		metricDef{"sched.schedule_us_p90", "us"},
		metricDef{"sched.calls", "count"},
		metricDef{"sched.admit_ratio", "ratio"},
		metricDef{"vnet.packets_per_sim_s", "pkts/sim-s"},
		metricDef{"vnet.bytes_per_sim_s", "B/sim-s"},
		metricDef{"vnet.fanout", "ratio"},
		metricDef{"vnet.deliver_us_per_msg", "us"},
		metricDef{"vnet.refetch_share", "ratio"},
	)
	for _, l := range layouts {
		defs = append(defs, metricDef{"intersection.build_ms." + l, "ms"})
	}
	defs = append(defs,
		metricDef{"roadnet.region_imbalance", "ratio"},
		metricDef{"roadnet.handoffs", "count"},
		metricDef{"roadnet.backbone_packets", "count"},
		metricDef{"snap.snapshot_ms", "ms"},
		metricDef{"snap.encode_ms", "ms"},
		metricDef{"snap.write_ms", "ms"},
		metricDef{"snap.decode_ms", "ms"},
		metricDef{"snap.ckpt_mb", "MB"},
		metricDef{"snap.ckpt_share", "ratio"},
		metricDef{"serve.queue_share", "ratio"},
		metricDef{"serve.submit_share", "ratio"},
		metricDef{"serve.gen_lag_share", "ratio"},
		metricDef{"serve.refused", "count"},
		metricDef{"eval.round_ms", "ms"},
	)
	return defs
}()

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its JSON form is the last line a run
// prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the result of a run from its raw values: every metric of
// the mode's list must be present and finite, and end-to-end metrics
// must be positive. A violation is a failed check, never a silent zero.
func fill(raw map[string]float64, defs []metricDef, attempted, failed int, e2e bool, log io.Writer) result {
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := raw[d.name]
		res.Attempted++
		switch {
		case !ok:
			fmt.Fprintf(log, "bench: metric %s was not measured\n", d.name)
			res.Failed++
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			fmt.Fprintf(log, "bench: metric %s is not finite (%v)\n", d.name, v)
			res.Failed++
			v = 0
		case e2e && v <= 0:
			fmt.Fprintf(log, "bench: end-to-end metric %s is %v, want > 0\n", d.name, v)
			res.Failed++
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
	return res
}

// writeResult prints every metric as "name value unit", then the result
// as one JSON line — the line the benchmark contract reads.
func writeResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// lastJSONLine extracts the result line from a run's standard output.
func lastJSONLine(out string) (result, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var res result
	if len(lines) == 0 {
		return res, fmt.Errorf("bench: empty output")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("bench: result line: %w", err)
	}
	return res, nil
}
