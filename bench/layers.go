package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/roadnet"
	"nwade/internal/sched"
	"nwade/internal/snap"
)

// runTraced measures the per-layer metrics. Every layer number is taken
// from the benchmark's side of a public call: wall times around Step and
// Schedule, the obs profiling sink's phase spans and counters, and
// replays of the run's own blocks and plans after it ends.
func runTraced(r *runCtx, b *bench) error {
	r.set("chain.keygen_ms", median(millis(b.keygen)))
	if b.warm != nil {
		end := r.spans.begin("warm")
		err := b.warm(r)
		end()
		if err != nil {
			return err
		}
	}
	pass := b.pass
	if pass == nil {
		pass = func(r *runCtx, workers int, sink *obs.Sink) (passResult, error) {
			return runSpec(b.rep, workers, sink, nil)
		}
	}
	var wrap *timedSched
	if !b.rep.isNetwork() {
		var err error
		if wrap, err = b.rep.newTimedSched(); err != nil {
			return err
		}
	}
	// The untraced pass is the baseline of the trace overhead; the pool
	// pass repeats it at two workers. Both must digest like the traced one.
	end := r.spans.begin("pass.untraced.w1")
	u1, err := pass(r, 1, nil)
	end()
	if err != nil {
		return err
	}
	sink := obs.New(obs.Options{Profile: true})
	end = r.spans.begin("pass.traced.w1")
	var t1 passResult
	if b.pass == nil && wrap != nil {
		t1, err = runSpec(b.rep, 1, sink, wrap)
	} else {
		t1, err = pass(r, 1, sink)
	}
	end()
	if err != nil {
		return err
	}
	end = r.spans.begin("pass.untraced.w2")
	u2, err := pass(r, 2, nil)
	end()
	if err != nil {
		return err
	}
	r.check(t1.digest == u1.digest, "traced digest %s differs from untraced %s", short(t1.digest), short(u1.digest))
	r.check(u2.digest == u1.digest, "2-worker digest %s differs from 1-worker %s", short(u2.digest), short(u1.digest))

	// The representative run: the pass itself, or (sweep) the densest
	// round run on its own, untraced and through the wrapper.
	rep := u1
	if b.pass != nil {
		end = r.spans.begin("rep.untraced")
		rep, err = runSpec(b.rep, 1, nil, nil)
		end()
		if err != nil {
			return err
		}
		end = r.spans.begin("rep.wrapped")
		wrapped, err := runSpec(b.rep, 1, nil, wrap)
		end()
		if err != nil {
			return err
		}
		r.check(wrapped.digest == rep.digest, "scheduler wrapper changed the digest: %s vs %s", short(wrapped.digest), short(rep.digest))
	}

	simLayer(r, u1, t1, u2, rep, sink)
	ops := chainLayer(r, rep, b, sink, u1.wall)
	planLayer(r, rep, ops, sink)
	var calls []time.Duration
	if wrap != nil {
		calls = wrap.calls()
	} else {
		end = r.spans.begin("replay.sched")
		calls = replaySched(rep.subject)
		end()
	}
	schedLayer(r, calls, sink)
	vnetLayer(r, t1, sink)
	roadnetLayer(r, u1, rep)
	if err := snapLayer(r, b.rep); err != nil {
		return err
	}
	if err := buildLayer(r); err != nil {
		return err
	}
	var jobs []jobTimes
	if b.session != nil {
		end = r.spans.begin("serve.session")
		jobs, err = b.session(r)
		end()
		if err != nil {
			return err
		}
	}
	serveLayer(r, jobs)
	return nil
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// spanStats indexes the sink's phase spans by path.
func spanStats(sink *obs.Sink) map[string]obs.SpanStat {
	out := map[string]obs.SpanStat{}
	for _, s := range sink.Summary().Spans {
		out[s.Path] = s
	}
	return out
}

// simLayer: tick cost, its growth, the eight phases, the in-run pool and
// the tracing overhead.
func simLayer(r *runCtx, u1, t1, u2, rep passResult, sink *obs.Sink) {
	r.set("sim.tick_us", ratio(float64(u1.wall)/float64(time.Microsecond), float64(u1.ticks)))
	r.set("sim.tick_growth", tickGrowth(rep.steps))
	spans := spanStats(sink)
	ticks := float64(spans["tick"].Count)
	for _, p := range phases {
		r.set("sim.phase."+p+"_us", ratio(float64(spans["tick/"+p].WallNS)/1e3, ticks))
	}
	for _, p := range []string{"deliver", "im", "vehicles"} {
		r.set("sim."+p+"_items", ratio(float64(spans["tick/"+p].Items), ticks))
	}
	r.set("sim.trace_overhead", ratio(t1.wall.Seconds(), u1.wall.Seconds()))

	// The serial share of the workload's worker pool: outside the region
	// steps (network), outside the rounds (sweep), or outside the two
	// phases the tick pool shards (one intersection).
	var serial float64
	switch {
	case len(u1.regionWall) > 0:
		serial = 1 - ratio(sumDur(u1.regionWall).Seconds(), u1.wall.Seconds())
	case len(u1.roundWalls) > 0:
		serial = 1 - ratio(sumDur(u1.roundWalls).Seconds(), u1.wall.Seconds())
	default:
		par := float64(spans["tick/deliver"].WallNS + spans["tick/vehicles"].WallNS)
		serial = 1 - ratio(par, float64(spans["tick"].WallNS))
	}
	r.set("pool.speedup", ratio(u1.wall.Seconds(), u2.wall.Seconds()))
	r.set("pool.serial_frac", serial)
	r.set("pool.amdahl_2", amdahl(serial, 2))
	r.set("pool.amdahl_4", amdahl(serial, 4))
	if len(t1.roundWalls) > 0 {
		r.set("eval.round_ms", median(millis(t1.roundWalls)))
	} else {
		r.set("eval.round_ms", float64(t1.wall)/float64(time.Millisecond))
	}
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// tickGrowth is the mean Step time over the last tenth of a run divided
// by the mean over its second tenth (the first tenth is the warm-up: an
// empty road filling).
func tickGrowth(steps []time.Duration) float64 {
	n := len(steps) / 10
	if n == 0 {
		return 0
	}
	return ratio(float64(sumDur(steps[len(steps)-n:])), float64(sumDur(steps[n:2*n])))
}

// chainOps are per-operation wall times from the block replay.
type chainOps struct {
	verify, merkle, pkg, algo1 []time.Duration
	// window is each engine's vehicle-side chain window after the replay,
	// the plans Algorithm 1 checks new blocks against.
	window [][]*plan.TravelPlan
	inters []*intersection.Intersection
}

// chainLayer replays every block the run's managers packaged: signature
// verification, Merkle root, re-packaging with the manager's key, and
// Algorithm 1 into a fresh vehicle-sized chain window.
func chainLayer(r *runCtx, rep passResult, b *bench, sink *obs.Sink, wall time.Duration) chainOps {
	end := r.spans.begin("replay.chain")
	defer end()
	var ops chainOps
	window := nwade.DefaultVehicleConfig().ChainMax
	for i, e := range rep.subject.engines() {
		im := e.IM()
		signer := b.rep.signers[i]
		pub := signer.Public()
		checker := im.Ledger().Checker()
		c := chain.NewChain(pub, window)
		var prev *chain.Block
		rejected := 0
		for _, blk := range im.Blocks() {
			t := time.Now()
			err := chain.VerifySignature(pub, blk)
			ops.verify = append(ops.verify, time.Since(t))
			r.check(err == nil, "replayed block %d signature: %v", blk.Seq, err)

			t = time.Now()
			root, err := chain.MerkleRoot(blk.PlanLeaves())
			ops.merkle = append(ops.merkle, time.Since(t))
			r.check(err == nil && root == blk.Root, "replayed block %d Merkle root: %v", blk.Seq, err)

			t = time.Now()
			again, err := chain.Package(signer, prev, blk.Timestamp, blk.Plans)
			ops.pkg = append(ops.pkg, time.Since(t))
			if r.check(err == nil, "re-packaging block %d: %v", blk.Seq, err) && b.benign {
				r.check(again.HashBlock() == blk.HashBlock(), "re-packaged block %d hashes differently", blk.Seq)
			}

			t = time.Now()
			err = nwade.VerifyBlock(c, checker, blk, nil)
			ops.algo1 = append(ops.algo1, time.Since(t))
			if err != nil {
				// A compromised manager's sabotaged block: keep it in
				// the window so later blocks still link.
				rejected++
				if err := c.AppendVerified(blk); err != nil {
					r.check(false, "appending rejected block %d: %v", blk.Seq, err)
				}
			}
			prev = blk
		}
		if b.benign {
			r.check(rejected == 0, "Algorithm 1 rejected %d blocks of a benign run", rejected)
		}
		ops.window = append(ops.window, c.AllPlans())
		ops.inters = append(ops.inters, checker.Inter)
	}
	verify := median(micros(ops.verify))
	merkle := median(micros(ops.merkle))
	pkg := median(micros(ops.pkg))
	r.set("chain.verify_us", verify)
	r.set("chain.merkle_us", merkle)
	r.set("chain.package_us", pkg)
	r.set("chain.algo1_us", median(micros(ops.algo1)))
	sig := float64(sink.Counter(obs.CntSigChecks))
	packaged := float64(sink.Counter(obs.CntBlocksPackaged))
	roots := float64(sink.Counter(obs.CntMerkleChecks))
	r.set("chain.sig_checks", sig)
	r.set("chain.blocks_packaged", packaged)
	r.set("chain.verifies_per_block", ratio(sig, packaged))
	cryptoUS := sig*verify + roots*merkle + packaged*pkg
	r.set("chain.crypto_share", ratio(cryptoUS/1e6, wall.Seconds()))
	return ops
}

// planLayer times ConflictChecker.Check over every pair of plans in the
// replayed chain windows.
func planLayer(r *runCtx, rep passResult, ops chainOps, sink *obs.Sink) {
	end := r.spans.begin("replay.plan")
	defer end()
	const maxPairs = 20000
	var total time.Duration
	pairs := 0
	for k, plans := range ops.window {
		checker := &plan.ConflictChecker{Inter: ops.inters[k]}
		n := 0
		t := time.Now()
		for i := 0; i < len(plans) && n < maxPairs; i++ {
			for j := i + 1; j < len(plans) && n < maxPairs; j++ {
				checker.Check(plans[i], plans[j])
				n++
			}
		}
		total += time.Since(t)
		pairs += n
	}
	r.set("plan.conflict_checks", float64(sink.Counter(obs.CntConflictChecks)))
	r.set("plan.check_ns", ratio(float64(total.Nanoseconds()), float64(pairs)))
}

// replaySched re-admits each region's packaged plan batches through a
// fresh reservation scheduler, one Schedule call per block — the
// admission timings of a road network, whose regions build their own
// schedulers and so cannot take the wrapper.
func replaySched(s subject) []time.Duration {
	var out []time.Duration
	for _, e := range s.engines() {
		im := e.IM()
		inter := im.Ledger().Checker().Inter
		ledger := sched.NewLedger(inter)
		ts := &timedSched{inner: &sched.Reservation{}}
		for _, blk := range im.Blocks() {
			var reqs []sched.Request
			for _, p := range blk.Plans {
				rt, err := inter.Route(p.RouteID)
				if err != nil || p.Evacuation {
					continue
				}
				ledger.Remove(p.Vehicle)
				reqs = append(reqs, sched.Request{Vehicle: p.Vehicle, Char: p.Char, Route: rt, ArriveAt: p.Status.At, Speed: p.Status.Speed})
			}
			if len(reqs) == 0 {
				continue
			}
			ledger.Prune(blk.Timestamp, 0)
			if ps, err := ts.Schedule(reqs, blk.Timestamp, ledger); err == nil {
				ledger.Add(ps...)
			}
		}
		out = append(out, ts.calls()...)
	}
	return out
}

func schedLayer(r *runCtx, calls []time.Duration, sink *obs.Sink) {
	us := micros(calls)
	r.set("sched.schedule_us_p50", median(us))
	r.set("sched.schedule_us_p90", percentile(us, 90))
	r.set("sched.calls", float64(len(calls)))
	r.set("sched.admit_ratio", ratio(float64(sink.Counter(obs.CntSchedAdmitted)), float64(sink.Counter(obs.CntSchedRequests))))
}

// vnetLayer: traffic per simulated intersection-second, delivery fan-out
// and cost, and the share of packets spent re-fetching missed blocks.
func vnetLayer(r *runCtx, t1 passResult, sink *obs.Sink) {
	packets := float64(sink.Counter(obs.CntNetPackets))
	delivered := float64(sink.Counter(obs.CntNetDelivered))
	r.set("vnet.packets_per_sim_s", ratio(packets, t1.engineSeconds))
	r.set("vnet.bytes_per_sim_s", ratio(float64(sink.Counter(obs.CntNetBytes)), t1.engineSeconds))
	r.set("vnet.fanout", ratio(delivered, packets))
	r.set("vnet.deliver_us_per_msg", ratio(float64(spanStats(sink)["tick/deliver"].WallNS)/1e3, delivered))
	refetch := 0
	for _, k := range sink.Summary().Net {
		if k.Kind == nwade.KindBlockReq || k.Kind == nwade.KindBlockResp {
			refetch += k.Packets
		}
	}
	r.set("vnet.refetch_share", ratio(float64(refetch), packets))
}

// roadnetLayer: region load imbalance and cross-region traffic. A single
// intersection is one region with no links.
func roadnetLayer(r *runCtx, u1, rep passResult) {
	n, ok := rep.subject.(network)
	if !ok {
		r.set("roadnet.region_imbalance", 1)
		r.set("roadnet.handoffs", 0)
		r.set("roadnet.backbone_packets", 0)
		return
	}
	walls := seconds(u1.regionWall)
	hi := 0.0
	for _, w := range walls {
		hi = math.Max(hi, w)
	}
	r.set("roadnet.region_imbalance", ratio(hi, sumDur(u1.regionWall).Seconds()/float64(len(walls))))
	r.set("roadnet.handoffs", float64(n.n.Stats().Handoffs))
	r.set("roadnet.backbone_packets", float64(n.n.BackboneStats().TotalPackets()))
}

// countWriter counts bytes and discards them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// snapLayer is the checkpoint pass: the representative spec from the
// start, checkpointed every snapEvery up to snapUntil the way nwade-serve
// checkpoints a job — snapshot, encode, write, and read back.
func snapLayer(r *runCtx, sp spec) error {
	end := r.spans.begin("snap.pass")
	defer end()
	s, err := sp.build(1, nil, nil)
	if err != nil {
		return err
	}
	cfg := sp.scen
	cfg.Workers = 1
	sspec, err := snap.SpecFromScenario(cfg)
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "ckpt.snap")
	defer os.Remove(path)
	until := min(r.sz.snapUntil, sp.duration())
	next := r.sz.snapEvery
	var snapT, encT, writeT, readT []time.Duration
	var stepT time.Duration
	var size int64
	for s.Now() < until {
		t := time.Now()
		s.Step()
		stepT += time.Since(t)
		if s.Now() < next {
			continue
		}
		next += r.sz.snapEvery
		cw := &countWriter{}
		var ts [5]time.Time
		ts[0] = time.Now()
		switch s := s.(type) {
		case single:
			st, err := s.e.Snapshot()
			if err != nil {
				return err
			}
			ts[1] = time.Now()
			if err := snap.Encode(cw, sspec, st); err != nil {
				return err
			}
			ts[2] = time.Now()
			if err := snap.WriteFile(path, sspec, st); err != nil {
				return err
			}
			ts[3] = time.Now()
			if _, _, err := snap.ReadFile(path); err != nil {
				return err
			}
		case network:
			st, err := s.n.Snapshot()
			if err != nil {
				return err
			}
			ts[1] = time.Now()
			raw, err := st.Encode()
			if err != nil {
				return err
			}
			if err := snap.EncodeNet(cw, sspec, raw); err != nil {
				return err
			}
			ts[2] = time.Now()
			if err := snap.WriteNetFile(path, sspec, raw); err != nil {
				return err
			}
			ts[3] = time.Now()
			_, back, err := snap.ReadNetFile(path)
			if err != nil {
				return err
			}
			if _, err := roadnet.DecodeState(back); err != nil {
				return err
			}
		}
		ts[4] = time.Now()
		snapT = append(snapT, ts[1].Sub(ts[0]))
		encT = append(encT, ts[2].Sub(ts[1]))
		writeT = append(writeT, ts[3].Sub(ts[2]))
		readT = append(readT, ts[4].Sub(ts[3]))
		size = cw.n
	}
	mean := func(ds []time.Duration) float64 {
		return ratio(float64(sumDur(ds))/float64(time.Millisecond), float64(len(ds)))
	}
	r.set("snap.snapshot_ms", mean(snapT))
	r.set("snap.encode_ms", mean(encT))
	r.set("snap.write_ms", mean(writeT))
	r.set("snap.decode_ms", mean(readT))
	r.set("snap.ckpt_mb", float64(size)/1e6)
	// A job pays the snapshot and the write at every checkpoint.
	ckpt := sumDur(snapT) + sumDur(writeT)
	r.set("snap.ckpt_share", ratio(ckpt.Seconds(), (stepT+ckpt).Seconds()))
	fmt.Fprintf(r.log, "bench: %s: checkpoint pass: %d checkpoints to %v, last %.1f MB\n", r.name, len(snapT), until, float64(size)/1e6)
	return nil
}

// buildLayer times intersection.Build for every layout.
func buildLayer(r *runCtx) error {
	end := r.spans.begin("intersection.build")
	defer end()
	for _, name := range layouts {
		kind, ok := intersection.KindByName(name)
		if !ok {
			return fmt.Errorf("bench: unknown layout %q", name)
		}
		var ts []time.Duration
		for i := 0; i < r.sz.buildReps; i++ {
			t := time.Now()
			if _, err := intersection.Build(kind, r.sz.buildCfg); err != nil {
				return err
			}
			ts = append(ts, time.Since(t))
		}
		r.set("intersection.build_ms."+name, median(millis(ts)))
	}
	return nil
}

// serveLayer splits job latency into its queueing share and its submit
// share (the POST round trip, which validates the scenario), and reports
// how late the open-loop generator ran. The rest of the latency is the
// run itself plus poll granularity. Workloads without a daemon report
// zero shares and no refusals.
func serveLayer(r *runCtx, jobs []jobTimes) {
	var lat, queue, submit, lag float64
	refused := 0
	for _, j := range jobs {
		if j.refused {
			refused++
			continue
		}
		lat += j.latency().Seconds()
		queue += j.running.Sub(j.accepted).Seconds()
		submit += j.accepted.Sub(j.sent).Seconds()
		lag = math.Max(lag, j.sent.Sub(j.due).Seconds())
	}
	r.set("serve.queue_share", ratio(queue, lat))
	r.set("serve.submit_share", ratio(submit, lat))
	r.set("serve.gen_lag_share", ratio(lag, r.sz.jobInterval.Seconds()))
	r.set("serve.refused", float64(refused))
}
