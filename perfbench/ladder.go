package main

import (
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// layerUnits lists every per-layer metric a traced run prints. A layer
// that does not run on a workload reads 0.
var layerUnits = map[string]string{
	"packet.parse_ns":              "ns",
	"packet.flowkey_ns":            "ns",
	"flow.hashkey_ns":              "ns",
	"flow.acquire_ns":              "ns",
	"classifier.classify_ns":       "ns",
	"mat.lookup_ns":                "ns",
	"mat.exec_ns":                  "ns",
	"mat.install_ns":               "ns",
	"mat.rules":                    "count",
	"event.probe_ns":               "ns",
	"sfunc.exec_ns":                "ns",
	"sfunc.seq_ns":                 "ns",
	"nf.ipfilter_ns":               "ns",
	"nf.snort_ns":                  "ns",
	"nf.monitor_ns":                "ns",
	"nf.mazunat_ns":                "ns",
	"nf.maglev_ns":                 "ns",
	"core.batch_ns":                "ns",
	"core.residual_ns":             "ns",
	"core.fast_frac":               "ratio",
	"core.consolidations_per_kpkt": "1/kpkt",
	"core.fallbacks_per_kpkt":      "1/kpkt",
	"core.flowcache_hit_frac":      "ratio",
	"core.allocs_per_pkt":          "count",
	"core.bytes_per_pkt":           "B",
	"core.gc_per_mpkt":             "1/Mpkt",
	"core.chain_ns":                "ns",
	"core.speedup_vs_chain":        "ratio",
	"cost.cycles_per_pkt":          "cycles",
	"cost.model_ns":                "ns",
	"cost.model_speedup_vs_chain":  "ratio",
	"bess.overhead_ns":             "ns",
	"platform.mq_ns":               "ns",
	"platform.scaling":             "ratio",
	"platform.imbalance":           "ratio",
	"cluster.runs_ns":              "ns",
	"cluster.run_len":              "count",
	"cluster.overhead_ratio":       "ratio",
	"wal.records_per_kpkt":         "1/kpkt",
	"trace.overhead_frac":          "ratio",
	"load.late_p99_us":             "us",
	"load.latency_samples":         "count",
	"load.window_p99_us":           "us",
}

// sinkFID keeps timed hash results live.
var sinkFID flow.FID

const (
	// ladderWindows is how many whole-engine windows the ladder times,
	// alternating Engine.ProcessBatch and Platform.ProcessBatch.
	ladderWindows = 10
	// ladderSample caps the packets each per-call layer is timed on.
	ladderSample = 16384
	vecLen       = core.DefaultBatchSize
)

// ladder times each layer's public functions from outside, on a second
// single-engine stack warmed exactly like the system under test (so
// calls that mutate state never touch the engine whose whole-path
// numbers are reported), and reconciles the parts against the whole.
func ladder(rep *report, w *workload, rp *replay, ref *reference, sut *stack) error {
	rec := rep.spans
	n := len(rp.src)
	vals := make(map[string]float64)

	lad, err := newStack(w, 1)
	if err != nil {
		return err
	}
	defer lad.close()
	verdicts := make([]core.Verdict, n)
	for win := 0; win < 2; win++ { // the warm-up window, then the first steady one
		if err := lad.process(rp.fill(), verdicts); err != nil {
			return err
		}
	}
	eng := lad.plat.Engine()
	model := eng.Model()

	// The whole: windows alternating the engine's and the platform's
	// ProcessBatch, one span per vector under one span per window.
	c0 := lad.counts()
	hits0, miss0 := hubCounter(lad.hub, "speedybox_flow_cache_hits_total"), hubCounter(lad.hub, "speedybox_flow_cache_misses_total")
	cb, pb := core.NewBatch(vecLen), platform.NewBatch(vecLen)
	fids := make([]flow.FID, n)
	var fastIdx, slowIdx []int
	var engNs, platNs []float64
	var cycles, cyclePkts float64
	for win := 0; win < ladderWindows; win++ {
		pkts := rp.fill()
		viaPlat := win%2 == 1
		name := "core.Engine.ProcessBatch"
		if viaPlat {
			name = "bess.Platform.ProcessBatch"
		}
		root := rec.begin(name+"/window", -1, 0, 0)
		var busy int64
		for off := 0; off < n; off += vecLen {
			end := min(off+vecLen, n)
			sp := rec.begin(name, root, rec.vec(), end-off)
			var res []*core.PacketResult
			if viaPlat {
				_, err = lad.plat.ProcessBatch(pkts[off:end], pb)
			} else {
				res, err = eng.ProcessBatch(pkts[off:end], cb)
			}
			rec.end(sp)
			if err != nil {
				return err
			}
			for i, r := range res {
				cycles += float64(r.WorkCycles)
				cyclePkts++
				if win == 0 {
					fids[off+i] = r.FID
					if r.Path == core.PathFast {
						fastIdx = append(fastIdx, off+i)
					} else {
						slowIdx = append(slowIdx, off+i)
					}
				}
			}
			busy += rec.spans[sp].End - rec.spans[sp].Start
		}
		rec.end(root)
		if viaPlat {
			platNs = append(platNs, float64(busy)/float64(n))
		} else {
			engNs = append(engNs, float64(busy)/float64(n))
		}
	}
	c1 := lad.counts()
	pkts := float64(c1.stats.Packets - c0.stats.Packets)
	fastFrac := float64(c1.stats.FastPath-c0.stats.FastPath) / pkts
	consPerPkt := float64(c1.stats.Consolidations-c0.stats.Consolidations) / pkts
	hits := float64(hubCounter(lad.hub, "speedybox_flow_cache_hits_total") - hits0)
	misses := float64(hubCounter(lad.hub, "speedybox_flow_cache_misses_total") - miss0)
	hitFrac := ratio(hits, hits+misses)
	batchNs := median(engNs)
	vals["core.batch_ns"] = batchNs
	overhead := make([]float64, len(platNs))
	for i := range platNs {
		overhead[i] = platNs[i] - engNs[i] // each platform window against the engine window before it
	}
	vals["bess.overhead_ns"] = median(overhead)
	vals["core.fast_frac"] = fastFrac
	vals["core.consolidations_per_kpkt"] = 1000 * consPerPkt
	vals["core.fallbacks_per_kpkt"] = 1000 * float64(c1.stats.SlowPathFallbacks-c0.stats.SlowPathFallbacks) / pkts
	vals["wal.records_per_kpkt"] = 1000 * float64(c1.wal-c0.wal) / pkts
	vals["mat.rules"] = float64(c1.rules)
	vals["core.flowcache_hit_frac"] = hitFrac
	vals["core.chain_ns"] = median(ref.chainNs)
	vals["core.speedup_vs_chain"] = ratio(median(ref.chainNs), batchNs)
	meanCycles := cycles / cyclePkts
	vals["cost.cycles_per_pkt"] = meanCycles
	vals["cost.model_ns"] = meanCycles / model.FreqHz * 1e9
	vals["cost.model_speedup_vs_chain"] = ratio(ref.cycles, meanCycles)

	// The parts, each on copies of the trace's packets. Their results
	// and errors are dropped: these calls are only timed, and the
	// whole-path windows above and the run's reference comparison
	// already check what the same calls produce.
	lt := newLadderTimer(rec, rp.src)
	sample := fastIdx
	if len(sample) == 0 {
		sample = slowIdx
	}
	sample = sample[:min(len(sample), ladderSample)]
	keys := make([][2]uint64, n)
	tuples := make([]packet.FiveTuple, n)
	lt.time("packet.parse_ns", sample, lt.raw, func(k, _ int) { _ = lt.cp[k].Parse() })
	lt.time("packet.flowkey_ns", sample, lt.parsed, func(k, i int) {
		hi, lo, _ := lt.cp[k].FlowKey()
		keys[i] = [2]uint64{hi, lo}
	})
	lt.time("flow.hashkey_ns", sample, nil, func(_, i int) { sinkFID = flow.HashKey(keys[i][0], keys[i][1]) })

	table := flow.NewTable()
	for _, i := range sample {
		tuples[i], _ = rp.src[i].FiveTuple()
		if _, ok := table.Lookup(tuples[i]); !ok {
			if _, err := table.Insert(tuples[i]); err != nil {
				return err
			}
		}
	}
	lt.time("flow.acquire_ns", sample, nil, func(_, i int) { table.Acquire(tuples[i]) })

	cls := classifier.New(flow.NewTable())
	hasRule := func(flow.FID) bool { return true }
	classify := func(k, _ int) { _, _ = cls.Classify(lt.cp[k], hasRule) }
	lt.untimed(sample, lt.raw, classify) // creates and establishes the flows
	lt.time("classifier.classify_ns", sample, lt.raw, classify)

	g := eng.Global()
	lt.time("mat.lookup_ns", fastIdx, nil, func(_, i int) { g.LookupLive(fids[i]) })
	rules := make([]*mat.GlobalRule, n)
	var withRule, withSF, withEvents []int
	for _, i := range fastIdx {
		if r, ok := g.LookupLive(fids[i]); ok {
			rules[i] = r
			withRule = append(withRule, i)
			if len(r.Batches) > 0 {
				withSF = append(withSF, i)
			}
			if eng.Events().Pending(fids[i]) > 0 {
				withEvents = append(withEvents, i)
			}
		}
	}
	lt.time("mat.exec_ns", withRule, lt.parsed, func(k, i int) { _, _ = rules[i].ExecHeader(lt.cp[k]) })
	lt.time("sfunc.exec_ns", withSF, lt.parsed, func(k, i int) {
		_, _ = rules[i].Plan.Execute(rules[i].Batches, lt.cp[k], model.ForkJoin)
	})
	lt.time("sfunc.seq_ns", withSF, lt.parsed, func(k, i int) {
		_, _ = sfunc.ExecuteSequential(rules[i].Batches, lt.cp[k])
	})
	lt.time("event.probe_ns", withEvents, nil, func(_, i int) { eng.Events().Probe(fids[i]) })

	var live []*mat.GlobalRule
	g.ForEach(func(r *mat.GlobalRule) { live = append(live, r) })
	table2 := mat.NewGlobal()
	for _, r := range live {
		table2.Install(r)
	}
	ruleIdx := make([]int, min(len(live), ladderSample))
	for i := range ruleIdx {
		ruleIdx[i] = i
	}
	lt.time("mat.install_ns", ruleIdx, nil, func(_, i int) {
		table2.Remove(live[i].FID)
		table2.Install(live[i])
	})

	nfCalls, err := lt.nfs(w, eng, slowIdx[:min(len(slowIdx), ladderSample)], fids)
	if err != nil {
		return err
	}

	per := perCall(rec.spans)
	for _, name := range []string{
		"packet.parse_ns", "packet.flowkey_ns", "flow.hashkey_ns", "flow.acquire_ns",
		"classifier.classify_ns", "mat.lookup_ns", "mat.exec_ns", "mat.install_ns",
		"event.probe_ns", "sfunc.exec_ns", "sfunc.seq_ns",
		"nf.ipfilter_ns", "nf.snort_ns", "nf.monitor_ns", "nf.mazunat_ns", "nf.maglev_ns",
	} {
		vals[name] = per[name]
	}

	// Reconcile: a fast-path packet parses, builds its flow key,
	// acquires its flow handle on a cache miss, looks its rule up and
	// runs it, probes events and runs state functions where its flow
	// has them; a slow-path packet is classified and traverses the NFs,
	// and some consolidate (install). Whatever the ladder misses is the
	// residual.
	// Flows a window ends by FIN have no rule left to probe: shares are
	// taken over the fast-path packets whose rule is still live.
	nFast := float64(max(len(withRule), 1))
	slowFrac := 1 - fastFrac
	parts := []part{
		{"packet.parse_ns", per["packet.parse_ns"], fastFrac},
		{"packet.flowkey_ns", per["packet.flowkey_ns"], fastFrac},
		{"flow.acquire_ns", per["flow.acquire_ns"], fastFrac * (1 - hitFrac)},
		{"mat.lookup_ns", per["mat.lookup_ns"], fastFrac},
		{"mat.exec_ns", per["mat.exec_ns"], fastFrac},
		{"event.probe_ns", per["event.probe_ns"], fastFrac * float64(len(withEvents)) / nFast},
		{"sfunc.exec_ns", per["sfunc.exec_ns"], fastFrac * float64(len(withSF)) / nFast},
		{"classifier.classify_ns", per["classifier.classify_ns"], slowFrac},
		{"mat.install_ns", per["mat.install_ns"], consPerPkt},
	}
	nSlow := float64(max(min(len(slowIdx), ladderSample), 1))
	for _, name := range sortedKeys(nfCalls) {
		parts = append(parts, part{name, per[name], slowFrac * float64(nfCalls[name]) / nSlow})
	}
	vals["core.residual_ns"] = residual(batchNs, parts)
	rep.parts = parts

	// The platform: the closed loop's own windows.
	if sut.mq != nil {
		mq := median(rep.mqNs)
		vals["platform.mq_ns"] = mq
		vals["platform.scaling"] = ratio(batchNs, mq)
		vals["platform.imbalance"] = imbalance(rep.depths)
	}
	if sut.cl != nil {
		runsNs, runLen, err := clusterRuns(rec, sut, rp)
		if err != nil {
			return err
		}
		vals["cluster.runs_ns"] = runsNs
		vals["cluster.run_len"] = runLen
		vals["cluster.overhead_ratio"] = ratio(runsNs, batchNs)
	}

	if rep.mem.pkts > 0 {
		vals["core.allocs_per_pkt"] = float64(rep.mem.allocs) / float64(rep.mem.pkts)
		vals["core.bytes_per_pkt"] = float64(rep.mem.bytes) / float64(rep.mem.pkts)
		vals["core.gc_per_mpkt"] = 1e6 * float64(rep.mem.gcs) / float64(rep.mem.pkts)
	}
	vals["trace.overhead_frac"] = 1 - ratio(median(rep.mppsTraced), median(rep.mpps))
	vals["load.late_p99_us"] = median(rep.late99)
	vals["load.latency_samples"] = float64(rep.samples)
	vals["load.window_p99_us"] = median(rep.winP99)

	rep.layers = make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		rep.layers[name] = metric{vals[name], unit}
	}
	return nil
}

// ladderTimer times per-call layers over vectors of packet copies.
type ladderTimer struct {
	rec *recorder
	src []*packet.Packet
	cp  []*packet.Packet
}

func newLadderTimer(rec *recorder, src []*packet.Packet) *ladderTimer {
	cp := make([]*packet.Packet, vecLen)
	for i := range cp {
		cp[i] = &packet.Packet{}
	}
	return &ladderTimer{rec: rec, src: src, cp: cp}
}

// raw loads an unparsed copy of trace packet i into slot k.
func (lt *ladderTimer) raw(k, i int) { lt.cp[k].SetFrame(lt.src[i].Data()) }

// parsed loads a parsed copy of trace packet i into slot k.
func (lt *ladderTimer) parsed(k, i int) { lt.src[i].CloneInto(lt.cp[k]) }

// time calls call(k, idx[…]) for every index, in vectors of vecLen
// with one span per vector; prep (when non-nil) fills each vector's
// copies before its span opens.
func (lt *ladderTimer) time(name string, idx []int, prep, call func(k, i int)) {
	for off := 0; off < len(idx); off += vecLen {
		vec := idx[off:min(off+vecLen, len(idx))]
		if prep != nil {
			for k, i := range vec {
				prep(k, i)
			}
		}
		sp := lt.rec.begin(name, -1, lt.rec.vec(), len(vec))
		for k, i := range vec {
			call(k, i)
		}
		lt.rec.end(sp)
	}
}

// untimed is time without spans.
func (lt *ladderTimer) untimed(idx []int, prep, call func(k, i int)) {
	for off := 0; off < len(idx); off += vecLen {
		vec := idx[off:min(off+vecLen, len(idx))]
		for k, i := range vec {
			prep(k, i)
			call(k, i)
		}
	}
}

// nfs runs each slow-path packet's copy through the chain with
// Engine.ProcessNF, NF by NF over a vector, one span per NF and vector
// named by the NF's type, all under one span per vector. It returns
// how many calls each span name made.
func (lt *ladderTimer) nfs(w *workload, eng *core.Engine, idx []int, fids []flow.FID) (map[string]int, error) {
	spec, err := chainspec.Parse([]byte(w.spec))
	if err != nil {
		return nil, err
	}
	calls := make(map[string]int)
	alive := make([]bool, vecLen)
	for off := 0; off < len(idx); off += vecLen {
		vec := idx[off:min(off+vecLen, len(idx))]
		for k, i := range vec {
			lt.parsed(k, i)
			alive[k] = true
		}
		id := lt.rec.vec()
		root := lt.rec.begin("core.slowpath", -1, id, 0)
		for nf, ns := range spec.NFs {
			name := "nf." + ns.Type + "_ns"
			live := 0
			for k := range vec {
				if alive[k] {
					live++
				}
			}
			sp := lt.rec.begin(name, root, id, live)
			for k, i := range vec {
				if !alive[k] {
					continue
				}
				v, _, err := eng.ProcessNF(nf, fids[i], lt.cp[k], false)
				if err != nil || v == core.VerdictDrop {
					alive[k] = false
				}
			}
			lt.rec.end(sp)
			calls[name] += live
		}
		lt.rec.end(root)
	}
	return calls, nil
}

// clusterRuns times Cluster.ProcessRuns in trace order over vectors of
// vecLen: ns per packet (median over windows) and the mean length of
// the same-instance runs it hands each engine.
func clusterRuns(rec *recorder, sut *stack, rp *replay) (nsPerPkt, runLen float64, err error) {
	n := len(rp.src)
	var perWin []float64
	var runs, runPkts int
	fold := func(_ int, ms []platform.Measurement) error {
		runs++
		runPkts += len(ms)
		return nil
	}
	for win := 0; win < 3; win++ {
		pkts := rp.fill()
		root := rec.begin("cluster.ProcessRuns/window", -1, 0, 0)
		var busy int64
		for off := 0; off < n; off += vecLen {
			end := min(off+vecLen, n)
			sp := rec.begin("cluster.ProcessRuns", root, rec.vec(), end-off)
			err := sut.cl.ProcessRuns(pkts[off:end], vecLen, sut.bat, fold)
			rec.end(sp)
			if err != nil {
				return 0, 0, err
			}
			busy += rec.spans[sp].End - rec.spans[sp].Start
		}
		rec.end(root)
		perWin = append(perWin, float64(busy)/float64(n))
	}
	return median(perWin), ratio(float64(runPkts), float64(runs)), nil
}

// imbalance is the median over windows of the deepest worker queue
// over the mean queue.
func imbalance(depths [][]int) float64 {
	var per []float64
	for _, d := range depths {
		total, deepest := 0, 0
		for _, q := range d {
			total += q
			deepest = max(deepest, q)
		}
		per = append(per, ratio(float64(deepest)*float64(len(d)), float64(total)))
	}
	return median(per)
}
