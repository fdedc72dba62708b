// Command chainsim runs an arbitrary service chain over a synthetic
// (or pcap) trace on either platform model and reports processing
// rate, latency and flow-time percentiles, with and without SpeedyBox.
//
// Usage:
//
//	chainsim -chain nat,maglev,monitor,ipfilter -platform bess
//	chainsim -chain ipfilter,snort,monitor -platform onvm -flows 300
//	chainsim -chain vpn-encap,monitor,vpn-decap -compare=false -sbox
//	chainsim -chain snort,monitor -pcap trace.pcap
//	chainsim -chain nat,monitor -instances 4 -workers 8 -batch 32
//	chainsim -config testdata/chain.json
//	chainsim -chain nat,monitor -fault-rate 0.1 -fault-seed 7
//	chainsim -topo examples/multitenant/topo.json -synflood 400
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	speedybox "github.com/fastpathnfv/speedybox"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/stats"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "chainsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("chainsim", flag.ContinueOnError)
	chainSpec := fs.String("chain", "ipfilter,snort,monitor", "comma-separated NFs: nat, maglev, monitor, ipfilter, ipfilter-deny, snort, vpn-encap, vpn-decap, dos, gateway, ratelimiter, synthetic")
	platformName := fs.String("platform", "bess", "platform model: bess or onvm")
	compare := fs.Bool("compare", true, "run both baseline and SpeedyBox and compare")
	sbox := fs.Bool("sbox", true, "enable SpeedyBox (when -compare=false)")
	seed := fs.Int64("seed", 1, "trace seed")
	flows := fs.Int("flows", 200, "trace size in flows")
	workers := fs.Int("workers", 1, "RSS worker queues: >1 hash-partitions flows across concurrent workers")
	batch := fs.Int("batch", 0, "process packets in vectors of this size (0 = per-packet); composes with -workers")
	instances := fs.Int("instances", 1, "engine instances behind the consistent-hash flow steerer: >1 runs a static cluster (bess only) and reports per-instance stats")
	pcapPath := fs.String("pcap", "", "replay this pcap instead of generating a trace")
	dumpRules := fs.Bool("dump-rules", false, "print the consolidated Global MAT rules after the SpeedyBox run")
	snortRules := fs.String("snort-rules", "", "load Snort rules for snort NFs from this file (Snort rule syntax)")
	faultRate := fs.Float64("fault-rate", 0, "inject control-plane faults into the SpeedyBox variant at this per-decision rate (0 disables; packets are never dropped, only degraded to the slow path)")
	faultSeed := fs.Int64("fault-seed", 1, "fault-injection seed (with -fault-rate); equal seeds replay the identical fault schedule")
	configPath := fs.String("config", "", "build the chain from this JSON chain-spec file (overrides -chain and -platform)")
	topoPath := fs.String("topo", "", "run a multi-chain topology from this JSON topology-spec file (overrides -chain/-config/-platform; see internal/topo for the format)")
	synFlood := fs.Int("synflood", 0, "append this many handshake-only SYN-flood flows clustered mid-trace (adversarial trace model)")
	eventStorm := fs.Float64("eventstorm", 0, "fraction of flows whose every data packet carries the IDS alert signature (adversarial trace model)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. :8080)")
	telemetryLinger := fs.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after the run, for scraping")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", *workers)
	}
	if *instances < 1 {
		return fmt.Errorf("-instances must be >= 1 (got %d)", *instances)
	}
	if *topoPath != "" {
		return runTopo(topoRunConfig{
			path: *topoPath, sbox: *sbox, seed: *seed, flows: *flows,
			workers: *workers, batch: *batch,
			synFlood: *synFlood, eventStorm: *eventStorm,
			faultRate: *faultRate, faultSeed: *faultSeed,
			telemetryAddr: *telemetryAddr, telemetryLinger: *telemetryLinger,
		})
	}

	var spec *chainspec.Spec
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		spec, err = chainspec.Parse(data)
		if err != nil {
			return err
		}
		if spec.Platform != "" {
			*platformName = spec.Platform
		}
	}

	rules := speedybox.DefaultSnortRules()
	if *snortRules != "" {
		text, err := os.ReadFile(*snortRules)
		if err != nil {
			return err
		}
		rules, err = speedybox.ParseSnortRules(string(text))
		if err != nil {
			return err
		}
	}

	names := strings.Split(*chainSpec, ",")
	pktsFor, err := packetSource(*pcapPath, *seed, *flows, *synFlood, *eventStorm)
	if err != nil {
		return err
	}

	// One hub for the whole invocation, attached to the SpeedyBox
	// variant (or the only variant when not comparing); the registry is
	// idempotent, so repeated runs against one hub accumulate.
	var hub *speedybox.Telemetry
	if *telemetryAddr != "" {
		hub = speedybox.NewTelemetry()
		srv, err := speedybox.NewTelemetryServer(*telemetryAddr, hub)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry: %s/metrics  %s/statusz\n", srv.URL(), srv.URL())
		if *telemetryLinger > 0 {
			defer func() {
				fmt.Printf("telemetry: lingering %v for scrapes (ctrl-C to stop)\n", *telemetryLinger)
				time.Sleep(*telemetryLinger)
			}()
		}
	}

	variants := []bool{*sbox}
	if *compare {
		variants = []bool{false, true}
	}
	var results []*speedybox.RunResult
	for _, enabled := range variants {
		opts := speedybox.BaselineOptions()
		if enabled {
			opts = speedybox.DefaultOptions()
		}
		if enabled || !*compare {
			opts.Telemetry = hub
		}
		// Faults target the SpeedyBox control plane; the baseline
		// variant has none to attack, so it runs clean as the
		// comparison anchor. Backend flaps are pool changes both
		// variants would see and are not simulated here (the
		// equivalence oracle in speedybench covers them).
		var inj *speedybox.FaultInjector
		if enabled && *faultRate > 0 {
			inj = speedybox.NewFaultInjector(speedybox.FaultConfig{
				Seed: *faultSeed, Rates: speedybox.UniformFaultRates(*faultRate),
			})
			opts.Faults = inj
		}
		var (
			chain []speedybox.NF
			err   error
		)
		if spec != nil {
			chain, err = spec.Build()
		} else {
			chain, err = buildChain(names, rules)
		}
		if err != nil {
			return err
		}
		if *instances > 1 {
			if *platformName != "bess" {
				return fmt.Errorf("-instances > 1 requires -platform bess (got %q)", *platformName)
			}
			cl, err := speedybox.NewCluster(speedybox.ClusterConfig{
				Chain: chain, Options: opts, Instances: *instances, Hub: hub,
			})
			if err != nil {
				return err
			}
			res, err := cl.Run(pktsFor(), *workers, *batch)
			if err != nil {
				_ = cl.Close()
				return err
			}
			rollup := cl.Instances()
			if cerr := cl.Close(); cerr != nil {
				return cerr
			}
			results = append(results, res)
			report(fmt.Sprintf("%s x%d", *platformName, *instances), enabled, *workers, res)
			for _, ist := range rollup {
				fmt.Printf("  instance %-4s flows=%d epoch=%d packets=%d fastpath=%d slowpath=%d degraded=%d\n",
					ist.Name, ist.Flows, ist.Epoch, ist.Stats.Packets,
					ist.Stats.FastPath, ist.Stats.SlowPath, ist.Stats.DegradedPackets)
			}
			if inj != nil {
				fmt.Printf("%-16s %s\n", "", inj.Summary())
				fmt.Printf("%-16s fallbacks=%d degraded=%d recoveries=%d\n", "",
					res.Stats.SlowPathFallbacks, res.Stats.DegradedPackets, res.Stats.FaultRecoveries)
			}
			continue
		}
		var p speedybox.Platform
		switch *platformName {
		case "bess":
			p, err = speedybox.NewBESS(chain, opts)
		case "onvm":
			p, err = speedybox.NewONVM(chain, opts)
		default:
			return fmt.Errorf("unknown platform %q", *platformName)
		}
		if err != nil {
			return err
		}
		var res *speedybox.RunResult
		if *workers > 1 {
			var mq *speedybox.MultiQueue
			mq, err = speedybox.NewMultiQueue(p, *workers)
			if err != nil {
				_ = p.Close()
				return err
			}
			mq.SetBatchSize(*batch)
			res, err = mq.Run(pktsFor())
		} else {
			res, err = speedybox.RunBatch(p, pktsFor(), max(*batch, 1), nil)
		}
		if err == nil && enabled && *dumpRules {
			fmt.Printf("\nGlobal MAT (%d rules):\n%s\n", p.Engine().Global().Len(), p.Engine().Global().Dump())
		}
		cerr := p.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		results = append(results, res)
		report(*platformName, enabled, *workers, res)
		if inj != nil {
			fmt.Printf("%-16s %s\n", "", inj.Summary())
			fmt.Printf("%-16s fallbacks=%d degraded=%d recoveries=%d\n", "",
				res.Stats.SlowPathFallbacks, res.Stats.DegradedPackets, res.Stats.FaultRecoveries)
		}
	}
	if len(results) == 2 {
		fmt.Printf("\nSpeedyBox vs baseline: latency %+.1f%%  rate %+.1f%%  p50 flow time %+.1f%%\n",
			change(results[0].MeanLatencyMicros(), results[1].MeanLatencyMicros()),
			change(results[0].RateMpps(), results[1].RateMpps()),
			change(stats.Percentile(results[0].FlowTimesMicros(), 50),
				stats.Percentile(results[1].FlowTimesMicros(), 50)))
	}
	return nil
}

func change(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}

// packetSource returns a function producing a fresh packet sequence
// per call (each variant consumes its own copies). A nonzero synFlood
// or eventStorm switches to the adversarial generator.
func packetSource(pcapPath string, seed int64, flows, synFlood int, eventStorm float64) (func() []*speedybox.Packet, error) {
	if pcapPath != "" {
		f, err := os.Open(pcapPath)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		pkts, err := trace.ReadPcap(f)
		if err != nil {
			return nil, err
		}
		return func() []*packet.Packet {
			out := make([]*packet.Packet, len(pkts))
			for i, p := range pkts {
				out[i] = p.Clone()
			}
			return out
		}, nil
	}
	cfg := trace.Config{Seed: seed, Flows: flows, Interleave: true}
	if synFlood > 0 || eventStorm > 0 {
		tr, err := trace.GenerateAdversarial(trace.AdversarialConfig{
			Config: cfg, SYNFloodFlows: synFlood, EventStormFraction: eventStorm,
		})
		if err != nil {
			return nil, err
		}
		return tr.Packets, nil
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return tr.Packets, nil
}

// topoRunConfig carries the -topo mode settings.
type topoRunConfig struct {
	path            string
	sbox            bool
	seed            int64
	flows           int
	workers         int
	batch           int
	synFlood        int
	eventStorm      float64
	faultRate       float64
	faultSeed       int64
	telemetryAddr   string
	telemetryLinger time.Duration
}

// topoTrace synthesizes the topology's traffic: one adversarial
// sub-trace per policy destination port (flows split evenly), merged
// round-robin so the services overlap in time. The SYN flood and event
// storm ride the first port's sub-trace. Policies without a port match
// (CIDR-only rules) share the default-port sub-trace.
func topoTrace(spec *speedybox.TopologySpec, cfg topoRunConfig) ([]*speedybox.Packet, error) {
	var ports []uint16
	seen := map[uint16]bool{}
	for _, p := range spec.Policies {
		if p.DstPortMin != 0 && !seen[p.DstPortMin] {
			ports = append(ports, p.DstPortMin)
			seen[p.DstPortMin] = true
		}
	}
	if len(ports) == 0 {
		ports = []uint16{0} // generator default port
	}
	per := cfg.flows / len(ports)
	if per < 1 {
		per = 1
	}
	var streams [][]*speedybox.Packet
	for i, port := range ports {
		acfg := speedybox.AdversarialTraceConfig{
			Config: speedybox.TraceConfig{
				Seed: cfg.seed + int64(i), Flows: per, DstPort: port, Interleave: true,
			},
		}
		if i == 0 {
			acfg.SYNFloodFlows = cfg.synFlood
			acfg.EventStormFraction = cfg.eventStorm
		}
		tr, err := speedybox.GenerateAdversarialTrace(acfg)
		if err != nil {
			return nil, err
		}
		streams = append(streams, tr.Packets())
	}
	var out []*speedybox.Packet
	for k := 0; ; k++ {
		emitted := false
		for _, s := range streams {
			if k < len(s) {
				out = append(out, s[k])
				emitted = true
			}
		}
		if !emitted {
			return out, nil
		}
	}
}

// runTopo is the -topo mode: build the multi-chain topology, push the
// merged adversarial trace through it (fair-share multi-queue when
// -workers > 1), and report per-chain and per-tenant accounting.
func runTopo(cfg topoRunConfig) error {
	data, err := os.ReadFile(cfg.path)
	if err != nil {
		return err
	}
	spec, err := speedybox.ParseTopology(data)
	if err != nil {
		return err
	}

	opts := speedybox.BaselineOptions()
	if cfg.sbox {
		opts = speedybox.DefaultOptions()
	}
	var inj *speedybox.FaultInjector
	if cfg.sbox && cfg.faultRate > 0 {
		inj = speedybox.NewFaultInjector(speedybox.FaultConfig{
			Seed: cfg.faultSeed, Rates: speedybox.UniformFaultRates(cfg.faultRate),
		})
		opts.Faults = inj
	}
	bc := speedybox.TopologyBuildConfig{Options: opts}
	if cfg.telemetryAddr != "" {
		bc.Hub = speedybox.NewTelemetry()
		srv, err := speedybox.NewTelemetryServer(cfg.telemetryAddr, bc.Hub)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry: %s/metrics  %s/statusz\n", srv.URL(), srv.URL())
		if cfg.telemetryLinger > 0 {
			defer func() {
				fmt.Printf("telemetry: lingering %v for scrapes (ctrl-C to stop)\n", cfg.telemetryLinger)
				time.Sleep(cfg.telemetryLinger)
			}()
		}
	}
	tp, err := speedybox.BuildTopology(spec, bc)
	if err != nil {
		return err
	}
	defer func() { _ = tp.Close() }()

	pkts, err := topoTrace(spec, cfg)
	if err != nil {
		return err
	}
	var res *speedybox.RunResult
	if cfg.workers > 1 {
		mq, err := tp.NewMultiQueue(cfg.workers, cfg.batch)
		if err != nil {
			return err
		}
		res, err = mq.Run(pkts)
		if err != nil {
			return err
		}
	} else {
		res, err = tp.RunBatch(pkts, cfg.batch)
		if err != nil {
			return err
		}
	}

	label := fmt.Sprintf("topo %s", spec.Name)
	if cfg.sbox {
		label += " w/ SBox"
	}
	ft := res.FlowTimesMicros()
	fmt.Printf("%-16s chains=%d packets=%d drops=%d fastpath=%d events=%d\n",
		label, tp.NumChains(), res.Packets, res.Drops, res.Stats.FastPath, res.Stats.EventsFired)
	fmt.Printf("%-16s rate=%.3f Mpps  latency(mean)=%.3f µs  flow p50=%.1f µs  p90=%.1f µs\n",
		"", res.RateMpps(), res.MeanLatencyMicros(),
		stats.Percentile(ft, 50), stats.Percentile(ft, 90))
	if cfg.workers > 1 {
		fmt.Printf("%-16s aggregate(%d queues)=%.3f Mpps\n", "", cfg.workers, res.AggregateRateMpps())
	}
	for i := 0; i < tp.NumChains(); i++ {
		c := tp.Chain(i)
		st := tp.Engine(i).Stats()
		fmt.Printf("  chain %-10s weight=%d packets=%d fastpath=%d slowpath=%d events=%d degraded=%d\n",
			c.Name, c.Weight, st.Packets, st.FastPath, st.SlowPath, st.EventsFired, st.DegradedPackets)
	}
	adm := tp.Admission()
	for _, ten := range spec.Tenants {
		fmt.Printf("  tenant %-4d rules=%d events=%d rule-denied=%d event-denied=%d\n",
			ten.ID, adm.RulesHeld(ten.ID), adm.EventsHeld(ten.ID),
			adm.RuleDenials(ten.ID), adm.EventDenials(ten.ID))
	}
	if inj != nil {
		fmt.Printf("%-16s %s\n", "", inj.Summary())
		fmt.Printf("%-16s fallbacks=%d degraded=%d recoveries=%d\n", "",
			res.Stats.SlowPathFallbacks, res.Stats.DegradedPackets, res.Stats.FaultRecoveries)
	}
	return nil
}

func buildChain(names []string, snortRules []speedybox.SnortRule) ([]speedybox.NF, error) {
	chain := make([]speedybox.NF, 0, len(names))
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		inst := fmt.Sprintf("%s%d", name, i+1)
		var (
			nf  speedybox.NF
			err error
		)
		switch name {
		case "nat":
			nf, err = speedybox.NewMazuNAT(speedybox.MazuNATConfig{
				Name: inst, InternalPrefix: [4]byte{10, 0, 0, 0}, InternalBits: 8,
				ExternalIP: [4]byte{198, 51, 100, 1},
			})
		case "maglev":
			nf, err = speedybox.NewMaglev(speedybox.MaglevConfig{
				Name: inst,
				Backends: []speedybox.MaglevBackend{
					{Name: "a", IP: [4]byte{192, 168, 1, 10}, Port: 8080},
					{Name: "b", IP: [4]byte{192, 168, 1, 11}, Port: 8080},
					{Name: "c", IP: [4]byte{192, 168, 1, 12}, Port: 8080},
				},
			})
		case "monitor":
			nf, err = speedybox.NewMonitor(inst)
		case "ipfilter":
			nf, err = speedybox.NewIPFilter(speedybox.IPFilterConfig{
				Name: inst, Rules: speedybox.PadIPFilterRules(nil, 100),
			})
		case "ipfilter-deny":
			nf, err = speedybox.NewIPFilter(speedybox.IPFilterConfig{
				Name: inst, Rules: speedybox.PadIPFilterRules(nil, 100), DefaultDeny: true,
			})
		case "snort":
			nf, err = speedybox.NewSnort(inst, snortRules)
		case "vpn-encap":
			nf, err = speedybox.NewVPNGateway(speedybox.VPNConfig{Name: inst, Mode: speedybox.VPNEncap})
		case "vpn-decap":
			nf, err = speedybox.NewVPNGateway(speedybox.VPNConfig{Name: inst, Mode: speedybox.VPNDecap})
		case "dos":
			nf, err = speedybox.NewDoSDefender(speedybox.DoSDefenderConfig{Name: inst, SYNThreshold: 100})
		case "gateway":
			nf, err = speedybox.NewMediaGateway(speedybox.MediaGatewayConfig{
				Name: inst, NextHopMAC: [6]byte{0x02, 0, 0, 0, 0, 0x42},
				VoicePorts: []uint16{5060}, VideoPorts: []uint16{8801},
			})
		case "ratelimiter":
			nf, err = speedybox.NewRateLimiter(speedybox.RateLimiterConfig{Name: inst, Quota: 1000})
		case "synthetic":
			nf, err = speedybox.NewSyntheticNF(speedybox.SyntheticConfig{Name: inst})
		default:
			return nil, fmt.Errorf("unknown NF %q", name)
		}
		if err != nil {
			return nil, err
		}
		chain = append(chain, nf)
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("empty chain")
	}
	return chain, nil
}

func report(platformName string, sbox bool, workers int, res *speedybox.RunResult) {
	label := platformName
	if sbox {
		label += " w/ SBox"
	}
	ft := res.FlowTimesMicros()
	fmt.Printf("%-16s packets=%d drops=%d fastpath=%d events=%d\n",
		label, res.Packets, res.Drops, res.Stats.FastPath, res.Stats.EventsFired)
	fmt.Printf("%-16s rate=%.3f Mpps  latency(mean)=%.3f µs  flow p50=%.1f µs  p90=%.1f µs\n",
		"", res.RateMpps(), res.MeanLatencyMicros(),
		stats.Percentile(ft, 50), stats.Percentile(ft, 90))
	if workers > 1 {
		fmt.Printf("%-16s aggregate(%d queues)=%.3f Mpps\n", "", workers, res.AggregateRateMpps())
	}
}
