package platform

import (
	"fmt"
	"sync"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// MultiQueue models an RSS-style multi-queue NIC feeding one engine
// from several cores: packets are hash-partitioned by 5-tuple across W
// worker queues, and each worker drains its queue through the
// platform's ProcessBatch. Because the partition key is the flow hash,
// all packets of a flow land on the same worker, which preserves
// per-flow ordering — the same guarantee hardware RSS gives — while
// disjoint flows proceed in parallel on the engine's FID-sharded state.
type MultiQueue struct {
	p       Platform
	workers int
	batch   int

	// Multi-chain fair-share mode (SetClasses): each worker splits its
	// queue into per-class subqueues via route and drains them
	// weighted-round-robin through the class platforms.
	classes []ChainClass
	route   func(*packet.Packet) int

	// Per-worker telemetry, nil slices when the wrapped engine has no
	// hub: queueDepth[w] is set at partition time, workerPkts[w] counts
	// packets the worker completed.
	queueDepth []*telemetry.Gauge
	workerPkts []*telemetry.Counter
}

// ChainClass pairs one chain's platform with a scheduling weight for
// fair-share draining in a multi-chain topology.
type ChainClass struct {
	// Platform processes the class's packets (one chain's engine).
	Platform Platform
	// Weight is the class's relative share, >= 1: per scheduling round
	// a class may process up to Weight×quantum packets before yielding
	// to the next class (quantum = the batch size, min 1). A tenant
	// flooding one chain therefore delays other chains' packets by at
	// most one round of bounded quanta, not by its whole backlog.
	Weight int
}

// NewMultiQueue wraps the platform with a workers-way RSS dispatcher.
func NewMultiQueue(p Platform, workers int) (*MultiQueue, error) {
	if p == nil {
		return nil, fmt.Errorf("platform: multiqueue: nil platform")
	}
	if workers < 1 {
		return nil, fmt.Errorf("platform: multiqueue: workers must be >= 1, got %d", workers)
	}
	m := &MultiQueue{p: p, workers: workers}
	if hub := p.Engine().Telemetry(); hub != nil {
		m.queueDepth = make([]*telemetry.Gauge, workers)
		m.workerPkts = make([]*telemetry.Counter, workers)
		for w := 0; w < workers; w++ {
			m.queueDepth[w] = hub.Registry.Gauge(
				fmt.Sprintf(`speedybox_mq_queue_depth{worker="%d"}`, w),
				"Packets partitioned to the worker's queue in the current run")
			m.workerPkts[w] = hub.Registry.Counter(
				fmt.Sprintf(`speedybox_mq_worker_packets_total{worker="%d"}`, w),
				"Packets completed by the worker")
		}
	}
	return m, nil
}

// Workers returns the configured queue count.
func (m *MultiQueue) Workers() int { return m.workers }

// SetBatchSize sets the workers' vector size: each worker owns a Batch
// (rule cache, pooled results) and feeds its queue through the
// platform's ProcessBatch in n-packet vectors. n <= 1, including
// NewMultiQueue's default of 0, means one-packet vectors. Call before
// Run, not during one.
func (m *MultiQueue) SetBatchSize(n int) { m.batch = n }

// BatchSize returns the configured vector size (0 or 1 = one packet).
func (m *MultiQueue) BatchSize() int { return m.batch }

// vec returns the effective vector size.
func (m *MultiQueue) vec() int { return max(m.batch, 1) }

// Platform returns the wrapped platform.
func (m *MultiQueue) Platform() Platform { return m.p }

// SetClasses switches the dispatcher to multi-chain fair-share mode:
// route maps each packet to a class index (out-of-range falls back to
// class 0, whose platform also reports parse errors), and every worker
// drains its per-class subqueues weighted-round-robin through the
// class platforms instead of the wrapped one. Flow-hash partitioning
// is unchanged — a flow still lands on exactly one worker, and because
// routing is flow-stable, on exactly one class there — so per-flow
// ordering survives; only cross-chain interleaving changes, which no
// chain can observe. An empty classes slice returns to single-chain
// mode. Call before Run, not during one.
func (m *MultiQueue) SetClasses(classes []ChainClass, route func(*packet.Packet) int) error {
	if len(classes) == 0 {
		m.classes, m.route = nil, nil
		return nil
	}
	if route == nil {
		return fmt.Errorf("platform: multiqueue: classes without a route function")
	}
	for i, c := range classes {
		if c.Platform == nil {
			return fmt.Errorf("platform: multiqueue: class %d has a nil platform", i)
		}
		if c.Weight < 1 {
			return fmt.Errorf("platform: multiqueue: class %d weight must be >= 1, got %d", i, c.Weight)
		}
	}
	m.classes = classes
	m.route = route
	return nil
}

// partition maps a flow's home FID (flow.HashTuple) to a worker queue.
// For worker counts up to the engine's shard count, the mapping groups
// whole state shards into contiguous per-worker ranges: the engine
// shards every per-flow structure — flow table, Global MAT, stats,
// degradation ladder — by the FID's low ShardCount bits, and flow-table
// collision probing advances in ShardCount strides, so those bits are
// stable for every FID a flow can end up with. Each shard (and each
// shard's mutexes and cache lines) is then touched by exactly one
// worker for the whole run instead of ping-ponging between cores.
// Worker counts above the shard count cannot own whole shards and fall
// back to plain modulo.
func (m *MultiQueue) partition(home flow.FID) int {
	w := uint32(m.workers)
	if w <= flow.ShardCount {
		shard := uint32(home) & (flow.ShardCount - 1)
		return int(shard * w / flow.ShardCount)
	}
	return int(uint32(home) % w)
}

// drainClasses feeds one worker's queue through the class platforms in
// weighted-round-robin order: per round, class c processes up to
// Weight×quantum of its own backlog (quantum = the vector size), then
// yields. Packets keep their
// arrival order within a class (per-flow order), while classes
// interleave at quantum granularity — the fair-share guarantee.
func (m *MultiQueue) drainClasses(w int, q []*packet.Packet, res *RunResult) error {
	nc := len(m.classes)
	sub := make([][]*packet.Packet, nc)
	for _, pkt := range q {
		c := m.route(pkt)
		if c < 0 || c >= nc {
			c = 0
		}
		sub[c] = append(sub[c], pkt)
	}
	vec := m.vec()
	batches := make([]*Batch, nc)
	off := make([]int, nc)
	for remaining := len(q); remaining > 0; {
		for c := 0; c < nc; c++ {
			for budget := m.classes[c].Weight * vec; budget > 0 && off[c] < len(sub[c]); {
				end := min(off[c]+budget, off[c]+vec, len(sub[c]))
				span := sub[c][off[c]:end]
				if batches[c] == nil {
					batches[c] = NewBatch(vec)
				}
				ms, err := m.classes[c].Platform.ProcessBatch(span, batches[c])
				if err != nil {
					return fmt.Errorf("platform %s: queue %d class %d batch at packet %d: %w",
						m.classes[c].Platform.Name(), w, c, off[c], err)
				}
				res.Fold(ms)
				if m.workerPkts != nil {
					m.workerPkts[w].Add(uint64(len(span)))
				}
				budget -= len(span)
				off[c] = end
				remaining -= len(span)
			}
		}
	}
	return nil
}

// drain feeds one worker's queue through the platform in vec-packet
// vectors, reusing a worker-owned Batch (rule cache and result storage
// persist across vectors of the same queue — by the RSS partition,
// exactly the packets of the worker's own flows).
func (m *MultiQueue) drain(w int, q []*packet.Packet, res *RunResult) error {
	vec := m.vec()
	b := NewBatch(vec)
	for off := 0; off < len(q); off += vec {
		ms, err := m.p.ProcessBatch(q[off:min(off+vec, len(q))], b)
		if err != nil {
			return fmt.Errorf("platform %s: queue %d batch at packet %d: %w",
				m.p.Name(), w, off, err)
		}
		res.Fold(ms)
		if m.workerPkts != nil {
			m.workerPkts[w].Add(uint64(len(ms)))
		}
	}
	return nil
}

// Run partitions the trace across the workers and processes the queues
// concurrently, aggregating the same measurements as the serial Run.
// Packet buffers are consumed (the platform mutates or drops them).
// Packets that cannot be partitioned (unparseable) are sent to queue 0,
// where the platform reports the parse error. The first worker error
// (by worker index) is returned; statistics are a merge of all
// workers' completed packets.
func (m *MultiQueue) Run(pkts []*packet.Packet) (*RunResult, error) {
	queues := make([][]*packet.Packet, m.workers)
	for _, pkt := range pkts {
		w := 0
		if ft, err := pkt.FiveTuple(); err == nil {
			w = m.partition(flow.HashTuple(ft))
		}
		queues[w] = append(queues[w], pkt)
	}
	if m.queueDepth != nil {
		for w, q := range queues {
			m.queueDepth[w].Set(int64(len(q)))
		}
	}

	// Each worker folds into its own partial, merged after all join,
	// so workers never share a counter or map during the run.
	parts := make([]*RunResult, m.workers)
	errs := make([]error, m.workers)
	var wg sync.WaitGroup
	for w := 0; w < m.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = NewRunResult(m.p.Model())
			if m.classes != nil {
				errs[w] = m.drainClasses(w, queues[w], parts[w])
			} else {
				errs[w] = m.drain(w, queues[w], parts[w])
			}
		}(w)
	}
	wg.Wait()

	res := NewRunResult(m.p.Model())
	res.QueueDepths = make([]int, m.workers)
	var firstErr error
	for w, q := range queues {
		res.QueueDepths[w] = len(q)
		res.Merge(parts[w])
		if firstErr == nil {
			firstErr = errs[w]
		}
	}
	if m.classes != nil {
		for _, c := range m.classes {
			res.Stats.Add(c.Platform.Engine().Stats())
		}
	} else {
		res.Stats = m.p.Engine().Stats()
	}
	return res, firstErr
}
