package main

import (
	"bytes"
	"time"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// outputs is what a window produced, packet by packet: the verdict,
// the drop flag and the output bytes.
type outputs struct {
	verdict []core.Verdict
	dropped []bool
	off     []int // data[off[i]:off[i+1]] is packet i's frame
	data    []byte
}

func capture(pkts []*packet.Packet, verdicts []core.Verdict) *outputs {
	o := &outputs{
		verdict: append([]core.Verdict(nil), verdicts...),
		dropped: make([]bool, len(pkts)),
		off:     make([]int, 0, len(pkts)+1),
	}
	o.off = append(o.off, 0)
	for i, p := range pkts {
		o.dropped[i] = p.Dropped()
		o.data = append(o.data, p.Data()...)
		o.off = append(o.off, len(o.data))
	}
	return o
}

// mismatches counts the packets whose verdict, drop flag or bytes
// differ from ref. A nil verdicts slice (the closed loop's
// MultiQueue.Run reports no per-packet verdicts) compares drop flags
// and bytes only.
func mismatches(ref *outputs, pkts []*packet.Packet, verdicts []core.Verdict) int {
	n := 0
	for i, p := range pkts {
		if (verdicts != nil && verdicts[i] != ref.verdict[i]) ||
			p.Dropped() != ref.dropped[i] ||
			!bytes.Equal(p.Data(), ref.data[ref.off[i]:ref.off[i+1]]) {
			n++
		}
	}
	return n
}

// reference is the original chain's behaviour on the trace: a
// BaselineOptions engine fed, from a fresh start, the same windows in
// the same order as the system under test's single-goroutine pass —
// the warm-up window, then the first steady-state window.
type reference struct {
	// want is the first steady-state window's outputs.
	want *outputs
	// stable reports that the baseline produced identical outputs on
	// the next window too, so every later replay of the trace must
	// produce want as well.
	stable bool
	// chainNs is the baseline engine's wall ns per packet on each
	// steady-state window; cycles its mean modeled work per packet.
	chainNs []float64
	cycles  float64
}

func newReference(w *workload, rp *replay, rec *recorder) (*reference, error) {
	chain, err := w.chain()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(chain, core.BaselineOptions())
	if err != nil {
		return nil, err
	}
	b := core.NewBatch(core.DefaultBatchSize)
	verdicts := make([]core.Verdict, len(rp.src))
	ref := &reference{}
	var cycles, pkts float64
	for win := 0; win < 3; win++ {
		buf := rp.fill()
		root := rec.begin("baseline/window", -1, 0, 0)
		start := time.Now()
		for off := 0; off < len(buf); off += core.DefaultBatchSize {
			end := min(off+core.DefaultBatchSize, len(buf))
			sp := rec.begin("baseline.Engine.ProcessBatch", root, rec.vec(), end-off)
			res, err := eng.ProcessBatch(buf[off:end], b)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			for i, r := range res {
				verdicts[off+i] = r.Verdict
				if win > 0 {
					cycles += float64(r.WorkCycles)
				}
			}
		}
		elapsed := time.Since(start)
		rec.end(root)
		switch win {
		case 1:
			ref.want = capture(buf, verdicts)
		case 2:
			ref.stable = mismatches(ref.want, buf, verdicts) == 0
		}
		if win > 0 {
			ref.chainNs = append(ref.chainNs, float64(elapsed.Nanoseconds())/float64(len(buf)))
			pkts += float64(len(buf))
		}
	}
	ref.cycles = cycles / pkts
	return ref, nil
}
