package sfunc

import (
	"fmt"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Schedule is an execution plan for a flow's state-function batches: a
// sequence of stages, each holding the indices of batches that Table I
// allows to run concurrently. Stages execute in order; batches inside a
// stage are charged as parallel (see Execute).
type Schedule struct {
	// Stages holds batch indices grouped by parallel stage.
	Stages [][]int
}

// Plan computes a schedule for the batches in chain order, greedily
// packing consecutive batches into a parallel stage while every pair
// in the stage satisfies Table I. Chain order is preserved across
// stages, which keeps the NF logic equivalent: a batch never starts
// before a non-parallelizable predecessor finishes.
func Plan(batches []Batch) Schedule {
	var s Schedule
	var cur []int
	classes := make([]PayloadClass, len(batches))
	for i, b := range batches {
		classes[i] = b.Class()
	}
	flush := func() {
		if len(cur) > 0 {
			s.Stages = append(s.Stages, cur)
			cur = nil
		}
	}
	for i, b := range batches {
		if b.Empty() {
			continue
		}
		compatible := true
		for _, j := range cur {
			if !Parallelizable(classes[j], classes[i]) {
				compatible = false
				break
			}
		}
		if !compatible {
			flush()
		}
		cur = append(cur, i)
	}
	flush()
	return s
}

// ParallelStages returns how many stages contain more than one batch.
func (s Schedule) ParallelStages() int {
	n := 0
	for _, st := range s.Stages {
		if len(st) > 1 {
			n++
		}
	}
	return n
}

// String renders the plan, e.g. "[0 1] [2]".
func (s Schedule) String() string {
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		parts[i] = fmt.Sprint(st)
	}
	return strings.Join(parts, " ")
}

// ExecResult aggregates an executed schedule. It carries only the
// aggregates the platform formulas consume, so the per-packet fast path
// allocates nothing for it.
type ExecResult struct {
	// Stages is the number of stages that ran.
	Stages int
	// MaxStageCritical is the largest single stage's critical path: the
	// busiest worker core's per-packet cost.
	MaxStageCritical uint64
	// CriticalCycles is the latency-relevant sum over stages: a
	// parallel stage contributes its most expensive batch plus the
	// caller's fork/join overhead, a single-batch stage its batch.
	CriticalCycles uint64
	// TotalCycles is the aggregate work over all batches, fork/join
	// included.
	TotalCycles uint64
}

// addStage folds one executed stage into the result.
func (r *ExecResult) addStage(critical, total uint64) {
	r.Stages++
	if critical > r.MaxStageCritical {
		r.MaxStageCritical = critical
	}
	r.CriticalCycles += critical
	r.TotalCycles += total
}

// Execute runs the schedule on pkt. Every batch runs inline on the
// calling goroutine, stage by stage in chain order; the parallelism of
// §V-C2 is charged rather than executed. A stage of more than one
// batch costs its most expensive batch plus forkJoin on the critical
// path, and the sum of its batches plus forkJoin in total work — the
// Table-I discipline is what makes that charge sound, since the
// co-scheduled batches have no data dependencies on each other.
//
// Execution is fail-fast across stages: if any batch in a stage
// errors, later stages do not run, mirroring an NF chain aborting on a
// processing error. Every batch of the failing stage still runs, and
// the first error in chain order is returned.
func (s Schedule) Execute(batches []Batch, pkt *packet.Packet, forkJoin uint64) (ExecResult, error) {
	var res ExecResult
	for _, stage := range s.Stages {
		var critical, total uint64
		var firstErr error
		for _, bi := range stage {
			c, err := batches[bi].RunSequential(pkt)
			total += c
			if c > critical {
				critical = c
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if len(stage) > 1 {
			critical += forkJoin
			total += forkJoin
		}
		res.addStage(critical, total)
		if firstErr != nil {
			return res, firstErr
		}
	}
	return res, nil
}

// ExecuteSequential runs every batch in chain order with no
// parallelism, for the original-path and ablation (HA-only) modes.
func ExecuteSequential(batches []Batch, pkt *packet.Packet) (ExecResult, error) {
	var res ExecResult
	for _, b := range batches {
		if b.Empty() {
			continue
		}
		c, err := b.RunSequential(pkt)
		res.addStage(c, c)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
