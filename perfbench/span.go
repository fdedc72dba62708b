package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call, or one vector of calls, the benchmark made
// into a layer's public function. Spans of one vector share Vec, and a
// span opened while another is open on the same path names it as
// Parent (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Vec    int64  `json:"vec"`
	Calls  int    `json:"calls"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write saves them when the run ends.
// A nil recorder records nothing, so untraced runs pay one nil check
// per call site.
type recorder struct {
	epoch time.Time
	spans []span
	vecs  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// vec returns a fresh vector id.
func (r *recorder) vec() int64 {
	if r == nil {
		return 0
	}
	r.vecs++
	return r.vecs
}

// begin opens a span covering calls calls and returns its id.
func (r *recorder) begin(name string, parent int32, vec int64, calls int) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Vec: vec, Calls: calls})
	r.spans[id].Start = int64(time.Since(r.epoch))
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// merged first, so time two children share is subtracted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// perCall returns, for every span name, the median over its spans of
// self time divided by the calls the span covers, in ns.
func perCall(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for i, s := range spans {
		if s.Calls > 0 {
			byName[s.Name] = append(byName[s.Name], float64(self[i])/float64(s.Calls))
		}
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// part is one layer's per-call cost and how many calls of it one
// packet makes on average (its path share times calls per packet).
type part struct {
	name   string
	ns     float64
	weight float64
}

// residual reconciles the parts against the whole: what a packet costs
// end to end minus what the ladder's layers account for.
func residual(whole float64, parts []part) float64 {
	for _, p := range parts {
		whole -= p.ns * p.weight
	}
	return whole
}

func (p part) String() string { return fmt.Sprintf("%s=%.1fns×%.3f", p.name, p.ns, p.weight) }
