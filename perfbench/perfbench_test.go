package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// small returns a copy of a workload on fewer flows, so a whole run
// takes about a second.
func small(t *testing.T, name string, flows int) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.trace.Flows = flows
	return &c
}

func benchOnce(t *testing.T, w *workload, cfg config) *report {
	t.Helper()
	cfg.workload, cfg.seconds = w.name, 1
	rep, err := bench(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "whole", Start: 0, End: 100, Calls: 1},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50, Calls: 1},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 70, Calls: 1},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120, Calls: 1}, // runs past its parent
		{ID: 4, Parent: 1, Name: "d", Start: 20, End: 25, Calls: 1},  // grandchild
	}
	self := selfTimes(spans)
	// whole: [10,70] and [90,100] covered once each, not 40+40+30.
	if want := []int64{30, 35, 40, 30, 5}; !slices.Equal(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	per := perCall(spans)
	if per["whole"] != 30 || per["a"] != 35 {
		t.Fatalf("perCall = %v", per)
	}
}

func TestResidualIsWholeMinusWeightedParts(t *testing.T) {
	// Two vectors of 4 calls each under one root: per-call medians 10
	// and 20 ns; the root's own time is not a part.
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "x", Start: 0, End: 40, Calls: 4},
		{ID: 2, Parent: 0, Name: "x", Start: 100, End: 140, Calls: 4},
		{ID: 3, Parent: 0, Name: "y", Start: 200, End: 280, Calls: 4},
	}
	per := perCall(spans)
	parts := []part{{"x", per["x"], 0.5}, {"y", per["y"], 2}}
	if got, want := residual(100, parts), 100-10*0.5-20*2.0; got != want {
		t.Fatalf("residual = %v, want %v (parts %v)", got, want, parts)
	}
}

func TestCorruptedOutputFails(t *testing.T) {
	for _, name := range []string{"hdr_fastpath", "natlb_churn"} {
		w := small(t, name, 64)
		if rep := benchOnce(t, w, config{seed: 3}); rep.failed != 0 || !rep.refOK {
			t.Fatalf("%s: clean run failed %d of %d (reference compared: %v)", name, rep.failed, rep.attempted, rep.refOK)
		}
		rep := benchOnce(t, w, config{seed: 3, corrupt: true})
		if frac := ratio(float64(rep.failed), float64(rep.attempted)); frac <= 0 {
			t.Fatalf("%s: a corrupted output byte left fail_frac at %v", name, frac)
		}
	}
}

func TestSameSeedSameTraceAndCounts(t *testing.T) {
	w := small(t, "natlb_churn", 200)
	a := benchOnce(t, w, config{seed: 7, trace: true})
	b := benchOnce(t, w, config{seed: 7, trace: true})
	c := benchOnce(t, w, config{seed: 8, trace: true})
	if a.digest != b.digest {
		t.Fatalf("same seed, digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Fatalf("seeds 7 and 8 gave the same trace digest %s", a.digest)
	}
	for _, name := range []string{"core.fast_frac", "core.consolidations_per_kpkt", "mat.rules", "wal.records_per_kpkt"} {
		if a.layers[name] != b.layers[name] {
			t.Errorf("%s: %v then %v on the same seed", name, a.layers[name].Value, b.layers[name].Value)
		}
		if a.layers[name].Value == 0 {
			t.Errorf("%s is 0; the count proves nothing", name)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's names in step with
// the metrics the program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the program %d", names, len(workloads))
	}
	e2e := (&report{}).endToEnd()
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit || m.Bound <= 0 || m.Bound > 0.25 || math.IsNaN(m.Bound) {
			t.Errorf("end-to-end %s (%s, bound %v) does not match the program (%v)", m.Name, m.Unit, m.Bound, got)
		}
	}
	if len(doc.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(doc.PerLayer), len(layerUnits))
	}
	for _, m := range doc.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s (%s) does not match the program (%q)", m.Name, m.Unit, unit)
		}
	}
}
