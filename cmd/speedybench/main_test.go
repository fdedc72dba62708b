package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table3", "-flows", "20"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "BESS w/ SBox") {
		t.Errorf("output missing expected rows:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig6", "-flows", "20", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]struct {
		Rows []struct {
			Platform     string
			OriginalWork float64
			SBoxWork     float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	fig6, ok := parsed["fig6"]
	if !ok || len(fig6.Rows) != 2 {
		t.Fatalf("parsed = %+v", parsed)
	}
	for _, row := range fig6.Rows {
		if row.SBoxWork >= row.OriginalWork {
			t.Errorf("%s: SBox work %f >= original %f in JSON output", row.Platform, row.SBoxWork, row.OriginalWork)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunCDFOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig9b", "-flows", "15", "-cdf"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CDF series") || !strings.Contains(out, "# BESS") {
		t.Errorf("cdf output malformed:\n%.200s", out)
	}
	// A non-fig9 experiment with -cdf falls back to the normal table.
	buf.Reset()
	if err := run([]string{"-exp", "table3", "-flows", "15", "-cdf"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("fallback table missing")
	}
}

func TestRunOracleSystemsExclusive(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "oracle", "-oracle-schedules", "1", "-oracle-topo", "-oracle-cluster"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("err = %v, want the -oracle-topo/-oracle-cluster conflict", err)
	}
}
