package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// writeReportFile drops a minimal sustained report to disk.
func writeReportFile(t *testing.T, dir, name string, rep sustainedReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRegressionGate(t *testing.T) {
	dir := t.TempDir()
	base := writeReportFile(t, dir, "old.json", sustainedReport{
		Schema: benchSchemaVersion, ThroughputBytesPerSec: 100e6, LatencyP99Ns: 1e6,
	})

	cases := []struct {
		name       string
		throughput float64
		wantErr    bool
	}{
		{"improvement passes", 120e6, false},
		{"small drop passes", 90e6, false}, // -10%, inside the 15% gate
		{"at threshold passes", 85e6, false},
		{"regression fails", 80e6, true}, // -20%
		{"collapse fails", 1e6, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := writeReportFile(t, dir, "new.json", sustainedReport{
				Schema: benchSchemaVersion, ThroughputBytesPerSec: tc.throughput,
			})
			err := compareReports(base, p, regressionGate)
			if tc.wantErr && err == nil {
				t.Fatalf("throughput %g: want regression error, got nil", tc.throughput)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("throughput %g: unexpected error %v", tc.throughput, err)
			}
		})
	}
}

func TestCompareRejectsBadReports(t *testing.T) {
	dir := t.TempDir()
	good := writeReportFile(t, dir, "good.json", sustainedReport{
		Schema: benchSchemaVersion, ThroughputBytesPerSec: 1e6,
	})
	skewed := writeReportFile(t, dir, "skew.json", sustainedReport{
		Schema: benchSchemaVersion + 7, ThroughputBytesPerSec: 1e6,
	})
	if err := compareReports(good, skewed, regressionGate); err == nil {
		t.Fatal("schema-skewed report accepted")
	}
	if err := compareReports(good, filepath.Join(dir, "absent.json"), regressionGate); err == nil {
		t.Fatal("missing report accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareReports(bad, good, regressionGate); err == nil {
		t.Fatal("corrupt report accepted")
	}
}

// TestRunSustainedSmoke drives the open-loop generator briefly — the
// same smoke shape CI runs — and checks the report's accounting holds
// together.
func TestRunSustainedSmoke(t *testing.T) {
	opt := &options{
		seed:     1,
		procs:    runtime.NumCPU(),
		duration: 300 * time.Millisecond,
		rps:      200,
		strategy: "auto",
	}
	rep, err := runSustained(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != benchSchemaVersion {
		t.Fatalf("schema = %d", rep.Schema)
	}
	if rep.Offered == 0 || rep.Completed == 0 {
		t.Fatalf("no load ran: offered=%d completed=%d", rep.Offered, rep.Completed)
	}
	if rep.Completed+rep.Errors+rep.Shed != rep.Offered {
		t.Fatalf("accounting leak: offered=%d completed=%d errors=%d shed=%d",
			rep.Offered, rep.Completed, rep.Errors, rep.Shed)
	}
	if rep.Bytes == 0 || rep.ThroughputBytesPerSec <= 0 {
		t.Fatalf("no throughput measured: bytes=%d rate=%g", rep.Bytes, rep.ThroughputBytesPerSec)
	}
	if rep.LatencyP50Ns <= 0 || rep.LatencyP99Ns < rep.LatencyP50Ns {
		t.Fatalf("latency quantiles inconsistent: p50=%d p99=%d", rep.LatencyP50Ns, rep.LatencyP99Ns)
	}
	if len(rep.Machines) != len(sustainedPatterns) {
		t.Fatalf("machines in report = %d, want %d", len(rep.Machines), len(sustainedPatterns))
	}
	for _, m := range rep.Machines {
		if m.Strategy == "" || m.Strategy == "auto" {
			t.Fatalf("machine %s strategy %q: want a resolved strategy", m.Name, m.Strategy)
		}
		if m.Jobs == 0 || m.SingleGBPerS+m.MulticoreGBPerS == 0 {
			t.Fatalf("machine %s has no lane rates: %+v", m.Name, m)
		}
	}
	// Round-trip through the comparator: a report compared against
	// itself is never a regression.
	dir := t.TempDir()
	p := writeReportFile(t, dir, "self.json", *rep)
	if err := compareReports(p, p, regressionGate); err != nil {
		t.Fatalf("self-compare: %v", err)
	}
}
