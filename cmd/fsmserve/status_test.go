package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpfsm/internal/serverapi"
)

// getStatus fetches and decodes GET /v1/status.
func getStatus(t *testing.T, ts *httptest.Server) serverapi.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/status = %d", resp.StatusCode)
	}
	var st serverapi.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := testServer(t)

	// Run one matching job so the profiles have something to show.
	resp, err := http.Post(ts.URL+"/v1/run?machine=sqli", "application/octet-stream",
		strings.NewReader("id=1 UNION  SELECT password"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st := getStatus(t, ts)
	if st.Service != "fsmserve" || st.GoVersion == "" || st.PID == 0 {
		t.Fatalf("identity fields missing: %+v", st)
	}
	if st.UptimeNs <= 0 {
		t.Fatalf("uptime = %d", st.UptimeNs)
	}
	if st.QueueCap <= 0 || st.QueueDepth < 0 {
		t.Fatalf("queue fields: depth=%d cap=%d", st.QueueDepth, st.QueueCap)
	}
	if st.Machines != len(st.Profiles) || st.Machines == 0 {
		t.Fatalf("machines=%d profiles=%d", st.Machines, len(st.Profiles))
	}
	if st.ShedRate < 0 || st.ShedRate > 1 {
		t.Fatalf("shed rate %g", st.ShedRate)
	}
	// The sqli machine ran one job through the synchronous /v1/run
	// path; its profile must show it, with runner-level counters.
	var found bool
	for _, p := range st.Profiles {
		if p.Machine != "sqli" {
			continue
		}
		found = true
		if p.Jobs != 1 || p.Bytes == 0 {
			t.Fatalf("sqli profile jobs=%d bytes=%d", p.Jobs, p.Bytes)
		}
		if p.Symbols == 0 {
			t.Fatalf("sqli profile has no runner-level symbols: %+v", p)
		}
		if p.Strategy == "" || p.Fingerprint == "" {
			t.Fatalf("sqli profile missing identity: %+v", p)
		}
	}
	if !found {
		t.Fatal("no profile for machine sqli")
	}
	if st.Runtime.Goroutines <= 0 {
		t.Fatalf("runtime goroutines = %d", st.Runtime.Goroutines)
	}
}

// TestStatusProfilesSurviveRestart is the acceptance-criteria
// integration test: profiles persisted into the -profile-dir
// seed the next process's recorders, so lifetime counters keep
// accumulating across a restart.
func TestStatusProfilesSurviveRestart(t *testing.T) {
	dir := t.TempDir()

	boot := func() (*server, *httptest.Server) {
		srv, err := newServer(nil, 1, 1<<20, dir)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.mux())
		return srv, ts
	}

	srv1, ts1 := boot()
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts1.URL+"/v1/run?machine=sqli", "application/octet-stream",
			strings.NewReader("id=1 UNION  SELECT password"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	before := getStatus(t, ts1)
	ts1.Close()
	srv1.Close() // flushes profiles into dir

	// "Restart": a fresh server over the same profile directory.
	srv2, ts2 := boot()
	defer srv2.Close()
	defer ts2.Close()
	after := getStatus(t, ts2)

	profile := func(st serverapi.Status, machine string) (p struct {
		jobs, bytes int64
	}) {
		for _, pr := range st.Profiles {
			if pr.Machine == machine {
				p.jobs, p.bytes = pr.Jobs, pr.Bytes
			}
		}
		return p
	}
	b, a := profile(before, "sqli"), profile(after, "sqli")
	if b.jobs != 3 {
		t.Fatalf("pre-restart jobs = %d, want 3", b.jobs)
	}
	if a.jobs != b.jobs || a.bytes != b.bytes {
		t.Fatalf("restart lost profile counts: before %+v, after %+v", b, a)
	}

	// And the counters keep accumulating on top of the baseline.
	resp, err := http.Post(ts2.URL+"/v1/run?machine=sqli", "application/octet-stream",
		strings.NewReader("id=1 UNION  SELECT password"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := profile(getStatus(t, ts2), "sqli"); got.jobs != 4 {
		t.Fatalf("post-restart accumulation: jobs = %d, want 4", got.jobs)
	}
}

// TestMetricsIncludesRuntimeAndQueueDepth checks the satellite
// additions to the Prometheus surface.
func TestMetricsIncludesRuntimeAndQueueDepth(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"dpfsm_engine_queue_depth",
		"dpfsm_runtime_goroutines",
		"dpfsm_runtime_gc_cycles_total",
		"dpfsm_runtime_sched_latency_p99_ns",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}
