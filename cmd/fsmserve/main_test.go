package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/telemetry"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(nil, core.Auto, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close) // runs after ts.Close has quiesced requests
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestRunEndpoint(t *testing.T) {
	_, ts := testServer(t)

	// A matching input against the default "sqli" machine, on the v1
	// route.
	body := strings.NewReader("id=1 UNION  SELECT password FROM users")
	resp, err := http.Post(ts.URL+"/v1/run?machine=sqli&first=1", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res serverapi.RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Accepts {
		t.Errorf("sqli machine should accept: %+v", res)
	}
	if res.FirstMatch == nil || *res.FirstMatch < 0 {
		t.Errorf("first=1 should report a match position: %+v", res)
	}
	if res.Bytes == 0 || res.DurationNs <= 0 {
		t.Errorf("run accounting: %+v", res)
	}
	if res.Lane == "" || res.Strategy == "" || res.Strategy == "auto" {
		t.Errorf("run result missing dispatch fields: lane=%q strategy=%q", res.Lane, res.Strategy)
	}

	// Default machine (first pattern) on a clean input.
	resp2, err := http.Post(ts.URL+"/v1/run", "", strings.NewReader("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var res2 serverapi.RunResult
	if err := json.NewDecoder(resp2.Body).Decode(&res2); err != nil {
		t.Fatal(err)
	}
	if res2.Accepts || res2.Machine != "sqli" {
		t.Errorf("clean input: %+v", res2)
	}

	// An explicit per-request strategy pin echoes back in the result.
	resp3, err := http.Post(ts.URL+"/v1/run?machine=sqli&strategy=sequential", "", strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var res3 serverapi.RunResult
	if err := json.NewDecoder(resp3.Body).Decode(&res3); err != nil {
		t.Fatal(err)
	}
	if res3.Strategy != "sequential" {
		t.Errorf("?strategy=sequential echoed %q", res3.Strategy)
	}

	// Errors carry the shared envelope with a stable code: GET is
	// rejected, unknown machines 404, bad params 400.
	checkErr := func(resp *http.Response, status int, code string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("status %d, want %d", resp.StatusCode, status)
		}
		var e serverapi.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body: %v", err)
		}
		if e.Code != code || e.Error == "" {
			t.Errorf("error envelope %+v, want code %q", e, code)
		}
	}
	r, _ := http.Get(ts.URL + "/v1/run")
	checkErr(r, http.StatusMethodNotAllowed, serverapi.CodeMethodNotAllowed)
	r, _ = http.Post(ts.URL+"/v1/run?machine=nope", "", strings.NewReader("x"))
	checkErr(r, http.StatusNotFound, serverapi.CodeNotFound)
	r, _ = http.Post(ts.URL+"/v1/run?machine=sqli&start=9999", "", strings.NewReader("x"))
	checkErr(r, http.StatusBadRequest, serverapi.CodeBadRequest)
	r, _ = http.Post(ts.URL+"/v1/run?machine=sqli&strategy=warp", "", strings.NewReader("x"))
	checkErr(r, http.StatusBadRequest, serverapi.CodeBadRequest)

	// The unversioned aliases completed their deprecation cycle: gone.
	r, _ = http.Post(ts.URL+"/run", "", strings.NewReader("x"))
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("removed alias /run: status %d, want 404", r.StatusCode)
	}
	r.Body.Close()
}

// TestBatchEndpoint drives /v1/batch with a mix of good jobs, a
// binary (base64) payload, a bad line, and an unknown machine, and
// checks the streamed NDJSON results plus the summary trailer.
func TestBatchEndpoint(t *testing.T) {
	_, ts := testServer(t)

	lines := []string{
		`{"machine":"sqli","input":"id=1 UNION  SELECT x"}`,
		`{"machine":"traversal","input":"GET ../../etc/passwd"}`,
		`{"input":"clean text"}`,                                 // default machine
		`{"machine":"nopsled","input_b64":"` + "kJCQkA==" + `"}`, // \x90\x90\x90\x90
		`this is not json`,
		`{"machine":"ghost","input":"x"}`,
	}
	body := strings.NewReader(strings.Join(lines, "\n") + "\n")
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	results := make(map[int]serverapi.BatchResult)
	var trailer *serverapi.BatchTrailer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"summary"`)) {
			trailer = new(serverapi.BatchTrailer)
			if err := json.Unmarshal(line, trailer); err != nil {
				t.Fatalf("trailer: %v", err)
			}
			continue
		}
		var br serverapi.BatchResult
		if err := json.Unmarshal(line, &br); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if trailer != nil {
			t.Error("result line after the summary trailer")
		}
		results[br.Index] = br
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if trailer == nil {
		t.Fatal("no summary trailer")
	}
	if len(results) != len(lines) {
		t.Fatalf("%d result lines for %d jobs", len(results), len(lines))
	}

	wantAccepts := map[int]bool{0: true, 1: true, 2: false, 3: true}
	for idx, want := range wantAccepts {
		r, ok := results[idx]
		if !ok {
			t.Errorf("job %d missing", idx)
			continue
		}
		if r.Error != "" || r.Accepts != want {
			t.Errorf("job %d: %+v, want accepts=%v", idx, r, want)
		}
	}
	if r := results[2]; r.Machine != "sqli" {
		t.Errorf("default machine: %+v", r)
	}
	if r := results[4]; r.Error == "" {
		t.Error("bad JSON line should carry an error")
	}
	if r := results[5]; !strings.Contains(r.Error, "unknown machine") {
		t.Errorf("unknown machine error = %q", r.Error)
	}

	sum := trailer.Summary
	if sum.Jobs != len(lines) || sum.OK != 4 || sum.Errors != 2 {
		t.Errorf("summary %+v", sum)
	}
	if sum.SingleCore != 4 || sum.Multicore != 0 {
		t.Errorf("summary lanes: %+v", sum)
	}
	if sum.Bytes == 0 || sum.DurationNs <= 0 {
		t.Errorf("summary accounting: %+v", sum)
	}
}

func TestMetricsEndpointNonZeroUnderLoad(t *testing.T) {
	srv, ts := testServer(t)

	// Drive some load so the gauges move.
	payload := bytes.Repeat([]byte("GET /cgi-bin/x.pl HTTP/1.1\n"), 2000)
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/run?machine=cgi", "", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	out := sb.String()
	if !strings.Contains(out, "dpfsm_runs_total 5") {
		t.Errorf("metrics missing run count:\n%s", out)
	}
	for _, series := range []string{
		"dpfsm_symbols_total", "dpfsm_shuffles_total", "dpfsm_shuffles_per_symbol",
		"dpfsm_engine_jobs_total", "dpfsm_engine_single_core_total",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("metrics missing %s", series)
		}
	}
	if strings.Contains(out, "dpfsm_symbols_total 0\n") {
		t.Error("symbols gauge still zero under load")
	}
	snap := srv.metrics.Snapshot()
	if snap.Symbols != int64(5*len(payload)) {
		t.Errorf("Symbols = %d, want %d", snap.Symbols, 5*len(payload))
	}
	if snap.ShufflesPerSymbol <= 0 {
		t.Errorf("ShufflesPerSymbol = %v, want > 0", snap.ShufflesPerSymbol)
	}
	if snap.EngineJobs != 5 {
		t.Errorf("EngineJobs = %d, want 5", snap.EngineJobs)
	}

	// The unversioned alias is gone.
	ra, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Body.Close()
	if ra.StatusCode != http.StatusNotFound {
		t.Errorf("removed alias /metrics: status %d, want 404", ra.StatusCode)
	}
}

func TestSnapshotAndMachinesEndpoints(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/run", "", strings.NewReader("some bytes"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var snap telemetry.Snapshot
	r2, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runs != 1 {
		t.Errorf("snapshot runs = %d", snap.Runs)
	}

	var machines []serverapi.MachineInfo
	r3, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if err := json.NewDecoder(r3.Body).Decode(&machines); err != nil {
		t.Fatal(err)
	}
	if len(machines) != len(defaultPatterns) {
		t.Fatalf("machines = %d, want %d", len(machines), len(defaultPatterns))
	}
	for _, m := range machines {
		if m.Stats.States == 0 || m.Stats.MaxRange == 0 || m.Strategy == core.Auto {
			t.Errorf("machine %q missing stats: %+v", m.Name, m)
		}
		if m.Fingerprint == "" || m.Source != "default" {
			t.Errorf("machine %q missing registry metadata: %+v", m.Name, m)
		}
	}

	// The unversioned aliases are gone.
	for _, route := range []string{"/snapshot", "/machines"} {
		ra, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		ra.Body.Close()
		if ra.StatusCode != http.StatusNotFound {
			t.Errorf("removed alias %s: status %d, want 404", route, ra.StatusCode)
		}
	}
}

// TestMachineProfileEndpoint covers GET /v1/machines/{name} and its
// /profile sub-resource: after some traffic the profile carries lane
// history and the current adaptive selection, and /v1/status lists
// the same selection per machine.
func TestMachineProfileEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/run?machine=sqli", "", strings.NewReader("id=1 UNION  SELECT x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var info serverapi.MachineInfo
	ri, err := http.Get(ts.URL + "/v1/machines/sqli")
	if err != nil {
		t.Fatal(err)
	}
	defer ri.Body.Close()
	if err := json.NewDecoder(ri.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "sqli" || info.Stats.States == 0 {
		t.Errorf("machine info: %+v", info)
	}

	var mp serverapi.MachineProfile
	rp, err := http.Get(ts.URL + "/v1/machines/sqli/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Body.Close()
	if rp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d", rp.StatusCode)
	}
	if err := json.NewDecoder(rp.Body).Decode(&mp); err != nil {
		t.Fatal(err)
	}
	if mp.Machine.Name != "sqli" {
		t.Errorf("profile machine: %+v", mp.Machine)
	}
	if mp.Profile == nil || mp.Profile.Jobs == 0 {
		t.Errorf("profile missing observed history: %+v", mp.Profile)
	}
	if mp.Selection.Lane == "" || mp.Selection.Reason == "" {
		t.Errorf("profile missing selection: %+v", mp.Selection)
	}

	rn, _ := http.Get(ts.URL + "/v1/machines/ghost/profile")
	rn.Body.Close()
	if rn.StatusCode != http.StatusNotFound {
		t.Errorf("unknown machine profile: status %d", rn.StatusCode)
	}
	rb, _ := http.Get(ts.URL + "/v1/machines/sqli/bogus")
	rb.Body.Close()
	if rb.StatusCode != http.StatusNotFound {
		t.Errorf("bogus sub-resource: status %d", rb.StatusCode)
	}

	var st serverapi.Status
	rs, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Body.Close()
	if err := json.NewDecoder(rs.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Selections) != len(defaultPatterns) {
		t.Fatalf("status selections = %d, want %d", len(st.Selections), len(defaultPatterns))
	}
	for _, sel := range st.Selections {
		if sel.Machine == "" || sel.Lane == "" || sel.Reason == "" {
			t.Errorf("status selection incomplete: %+v", sel)
		}
	}
}

func TestDebugSurfaces(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/run", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// /debug/vars must be valid JSON and include the published sink.
	rv, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(rv.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["dpfsm"]; !ok {
		t.Error("/debug/vars missing dpfsm")
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}

	// pprof index should list profiles.
	rp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Body.Close()
	if rp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", rp.StatusCode)
	}

	rh, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	rh.Body.Close()
	if rh.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", rh.StatusCode)
	}
}

func TestNewServerErrors(t *testing.T) {
	if _, err := newServer([]string{"noequals"}, core.Auto, 1, 1<<20, ""); err == nil {
		t.Error("pattern without NAME= should error")
	}
	if _, err := newServer([]string{"a=x(", "b=y"}, core.Auto, 1, 1<<20, ""); err == nil {
		t.Error("bad regex should error")
	}
	if _, err := newServer([]string{"a=x", "a=y"}, core.Auto, 1, 1<<20, ""); err == nil {
		t.Error("duplicate names should error")
	}
}

func TestLoadPatternsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	content := "# IDS rules\n\nalpha=abc\n  beta=d.*e  \n# trailing comment\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	patterns, err := loadPatternsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha=abc", "beta=d.*e"}
	if len(patterns) != len(want) {
		t.Fatalf("patterns = %v, want %v", patterns, want)
	}
	for i := range want {
		if patterns[i] != want[i] {
			t.Errorf("pattern %d = %q, want %q", i, patterns[i], want[i])
		}
	}
	srv, err := newServer(patterns, core.Auto, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if len(srv.order) != 2 || srv.order[0] != "alpha" {
		t.Errorf("server order = %v", srv.order)
	}

	if _, err := loadPatternsFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should error")
	}
}

// A closed engine answers every job route with 503, not 500: the
// service is going away, the request was fine.
func TestEngineClosedAnswers503(t *testing.T) {
	srv, ts := testServer(t)
	srv.registerBuiltinTransducers()
	srv.engine.Close()
	for _, route := range []string{"/v1/run?machine=sqli", "/v1/transduce?machine=htmltok"} {
		resp, err := http.Post(ts.URL+route, "application/octet-stream", strings.NewReader("<p>x</p>"))
		if err != nil {
			t.Fatal(err)
		}
		var e serverapi.Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(e.Error, engine.ErrClosed.Error()) {
			t.Errorf("%s after Close: status %d body %+v, want 503 with ErrClosed", route, resp.StatusCode, e)
		}
	}
}
