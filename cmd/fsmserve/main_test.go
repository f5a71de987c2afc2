package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/telemetry"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(nil, 1, 1<<20, "")
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

	// The server runs each machine's compiled plan: a ?strategy=, known
	// or not, is an unknown parameter like any other, and the result
	// reports the plan's strategy.
	for _, name := range []string{"sequential", "warp"} {
		resp3, err := http.Post(ts.URL+"/v1/run?machine=sqli&strategy="+name, "", strings.NewReader("abc"))
		if err != nil {
			t.Fatal(err)
		}
		var res3 serverapi.RunResult
		err = json.NewDecoder(resp3.Body).Decode(&res3)
		resp3.Body.Close()
		if err != nil || resp3.StatusCode != http.StatusOK {
			t.Fatalf("?strategy=%s: status %d (%v), want 200", name, resp3.StatusCode, err)
		}
		if res3.Strategy != res.Strategy {
			t.Errorf("?strategy=%s ran %q, want the plan's %q", name, res3.Strategy, res.Strategy)
		}
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

// TestBatchCanceledRequest: a /v1/batch whose request context is
// already canceled answers every line — engine refusals as canceled
// jobs, a bad line as an error — and the summary counts each once,
// while the engine's job counters stay put (a refused Submit is not an
// engine job).
func TestBatchCanceledRequest(t *testing.T) {
	srv, _ := testServer(t)
	before := srv.metrics.Snapshot()
	lines := []string{
		`{"machine":"sqli","input":"id=1 UNION  SELECT x"}`,
		`not json`,
		`{"machine":"traversal","input":"GET ../../etc/passwd"}`,
		`{"input":"clean text"}`,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(strings.Join(lines, "\n"))).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}

	var trailer serverapi.BatchTrailer
	canceled := 0
	for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		if bytes.Contains(line, []byte(`"summary"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var br serverapi.BatchResult
		if err := json.Unmarshal(line, &br); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if br.Error == "" {
			t.Errorf("job %d succeeded under a canceled request: %+v", br.Index, br)
		}
		if br.Error == context.Canceled.Error() {
			canceled++
		}
	}
	if canceled != 3 {
		t.Errorf("%d canceled result lines, want 3", canceled)
	}
	if sum := trailer.Summary; sum.Jobs != 4 || sum.Errors != 4 || sum.Canceled != 3 || sum.OK != 0 {
		t.Errorf("summary %+v", sum)
	}
	after := srv.metrics.Snapshot()
	if after.EngineJobs != before.EngineJobs || after.EngineJobErrors != before.EngineJobErrors {
		t.Errorf("refused jobs counted: jobs %d -> %d, errors %d -> %d",
			before.EngineJobs, after.EngineJobs, before.EngineJobErrors, after.EngineJobErrors)
	}
	if after.EngineBatches != before.EngineBatches+1 {
		t.Errorf("batches %d -> %d", before.EngineBatches, after.EngineBatches)
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

// TestClusterRoutesNotServed: fsmserve mounts no cluster peer, so the
// peer protocol's routes answer 404 and no request reaches a chunk
// task or plan decoder.
func TestClusterRoutesNotServed(t *testing.T) {
	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := srv.mux()
	for _, route := range []string{"/v1/cluster/exec", "/v1/cluster/plans?fingerprint=x"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader("x")))
		if rec.Code != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", route, rec.Code)
		}
	}
}

// TestMachineProfileEndpoint covers GET /v1/machines/{name} and its
// /profile sub-resource: after some traffic the profile carries lane
// history, and /v1/status lists a profile per machine.
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
	if mp.Profile != nil && mp.Profile.Lanes[engine.LaneSingle].Jobs == 0 {
		t.Errorf("profile missing the single lane's history: %+v", mp.Profile.Lanes)
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
	if st.Machines != len(defaultPatterns) || len(st.Profiles) != len(defaultPatterns) {
		t.Fatalf("status machines = %d with %d profiles, want %d", st.Machines, len(st.Profiles), len(defaultPatterns))
	}
	for _, p := range st.Profiles {
		if p.Machine == "" || p.Fingerprint == "" {
			t.Errorf("status profile incomplete: %+v", p)
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
	if _, err := newServer([]string{"noequals"}, 1, 1<<20, ""); err == nil {
		t.Error("pattern without NAME= should error")
	}
	if _, err := newServer([]string{"a=x(", "b=y"}, 1, 1<<20, ""); err == nil {
		t.Error("bad regex should error")
	}
	if _, err := newServer([]string{"a=x", "a=y"}, 1, 1<<20, ""); err == nil {
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
	srv, err := newServer(patterns, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if names := srv.engine.Machines(); len(names) != 2 || names[0] != "alpha" {
		t.Errorf("server order = %v", names)
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

// TestBodyLengths: /v1/run answers the same whether the body declares
// its length (read into one buffer of that size) or streams without one
// (the growing read), and refuses either past -maxbody with 413.
func TestBodyLengths(t *testing.T) {
	_, ts := tracedServer(t, 1, 64)
	post := func(body string, declared bool) (int, serverapi.RunResult) {
		t.Helper()
		var r io.Reader = strings.NewReader(body)
		if !declared {
			r = io.MultiReader(r) // hides the length: sent chunked
		}
		resp, err := http.Post(ts.URL+"/v1/run?machine=sqli", "application/octet-stream", r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr serverapi.RunResult
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, rr
	}
	in := "id=1 UNION  SELECT password FROM users"
	code1, sized := post(in, true)
	code2, streamed := post(in, false)
	if code1 != http.StatusOK || code2 != http.StatusOK || sized.Accepts != streamed.Accepts ||
		sized.Final != streamed.Final || sized.Bytes != len(in) || streamed.Bytes != len(in) {
		t.Fatalf("sized %d %+v, streamed %d %+v", code1, sized, code2, streamed)
	}
	long := strings.Repeat("x", 65)
	for _, declared := range []bool{true, false} {
		if code, _ := post(long, declared); code != http.StatusRequestEntityTooLarge {
			t.Errorf("65-byte body (declared length %v) under -maxbody 64: status %d, want 413", declared, code)
		}
	}
}

// stallReader hands out its bytes in pieces of at most step, then
// stalls: the first Read after them calls stall and fails with its
// error, as a client that stops sending mid-body would.
type stallReader struct {
	data  []byte
	step  int
	stall func() error
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		if r.stall == nil {
			return 0, io.EOF
		}
		return 0, r.stall()
	}
	n := copy(p, r.data[:min(len(r.data), r.step)])
	r.data = r.data[n:]
	return n, nil
}

func declaredRequest(body io.Reader, declared int64) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v1/run?machine=sqli", body)
	req.ContentLength = declared
	return req
}

// TestReadBodyStallBounded: a request that declares a 64 MiB body,
// sends a few bytes and stalls has at most bodyPrealloc allocated for it
// while it stalls, not the declared length.
func TestReadBodyStallBounded(t *testing.T) {
	const declared = 64 << 20
	var before, during runtime.MemStats
	errStall := errors.New("client stalled")
	body := &stallReader{data: []byte("id=1"), step: 4, stall: func() error {
		runtime.ReadMemStats(&during)
		return errStall
	}}
	runtime.ReadMemStats(&before)
	if _, err := readBody(httptest.NewRecorder(), declaredRequest(body, declared), declared); !errors.Is(err, errStall) {
		t.Fatalf("stalled read returned %v, want the stall error", err)
	}
	if got := during.TotalAlloc - before.TotalAlloc; got > bodyPrealloc+1<<20 {
		t.Fatalf("%d bytes allocated while a %d-byte body stalled after 4 bytes, want at most about %d", got, declared, bodyPrealloc)
	}
}

// TestReadBodyGrows: a declared body longer than bodyPrealloc, arriving
// in small pieces, reads back whole; one that ends short of its
// declared length is an unexpected EOF.
func TestReadBodyGrows(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), (2*bodyPrealloc+12345)/16)
	got, err := readBody(httptest.NewRecorder(), declaredRequest(&stallReader{data: want, step: 100 << 10}, int64(len(want))), 1<<30)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d of %d bytes, err %v", len(got), len(want), err)
	}
	short := &stallReader{data: want[:bodyPrealloc+1], step: 1 << 20}
	if _, err := readBody(httptest.NewRecorder(), declaredRequest(short, int64(len(want))), 1<<30); err != io.ErrUnexpectedEOF {
		t.Fatalf("body short of its declared length: err %v, want unexpected EOF", err)
	}
}

// TestHeaderStallBounded: a client that writes half a request line and
// stalls is disconnected once the header deadline passes. The server's
// connection bounds are set; the test shortens the header deadline on
// its own copy.
func TestHeaderStallBounded(t *testing.T) {
	hs := newHTTPServer("", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != headerTimeout || hs.IdleTimeout != idleTimeout || headerTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("connection bounds: header %v idle %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	const deadline = 100 * time.Millisecond
	hs.ReadHeaderTimeout = deadline
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	// The server's deadline starts once it accepts, which is after t0.
	t0 := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/run?mach"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("stalled client still connected: %v", err)
	}
	// net/http answers a half-read request line with a 400 before it
	// hangs up; the handler never runs.
	if len(reply) > 0 && !bytes.HasPrefix(reply, []byte("HTTP/1.1 400 ")) {
		t.Fatalf("stalled client got %q, want no reply or a 400", reply)
	}
	if took < deadline || took > deadline+2*time.Second {
		t.Fatalf("stalled client disconnected after %v, want just past %v", took, deadline)
	}
}
