package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/serverapi"
)

// tracedServer builds a server with explicit procs/maxBody for the
// tracing tests (testServer pins procs=1, which never exercises the
// multicore lane).
func tracedServer(t *testing.T, procs int, maxBody int64) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(nil, procs, maxBody, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postRun(t *testing.T, url string, body []byte, header map[string]string) (*http.Response, serverapi.RunResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res serverapi.RunResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return resp, res
}

// TestRunTraceExplainSingleLane checks the ?trace=1 contract on the
// single-core lane, including the acceptance criterion that the explain
// block's numbers equal the telemetry deltas of the same run.
func TestRunTraceExplainSingleLane(t *testing.T) {
	srv, ts := tracedServer(t, 1, 1<<20)
	payload := bytes.Repeat([]byte("GET /cgi-bin/x.pl HTTP/1.1\n"), 2000)

	// Fresh server: the first snapshot is all zeros, so the post-run
	// snapshot IS the delta of this one traced run.
	resp, res := postRun(t, ts.URL+"/v1/run?machine=cgi&trace=1", payload, nil)
	snap := srv.metrics.Snapshot()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	hdr := resp.Header.Get("X-Trace-Id")
	if hdr == "" || hdr != res.TraceID {
		t.Fatalf("X-Trace-Id %q, body trace_id %q", hdr, res.TraceID)
	}
	if res.Explain == nil {
		t.Fatal("?trace=1 returned no explain block")
	}
	ex := res.Explain
	if ex.Lane != "single" || !strings.Contains(ex.LaneReason, "multicore lane disabled") {
		t.Errorf("lane %q reason %q", ex.Lane, ex.LaneReason)
	}
	if ex.Strategy == "" {
		t.Error("explain has no strategy")
	}
	if ex.ChunkCount != 1 || len(ex.Chunks) != 1 {
		t.Fatalf("single lane: chunks=%d profiles=%d", ex.ChunkCount, len(ex.Chunks))
	}
	c := ex.Chunks[0]
	if c.Bytes != int64(len(payload)) {
		t.Errorf("chunk bytes %d, want %d", c.Bytes, len(payload))
	}
	if c.DurationNs <= 0 {
		t.Error("chunk has no duration")
	}
	// The explain numbers are the telemetry numbers, exactly.
	if c.Gathers != snap.Gathers || c.Shuffles != snap.Shuffles {
		t.Errorf("explain gathers/shuffles %d/%d, telemetry %d/%d",
			c.Gathers, c.Shuffles, snap.Gathers, snap.Shuffles)
	}
	if c.FactorCalls != snap.FactorCalls || c.FactorWins != snap.FactorWins {
		t.Errorf("explain factor %d/%d, telemetry %d/%d",
			c.FactorCalls, c.FactorWins, snap.FactorCalls, snap.FactorWins)
	}
	if int64(c.WidthStart) != snap.ActiveHighWater {
		t.Errorf("explain width_start %d, telemetry high water %d", c.WidthStart, snap.ActiveHighWater)
	}
}

// TestRunTraceExplainMulticore is the acceptance-criteria check on the
// multicore lane: per-chunk convergence widths and shuffle counts must
// be consistent with the telemetry snapshot deltas for the same run.
func TestRunTraceExplainMulticore(t *testing.T) {
	srv, ts := tracedServer(t, 4, 64<<20)
	payload := bytes.Repeat([]byte("id=1 UNION ALL types of text here "), 70_000) // ~2.3 MiB

	before := srv.metrics.Snapshot()
	resp, res := postRun(t, ts.URL+"/v1/run?machine=sqli&trace=1", payload, nil)
	after := srv.metrics.Snapshot()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !res.Multicore {
		t.Fatalf("2.3 MiB input did not take the multicore lane: %+v", res)
	}
	ex := res.Explain
	if ex == nil {
		t.Fatal("no explain block")
	}
	// With a profile store attached the first large jobs ride the
	// adaptive selector's cold-start default; either phrasing must name
	// why the multicore lane was taken.
	if ex.Lane != "multicore" ||
		(!strings.Contains(ex.LaneReason, "large-input threshold") &&
			!strings.Contains(ex.LaneReason, "multicore heuristic")) {
		t.Errorf("lane %q reason %q", ex.Lane, ex.LaneReason)
	}
	if ex.ChunkCount < 2 || len(ex.Chunks) != ex.ChunkCount {
		t.Fatalf("chunks=%d profiles=%d", ex.ChunkCount, len(ex.Chunks))
	}

	var gathers, shuffles, calls, wins, sumBytes int64
	widthHigh := 0
	for i, c := range ex.Chunks {
		if c.Index != i {
			t.Errorf("chunk %d has index %d (not sorted)", i, c.Index)
		}
		gathers += c.Gathers
		shuffles += c.Shuffles
		calls += c.FactorCalls
		wins += c.FactorWins
		sumBytes += c.Bytes
		if c.WidthStart > widthHigh {
			widthHigh = c.WidthStart
		}
	}
	if sumBytes != int64(len(payload)) {
		t.Errorf("chunk bytes sum %d, want %d", sumBytes, len(payload))
	}
	if d := after.Gathers - before.Gathers; gathers != d {
		t.Errorf("explain gathers sum %d, telemetry delta %d", gathers, d)
	}
	if d := after.Shuffles - before.Shuffles; shuffles != d {
		t.Errorf("explain shuffles sum %d, telemetry delta %d", shuffles, d)
	}
	if d := after.FactorCalls - before.FactorCalls; calls != d {
		t.Errorf("explain factor calls sum %d, telemetry delta %d", calls, d)
	}
	if d := after.FactorWins - before.FactorWins; wins != d {
		t.Errorf("explain factor wins sum %d, telemetry delta %d", wins, d)
	}
	if int64(widthHigh) != after.ActiveHighWater {
		t.Errorf("explain max width_start %d, telemetry high water %d", widthHigh, after.ActiveHighWater)
	}

	// The trace landed in the flight recorder and is served back.
	rt, err := http.Get(ts.URL + "/v1/traces/" + res.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Body.Close()
	if rt.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id} status %d", rt.StatusCode)
	}
	var doc struct {
		TraceID string          `json:"trace_id"`
		Spans   json.RawMessage `json:"spans"`
	}
	if err := json.NewDecoder(rt.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != res.TraceID {
		t.Errorf("trace doc id %q, want %q", doc.TraceID, res.TraceID)
	}
	for _, name := range []string{engine.SpanExec, core.SpanMulticore, core.SpanPhase1Chunk} {
		if !bytes.Contains(doc.Spans, []byte(name)) {
			t.Errorf("span tree missing %q", name)
		}
	}
}

// TestTraceparentPropagation: an inbound W3C traceparent header traces
// the request under the caller's trace ID without needing ?trace=1.
func TestTraceparentPropagation(t *testing.T) {
	srv, ts := tracedServer(t, 1, 1<<20)
	const wantID = "4bf92f3577b34da6a3ce929d0e0e4736"
	parent := "00-" + wantID + "-00f067aa0ba902b7-01"

	resp, res := postRun(t, ts.URL+"/v1/run?machine=sqli", []byte("hello"),
		map[string]string{"traceparent": parent})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if res.TraceID != wantID {
		t.Errorf("trace_id %q, want inbound %q", res.TraceID, wantID)
	}
	if resp.Header.Get("X-Trace-Id") != wantID {
		t.Errorf("X-Trace-Id %q", resp.Header.Get("X-Trace-Id"))
	}
	if res.Explain != nil {
		t.Error("explain present without ?trace=1")
	}
	if srv.recorder.Find(wantID) == nil {
		t.Error("inbound-traced request not in the flight recorder")
	}
}

func TestUntracedRunHasNoTraceArtifacts(t *testing.T) {
	srv, ts := tracedServer(t, 1, 1<<20)
	resp, res := postRun(t, ts.URL+"/v1/run?machine=sqli", []byte("plain"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") != "" || res.TraceID != "" || res.Explain != nil {
		t.Errorf("untraced run leaked trace artifacts: hdr=%q res=%+v",
			resp.Header.Get("X-Trace-Id"), res)
	}
	if srv.recorder.Total() != 0 {
		t.Errorf("recorder holds %d traces after an untraced run", srv.recorder.Total())
	}
}

// TestTracesListAndFilters drives GET /v1/traces with the machine and
// min_ms filters.
func TestTracesListAndFilters(t *testing.T) {
	_, ts := tracedServer(t, 1, 1<<20)
	for _, machine := range []string{"sqli", "cgi"} {
		resp, _ := postRun(t, ts.URL+"/v1/run?trace=1&machine="+machine, []byte("some input"), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding run status %d", resp.StatusCode)
		}
	}

	list := func(q string) []serverapi.TraceInfo {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/traces%s status %d", q, resp.StatusCode)
		}
		var out []serverapi.TraceInfo
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	all := list("")
	if len(all) != 2 {
		t.Fatalf("%d traces listed, want 2", len(all))
	}
	// Newest first: the cgi run came second.
	if all[0].Machine != "cgi" || all[1].Machine != "sqli" {
		t.Errorf("order/machines: %+v", all)
	}
	for _, info := range all {
		if info.TraceID == "" || info.Spans == 0 || info.DurationNs <= 0 || info.StartUnixNs == 0 {
			t.Errorf("thin trace info: %+v", info)
		}
		if !strings.Contains(info.Name, "/run") {
			t.Errorf("trace name %q", info.Name)
		}
	}

	if got := list("?machine=sqli"); len(got) != 1 || got[0].Machine != "sqli" {
		t.Errorf("machine filter: %+v", got)
	}
	// Millisecond-scale runs all sit far below a 10-minute floor.
	if got := list("?min_ms=600000"); len(got) != 0 {
		t.Errorf("min_ms filter kept %+v", got)
	}
	if resp, _ := http.Get(ts.URL + "/v1/traces?min_ms=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_ms status %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/traces/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id status %d", resp.StatusCode)
	}
}

// TestBatchTraced: one ?trace=1 batch produces one trace holding every
// job's queue and exec spans.
func TestBatchTraced(t *testing.T) {
	srv, ts := tracedServer(t, 1, 1<<20)
	lines := strings.Join([]string{
		`{"machine":"sqli","input":"id=1 UNION  SELECT x"}`,
		`{"machine":"traversal","input":"GET ../../etc/passwd"}`,
		`{"input":"clean"}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/v1/batch?trace=1", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("traced batch has no X-Trace-Id")
	}
	// Drain the stream so the handler (and the recorder write) finish.
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)

	tr := srv.recorder.Find(id)
	if tr == nil {
		t.Fatal("batch trace not recorded")
	}
	var queued, execed int
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case engine.SpanQueue:
			queued++
		case engine.SpanExec:
			execed++
		}
	}
	if queued != 3 || execed != 3 {
		t.Errorf("queue spans %d, exec spans %d, want 3 each", queued, execed)
	}
}

// TestAccessLog checks the one-line-per-request contract and its
// trace-ID correlation.
func TestAccessLog(t *testing.T) {
	srv, ts := tracedServer(t, 1, 1<<20)
	var buf bytes.Buffer
	srv.log = slog.New(slog.NewJSONHandler(&buf, nil))

	resp, res := postRun(t, ts.URL+"/v1/run?machine=sqli&trace=1", []byte("x"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var entry struct {
		Msg        string  `json:"msg"`
		Method     string  `json:"method"`
		Route      string  `json:"route"`
		Status     int     `json:"status"`
		DurationMs float64 `json:"duration_ms"`
		TraceID    string  `json:"trace_id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("access log is not one JSON line: %v (%q)", err, buf.String())
	}
	if entry.Msg != "request" || entry.Method != "POST" || entry.Route != "/v1/run" {
		t.Errorf("log entry %+v", entry)
	}
	if entry.Status != http.StatusOK || entry.DurationMs <= 0 {
		t.Errorf("log accounting %+v", entry)
	}
	if entry.TraceID != res.TraceID {
		t.Errorf("log trace_id %q, result %q", entry.TraceID, res.TraceID)
	}

	// Untraced requests still log, with an empty trace ID.
	buf.Reset()
	if _, err := http.Get(ts.URL + "/v1/machines"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("machines access log: %v (%q)", err, buf.String())
	}
	if entry.Route != "/v1/machines" || entry.TraceID != "" {
		t.Errorf("untraced log entry %+v", entry)
	}
}
