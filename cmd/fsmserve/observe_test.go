package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dpfsm/internal/otlp"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/slo"
	"dpfsm/internal/trace"
)

// Integration coverage for the export-and-health surface: /readyz,
// /v1/slo, sampled trace retention through instrument, OTLP delivery
// to a collector stub, and the exemplar joining /v1/metrics to the
// flight recorder.

func getReadiness(t *testing.T, url string) (int, serverapi.Readiness) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rd serverapi.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rd
}

func TestReadyzLifecycle(t *testing.T) {
	srv, ts := testServer(t)

	// Fresh server: main has not marked it ready yet.
	code, rd := getReadiness(t, ts.URL)
	if code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("pre-ready probe: code=%d ready=%v", code, rd.Ready)
	}
	if len(rd.Reasons) != 1 || rd.Reasons[0] != "starting" {
		t.Fatalf("pre-ready reasons: %v", rd.Reasons)
	}

	srv.markReady()
	code, rd = getReadiness(t, ts.URL)
	if code != http.StatusOK || !rd.Ready || len(rd.Reasons) != 0 {
		t.Fatalf("ready probe: code=%d %+v", code, rd)
	}

	// Graceful shutdown flips it back before the listener stops.
	srv.beginDrain()
	code, rd = getReadiness(t, ts.URL)
	if code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("draining probe: code=%d ready=%v", code, rd.Ready)
	}
	if len(rd.Reasons) != 1 || rd.Reasons[0] != "draining" {
		t.Fatalf("draining reasons: %v", rd.Reasons)
	}
}

func TestReadyzSLOFastBurn(t *testing.T) {
	srv, ts := testServer(t)
	srv.markReady()

	// Healthy traffic first: the probe stays up.
	for i := 0; i < 30; i++ {
		srv.slo.Observe(http.StatusOK, time.Millisecond)
	}
	if code, rd := getReadiness(t, ts.URL); code != http.StatusOK {
		t.Fatalf("healthy probe: code=%d %+v", code, rd)
	}

	// An induced incident: a burst of shed requests far past the
	// fast-burn threshold in both windows (they share the burst).
	for i := 0; i < 200; i++ {
		srv.slo.Observe(http.StatusTooManyRequests, 0)
	}
	code, rd := getReadiness(t, ts.URL)
	if code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("burning probe: code=%d ready=%v", code, rd.Ready)
	}
	if len(rd.Reasons) != 1 || rd.Reasons[0] != "slo_fast_burn" {
		t.Fatalf("burning reasons: %v", rd.Reasons)
	}

	// The /v1/slo report behind the probe shows the verdict and the
	// shed classification.
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.BurnExceeded {
		t.Fatalf("report should agree with the probe: %+v", rep)
	}
	if rep.Fast.Shed < 200 || rep.Slow.Shed < 200 {
		t.Fatalf("shed accounting: fast=%d slow=%d", rep.Fast.Shed, rep.Slow.Shed)
	}
	if rep.AvailabilityTarget != slo.DefaultAvailabilityTarget {
		t.Fatalf("objective echo: %v", rep.AvailabilityTarget)
	}
}

func TestSLOObservesHTTPBoundary(t *testing.T) {
	_, ts := testServer(t)

	// Real requests through instrument land in the tracker — including
	// a 404, which is client-visible but not an availability error.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/run", "", strings.NewReader("hello"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/v1/run?machine=nope", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	r2, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var rep slo.Report
	if err := json.NewDecoder(r2.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Fast.Total < 6 {
		t.Fatalf("tracker should have seen the requests: %+v", rep.Fast)
	}
	if rep.Fast.Errors != 0 || rep.Fast.Shed != 0 {
		t.Fatalf("404s are not availability errors: %+v", rep.Fast)
	}
	if rep.BurnExceeded {
		t.Fatalf("healthy traffic should not burn: %+v", rep)
	}
}

// TestSamplerRetentionThroughInstrument drives the full instrument
// path with every outcome class and checks the retention policy:
// tails (slow, error, shed) are kept 100%, the rest head-sampled.
func TestSamplerRetentionThroughInstrument(t *testing.T) {
	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// One head token, effectively no refill, 30ms slow threshold.
	srv.sampler = trace.NewSampler(trace.SamplerConfig{
		HeadPerSec:    0.0001,
		HeadBurst:     1,
		SlowThreshold: 30 * time.Millisecond,
	})

	do := func(h http.HandlerFunc, n int) {
		wrapped := srv.instrument("/probe", true, h)
		for i := 0; i < n; i++ {
			wrapped(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/probe", nil))
		}
	}
	ok := func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }
	fail := func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusBadGateway) }
	shed := func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusTooManyRequests) }
	slow := func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(40 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}

	do(ok, 20)  // 1 head-kept, 19 rate-dropped
	do(fail, 5) // all kept: error tail
	do(shed, 5) // all kept: shed tail
	do(slow, 3) // all kept: slow tail

	st := srv.sampler.Stats()
	if st.Head != 1 || st.Dropped != 19 {
		t.Errorf("head sampling: head=%d dropped=%d", st.Head, st.Dropped)
	}
	if st.TailError != 5 || st.TailShed != 5 || st.TailSlow != 3 {
		t.Errorf("tails must be kept 100%%: %+v", st)
	}
	if got, want := len(srv.recorder.Snapshot()), 1+5+5+3; got != want {
		t.Errorf("recorder retained %d traces, want %d", got, want)
	}
}

// collectorStub is a minimal OTLP/HTTP collector: it decodes and
// retains every exported document for assertions.
type collectorStub struct {
	mu      sync.Mutex
	traces  []otlpTraceDoc
	metrics []otlpMetricDoc
}

type otlpTraceDoc struct {
	ResourceSpans []struct {
		Resource struct {
			Attributes []struct {
				Key   string `json:"key"`
				Value struct {
					StringValue string `json:"stringValue"`
				} `json:"value"`
			} `json:"attributes"`
		} `json:"resource"`
		ScopeSpans []struct {
			Spans []struct {
				TraceID      string `json:"traceId"`
				SpanID       string `json:"spanId"`
				ParentSpanID string `json:"parentSpanId"`
				Name         string `json:"name"`
				Kind         int    `json:"kind"`
				StartTime    string `json:"startTimeUnixNano"`
				EndTime      string `json:"endTimeUnixNano"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

type otlpMetricDoc struct {
	ResourceMetrics []struct {
		ScopeMetrics []struct {
			Metrics []struct {
				Name string `json:"name"`
				Sum  *struct {
					DataPoints []struct {
						AsInt string `json:"asInt"`
					} `json:"dataPoints"`
				} `json:"sum"`
			} `json:"metrics"`
		} `json:"scopeMetrics"`
	} `json:"resourceMetrics"`
}

func (c *collectorStub) handler(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch req.URL.Path {
		case "/v1/traces":
			var doc otlpTraceDoc
			if err := json.NewDecoder(req.Body).Decode(&doc); err != nil {
				t.Errorf("malformed traces payload: %v", err)
			}
			c.traces = append(c.traces, doc)
		case "/v1/metrics":
			var doc otlpMetricDoc
			if err := json.NewDecoder(req.Body).Decode(&doc); err != nil {
				t.Errorf("malformed metrics payload: %v", err)
			}
			c.metrics = append(c.metrics, doc)
		default:
			t.Errorf("unexpected collector path %s", req.URL.Path)
		}
	}
}

// TestOTLPExportEndToEnd runs load against a live fsmserve with
// sampling and export switched on and asserts the collector stub
// receives well-formed trace and metric payloads: service resource,
// hex IDs, the server root span parenting the engine spans, and the
// head-sample budget honored.
func TestOTLPExportEndToEnd(t *testing.T) {
	col := &collectorStub{}
	colSrv := httptest.NewServer(col.handler(t))
	defer colSrv.Close()

	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Head budget of exactly 3 traces; nothing here is slow enough or
	// broken enough to tail-keep, so retention == head admission.
	srv.sampler = trace.NewSampler(trace.SamplerConfig{
		HeadPerSec:    0.0001,
		HeadBurst:     3,
		SlowThreshold: time.Hour,
	})
	srv.exporter, err = otlp.New(otlp.Config{
		Endpoint:    colSrv.URL,
		ServiceName: "fsmserve",
		Snapshot:    srv.metrics.Snapshot,
		Interval:    time.Hour, // flush via Shutdown, deterministically
		BatchSize:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	for i := 0; i < 30; i++ {
		resp, err := http.Post(ts.URL+"/v1/run?machine=sqli", "", strings.NewReader("UNION SELECT "+fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.exporter.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	st := srv.exporter.Stats()
	if st.TracesExported != 3 {
		t.Fatalf("head budget of 3: exported %d traces (%+v)", st.TracesExported, st)
	}
	if ss := srv.sampler.Stats(); ss.Kept != 3 || ss.Dropped != 27 {
		t.Fatalf("sampler decisions: %+v", ss)
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.traces) == 0 {
		t.Fatal("collector received no trace payloads")
	}
	hex32 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	roots, engineSpans := 0, 0
	for _, doc := range col.traces {
		for _, rs := range doc.ResourceSpans {
			svc := ""
			for _, a := range rs.Resource.Attributes {
				if a.Key == "service.name" {
					svc = a.Value.StringValue
				}
			}
			if svc != "fsmserve" {
				t.Fatalf("resource service.name = %q", svc)
			}
			for _, ss := range rs.ScopeSpans {
				rootByTrace := map[string]string{}
				for _, sp := range ss.Spans {
					if !hex32.MatchString(sp.TraceID) || !hex16.MatchString(sp.SpanID) {
						t.Fatalf("bad span IDs: %+v", sp)
					}
					if sp.StartTime == "" || sp.EndTime == "" {
						t.Fatalf("span missing timestamps: %+v", sp)
					}
					if sp.Name == "POST /v1/run" {
						roots++
						if sp.Kind != 2 {
							t.Fatalf("root span kind %d, want server", sp.Kind)
						}
						rootByTrace[sp.TraceID] = sp.SpanID
					}
				}
				for _, sp := range ss.Spans {
					if sp.Name == "engine.exec" {
						engineSpans++
						if want := rootByTrace[sp.TraceID]; sp.ParentSpanID == "" || want == "" {
							t.Fatalf("engine span unparented: %+v", sp)
						}
					}
				}
			}
		}
	}
	if roots != 3 {
		t.Fatalf("collector saw %d root spans, want 3", roots)
	}
	if engineSpans == 0 {
		t.Fatal("no engine spans exported")
	}
	if len(col.metrics) == 0 {
		t.Fatal("collector received no metric payloads")
	}
	runs := ""
	for _, m := range col.metrics[len(col.metrics)-1].ResourceMetrics[0].ScopeMetrics[0].Metrics {
		if m.Name == "dpfsm.runs" && m.Sum != nil && len(m.Sum.DataPoints) > 0 {
			runs = m.Sum.DataPoints[0].AsInt
		}
	}
	if runs == "" || runs == "0" {
		t.Fatalf("dpfsm.runs sum = %q, want the load to show", runs)
	}
}

// TestMetricsExemplarLinksTrace asserts the acceptance criterion:
// /v1/metrics exposes an exemplar joining an engine_job_ns bucket to
// a trace ID the flight recorder actually retained.
func TestMetricsExemplarLinksTrace(t *testing.T) {
	_, ts := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/run?machine=sqli&trace=1", "", strings.NewReader("UNION SELECT 1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("traced run returned no X-Trace-Id")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	mr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated content type: %q", ct)
	}
	var exemplarLine string
	sc := bufio.NewScanner(mr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "dpfsm_engine_job_ns_bucket{") && strings.Contains(line, `trace_id="`+traceID+`"`) {
			exemplarLine = line
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if exemplarLine == "" {
		t.Fatal("no engine_job_ns bucket exemplar carries the run's trace ID")
	}
	exRe := regexp.MustCompile(`^dpfsm_engine_job_ns_bucket\{le="[^"]+"\} \d+ # \{trace_id="[0-9a-f]{32}"\} \d+ \d+\.\d{9}$`)
	if !exRe.MatchString(exemplarLine) {
		t.Fatalf("exemplar line not OpenMetrics-shaped: %q", exemplarLine)
	}

	// The linked trace must be retrievable — an exemplar pointing at an
	// evicted trace is a dead link.
	tr, err := http.Get(ts.URL + "/v1/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("exemplar trace %s not retained: status %d", traceID, tr.StatusCode)
	}
}

// syncBuffer serializes writes from the handler goroutines against
// the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitAccessLines polls a JSON access log until it holds a request line
// for every route, and returns the latest line per route. The
// middleware logs after the handler returns, which can be after the
// client has read the whole response.
func waitAccessLines(t *testing.T, log *syncBuffer, routes ...string) map[string]map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		lines := map[string]map[string]any{}
		for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("non-JSON log line %q: %v", line, err)
			}
			if route, ok := rec["route"].(string); ok && rec["msg"] == "request" {
				lines[route] = rec
			}
		}
		missing := ""
		for _, r := range routes {
			if lines[r] == nil {
				missing = r
			}
		}
		if missing == "" {
			return lines
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access-log line for %s within 10s", missing)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAccessLogCarriesTraceID(t *testing.T) {
	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	logBuf := &syncBuffer{}
	srv.log = slog.New(slog.NewJSONHandler(logBuf, nil))
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/run?machine=sqli&trace=1", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	r2, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()

	// Each access-log line is written after its response reached the
	// client, so wait for them instead of reading the log once.
	lines := waitAccessLines(t, logBuf, "/v1/run", "/v1/status")
	tracedLine, untracedLine := lines["/v1/run"], lines["/v1/status"]
	if got := tracedLine["trace_id"]; got != traceID {
		t.Errorf("traced access log trace_id=%v, want %q", got, traceID)
	}
	if got := untracedLine["trace_id"]; got != "" {
		t.Errorf("untraced access log trace_id=%v, want empty", got)
	}
}

func TestStatusReportsObservability(t *testing.T) {
	col := &collectorStub{}
	colSrv := httptest.NewServer(col.handler(t))
	defer colSrv.Close()

	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.sampler = trace.NewSampler(trace.SamplerConfig{})
	srv.exporter, err = otlp.New(otlp.Config{Endpoint: colSrv.URL, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.exporter.Shutdown(context.Background())
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/run?machine=sqli", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	r2, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var st serverapi.Status
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Observability == nil || st.Observability.Sampler == nil || st.Observability.Exporter == nil {
		t.Fatalf("observability block missing: %+v", st.Observability)
	}
	if st.Observability.Sampler.Kept == 0 {
		t.Errorf("sampler saw no decisions: %+v", st.Observability.Sampler)
	}
	if st.Observability.Exporter.Endpoint != colSrv.URL {
		t.Errorf("exporter endpoint: %+v", st.Observability.Exporter)
	}
}
