package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/trace"
)

// Request-scoped tracing for the HTTP surface. A request is traced when
// it asks for it (?trace=1) or arrives carrying a W3C traceparent
// header (so fsmserve slots into an existing distributed trace); the
// trace rides the request context down through the engine and the core
// chunk loops, is finished when the handler returns, and lands in the
// flight recorder for GET /v1/traces{,/{id}}. Untraced requests pay
// nothing beyond one context Value miss per instrumented boundary.

// wantsTrace reports whether the request opted into tracing.
func wantsTrace(req *http.Request) bool {
	return req.URL.Query().Get("trace") != "" || req.Header.Get("traceparent") != ""
}

// statusWriter captures the response status for the access log while
// forwarding Flush, which the NDJSON batch streaming depends on. A
// stream that fails after its 200 went out (/v1/transduce) overwrites
// status with the one its failure maps to, so the access log, the SLO
// tracker and the trace count the failure.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a route handler with the access log, the SLO
// tracker, and — when traceable — request-scoped tracing: it opens
// (or continues) the trace, exposes its ID in the X-Trace-Id response
// header, and records the finished trace into the flight recorder and
// the OTLP exporter. A request the caller explicitly traced (?trace=1
// or traceparent) is always retained; when a sampler is configured,
// every other traceable request is traced too and the sampler decides
// retention at completion, when duration/status/attrs exist.
func (s *server) instrument(route string, traceable bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		var tr *trace.Trace
		explicit := wantsTrace(req)
		if traceable && (explicit || s.sampler != nil) {
			tr = trace.FromParent(req.Header.Get("traceparent"))
			tr.SetName(req.Method + " " + route)
			tr.SetAttrs(
				trace.Str("route", route),
				trace.Str("method", req.Method),
			)
			req = req.WithContext(trace.NewContext(req.Context(), tr))
			w.Header().Set("X-Trace-Id", tr.ID())
		}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, req)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(t0)
		if tr != nil {
			tr.SetAttrs(trace.Int("status", int64(status)))
			tr.Finish()
			if explicit || s.sampler.Sample(tr, status).Keep {
				s.recorder.Record(tr)
				s.exporter.Record(tr)
			}
		}
		s.slo.Observe(status, dur)
		s.log.Info("request",
			"method", req.Method,
			"route", route,
			"status", status,
			"duration_ms", float64(dur.Nanoseconds())/1e6,
			"trace_id", tr.ID(),
		)
	}
}

// handleTraces is GET /v1/traces: the flight recorder's retained
// traces, newest first, filterable with ?machine=NAME and ?min_ms=N.
func (s *server) handleTraces(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/traces")
		return
	}
	q := req.URL.Query()
	machine := q.Get("machine")
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad min_ms: want a non-negative number of milliseconds")
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	out := []serverapi.TraceInfo{}
	for _, t := range s.recorder.Snapshot() {
		if t.Duration() < minDur {
			continue
		}
		info := traceInfo(t)
		if machine != "" && info.Machine != machine {
			continue
		}
		out = append(out, info)
	}
	writeJSON(w, out)
}

// handleTraceByID is GET /v1/traces/{id}: the full span tree of one
// retained trace.
func (s *server) handleTraceByID(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/traces/{id}")
		return
	}
	id := strings.TrimPrefix(req.URL.Path, serverapi.Version+"/traces/")
	t := s.recorder.Find(id)
	if t == nil {
		writeError(w, http.StatusNotFound, "trace "+id+" not in the flight recorder (evicted or never recorded)")
		return
	}
	writeJSON(w, t)
}

// traceInfo summarizes one trace for the list endpoint. The machine
// name lives on the engine.exec span, not the trace itself.
func traceInfo(t *trace.Trace) serverapi.TraceInfo {
	info := serverapi.TraceInfo{
		TraceID:     t.ID(),
		Name:        t.Name(),
		Error:       t.Error(),
		StartUnixNs: t.StartTime().UnixNano(),
		DurationNs:  int64(t.Duration()),
	}
	spans := t.Spans()
	info.Spans = len(spans)
	for _, sp := range spans {
		if sp.Name != engine.SpanExec {
			continue
		}
		if a, ok := trace.FindAttr(sp.Attrs, engine.AttrMachine); ok {
			info.Machine = a.Text()
			break
		}
	}
	return info
}

// buildExplain renders the inline explain block of POST
// /v1/run?trace=1: the dispatch decision and chunk count come from the
// job's record (r), the per-chunk profiles from the spans core emitted
// — addressed by their exported name/attr constants — so its numbers
// are exactly what landed in the aggregate telemetry.
func buildExplain(tr *trace.Trace, r engine.Result) *serverapi.Explain {
	ex := &serverapi.Explain{
		Lane:        r.Lane,
		LaneReason:  r.Reason,
		Strategy:    r.Strategy,
		QueueWaitNs: int64(r.QueueWait),
		ChunkCount:  r.Stats.Chunks,
	}
	for _, sp := range tr.Spans() {
		if sp.Name == core.SpanSingle || sp.Name == core.SpanPhase1Chunk {
			ex.Chunks = append(ex.Chunks, explainChunk(sp))
		}
	}
	// Phase-1 chunk spans end in goroutine completion order; present
	// them in chunk order.
	sort.Slice(ex.Chunks, func(i, j int) bool { return ex.Chunks[i].Index < ex.Chunks[j].Index })
	return ex
}

// explainChunk lifts one single-run or phase-1-chunk span into the
// wire shape.
func explainChunk(sp trace.SpanView) serverapi.ExplainChunk {
	attr := func(key string) int64 {
		a, _ := trace.FindAttr(sp.Attrs, key)
		return a.Int64()
	}
	c := serverapi.ExplainChunk{
		Index:       int(attr(core.AttrChunk)),
		Offset:      attr(core.AttrOffset),
		Bytes:       attr(core.AttrBytes),
		DurationNs:  int64(sp.Duration),
		Gathers:     attr(core.AttrGathers),
		Shuffles:    attr(core.AttrShuffles),
		FactorCalls: attr(core.AttrFactorCalls),
		FactorWins:  attr(core.AttrFactorWins),
		WidthStart:  int(attr(core.AttrWidthStart)),
		WidthFinal:  int(attr(core.AttrWidthFinal)),
		ConvergedAt: int(attr(core.AttrConvergedAt)),
	}
	if a, ok := trace.FindAttr(sp.Attrs, core.AttrWidths); ok {
		c.Widths = a.Text()
	}
	return c
}
