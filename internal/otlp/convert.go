package otlp

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"dpfsm/internal/telemetry"
	"dpfsm/internal/trace"
)

// OTLP/HTTP JSON encoding, written to the OTLP 1.x JSON mapping:
// int64 fields (timestamps, intValue) encode as decimal strings per
// the proto3 JSON uint64/int64 rule, IDs as lowercase hex (not
// base64 — the JSON mapping uses hex for traceId/spanId), and sums
// carry aggregationTemporality 2 (cumulative) with the exporter's
// start time.
//
// Only the structures this exporter emits are modeled; this is a wire
// writer, not a general OTLP client.

type keyValue struct {
	Key   string   `json:"key"`
	Value anyValue `json:"value"`
}

type anyValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
}

func strVal(s string) anyValue  { return anyValue{StringValue: &s} }
func boolVal(b bool) anyValue   { return anyValue{BoolValue: &b} }
func dblVal(f float64) anyValue { return anyValue{DoubleValue: &f} }
func intVal(v int64) anyValue {
	s := strconv.FormatInt(v, 10)
	return anyValue{IntValue: &s}
}

func attrKV(a trace.Attr) keyValue {
	kv := keyValue{Key: a.Key}
	switch v := a.Value().(type) {
	case string:
		kv.Value = strVal(v)
	case bool:
		kv.Value = boolVal(v)
	case float64:
		kv.Value = dblVal(v)
	case int64:
		kv.Value = intVal(v)
	default:
		kv.Value = strVal(fmt.Sprint(v))
	}
	return kv
}

// Traces.

type tracesDoc struct {
	ResourceSpans []resourceSpans `json:"resourceSpans"`
}

type resourceSpans struct {
	Resource   resource     `json:"resource"`
	ScopeSpans []scopeSpans `json:"scopeSpans"`
}

type resource struct {
	Attributes []keyValue `json:"attributes"`
}

type scopeSpans struct {
	Scope scope      `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type scope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID      string     `json:"traceId"`
	SpanID       string     `json:"spanId"`
	ParentSpanID string     `json:"parentSpanId,omitempty"`
	Name         string     `json:"name"`
	Kind         int        `json:"kind"`
	StartTime    string     `json:"startTimeUnixNano"`
	EndTime      string     `json:"endTimeUnixNano"`
	Attributes   []keyValue `json:"attributes,omitempty"`
	Status       *status    `json:"status,omitempty"`
}

type status struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

// OTLP span kinds and status codes (enum numeric values from the
// OTLP proto).
const (
	spanKindInternal = 1
	spanKindServer   = 2

	statusOK    = 1
	statusError = 2
)

func unixNano(t time.Time) string { return strconv.FormatInt(t.UnixNano(), 10) }

// spanID derives a stable 16-hex span ID for internal span idx of a
// trace. Internal spans carry int32 IDs, not wire IDs; hashing
// (traceID, idx) gives each a collision-resistant-enough wire ID that
// is reproducible across exports of the same trace.
func spanID(traceID string, idx int32) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s:%d", traceID, idx)
	return fmt.Sprintf("%016x", h.Sum64())
}

// tracesPayload renders a batch of finished traces as one OTLP
// export request. Each trace becomes a server-kind root span (using
// the trace's own propagation span ID, so downstream services that
// honored our traceparent parent correctly) plus one internal span
// per recorded span, parented by the recorded hierarchy.
func tracesPayload(serviceName string, batch []*trace.Trace) tracesDoc {
	var spans []otlpSpan
	for _, t := range batch {
		tid := t.ID()
		start := t.StartTime()
		end := start.Add(t.Duration())
		name := t.Name()
		if name == "" {
			name = "request"
		}
		root := otlpSpan{
			TraceID:      tid,
			SpanID:       t.SpanID(),
			ParentSpanID: t.ParentSpanID(),
			Name:         name,
			Kind:         spanKindServer,
			StartTime:    unixNano(start),
			EndTime:      unixNano(end),
			Status:       &status{Code: statusOK},
		}
		if msg := t.Error(); msg != "" {
			root.Status = &status{Code: statusError, Message: msg}
		}
		root.Attributes = traceAttrs(t)
		spans = append(spans, root)
		for _, sv := range t.Spans() {
			parent := t.SpanID()
			if sv.Parent != 0 {
				parent = spanID(tid, sv.Parent)
			}
			sp := otlpSpan{
				TraceID:      tid,
				SpanID:       spanID(tid, sv.ID),
				ParentSpanID: parent,
				Name:         sv.Name,
				Kind:         spanKindInternal,
				StartTime:    unixNano(sv.Start),
				EndTime:      unixNano(sv.Start.Add(sv.Duration)),
			}
			for _, a := range sv.Attrs {
				sp.Attributes = append(sp.Attributes, attrKV(a))
			}
			spans = append(spans, sp)
		}
	}
	return tracesDoc{ResourceSpans: []resourceSpans{{
		Resource:   resource{Attributes: []keyValue{{Key: "service.name", Value: strVal(serviceName)}}},
		ScopeSpans: []scopeSpans{{Scope: scope{Name: "dpfsm"}, Spans: spans}},
	}}}
}

// traceAttrs renders the trace-level attributes onto the root span,
// plus dropped-span accounting when the span cap bit.
func traceAttrs(t *trace.Trace) []keyValue {
	var out []keyValue
	for _, a := range t.Attrs() {
		out = append(out, attrKV(a))
	}
	if d := t.Dropped(); d > 0 {
		out = append(out, keyValue{Key: "dpfsm.dropped_spans", Value: intVal(d)})
	}
	return out
}

// Metrics.

type metricsDoc struct {
	ResourceMetrics []resourceMetrics `json:"resourceMetrics"`
}

type resourceMetrics struct {
	Resource     resource       `json:"resource"`
	ScopeMetrics []scopeMetrics `json:"scopeMetrics"`
}

type scopeMetrics struct {
	Scope   scope        `json:"scope"`
	Metrics []otlpMetric `json:"metrics"`
}

type otlpMetric struct {
	Name  string     `json:"name"`
	Unit  string     `json:"unit,omitempty"`
	Sum   *otlpSum   `json:"sum,omitempty"`
	Gauge *otlpGauge `json:"gauge,omitempty"`
}

type otlpSum struct {
	DataPoints             []dataPoint `json:"dataPoints"`
	AggregationTemporality int         `json:"aggregationTemporality"` // 2 = cumulative
	IsMonotonic            bool        `json:"isMonotonic"`
}

type otlpGauge struct {
	DataPoints []dataPoint `json:"dataPoints"`
}

type dataPoint struct {
	StartTime string   `json:"startTimeUnixNano,omitempty"`
	Time      string   `json:"timeUnixNano"`
	AsInt     *string  `json:"asInt,omitempty"`
	AsDouble  *float64 `json:"asDouble,omitempty"`
}

// metricsPayload renders a telemetry snapshot as one OTLP export
// request: the engine/runtime counters as cumulative monotonic sums
// (start = exporter start), the instantaneous quantities as gauges.
func metricsPayload(serviceName string, snap telemetry.Snapshot, start, now time.Time) metricsDoc {
	s, n := unixNano(start), unixNano(now)
	intPoint := func(v int64) []dataPoint {
		str := strconv.FormatInt(v, 10)
		return []dataPoint{{StartTime: s, Time: n, AsInt: &str}}
	}
	dblPoint := func(v float64) []dataPoint {
		return []dataPoint{{Time: n, AsDouble: &v}}
	}
	sum := func(name, unit string, v int64) otlpMetric {
		return otlpMetric{Name: name, Unit: unit, Sum: &otlpSum{
			DataPoints: intPoint(v), AggregationTemporality: 2, IsMonotonic: true,
		}}
	}
	gaugeInt := func(name, unit string, v int64) otlpMetric {
		str := strconv.FormatInt(v, 10)
		return otlpMetric{Name: name, Unit: unit, Gauge: &otlpGauge{
			DataPoints: []dataPoint{{Time: n, AsInt: &str}},
		}}
	}
	gaugeDbl := func(name, unit string, v float64) otlpMetric {
		return otlpMetric{Name: name, Unit: unit, Gauge: &otlpGauge{DataPoints: dblPoint(v)}}
	}

	metrics := []otlpMetric{
		sum("dpfsm.runs", "{run}", snap.Runs),
		sum("dpfsm.symbols", "{symbol}", snap.Symbols),
		sum("dpfsm.shuffles", "{shuffle}", snap.Shuffles),
		sum("dpfsm.stream.bytes", "By", snap.StreamBytes),
		sum("dpfsm.engine.jobs", "{job}", snap.EngineJobs),
		sum("dpfsm.engine.job_errors", "{job}", snap.EngineJobErrors),
		sum("dpfsm.engine.canceled", "{job}", snap.EngineCanceled),
		sum("dpfsm.engine.queue_rejects", "{job}", snap.EngineQueueRejects),
		sum("dpfsm.engine.spec_chunks", "{chunk}", snap.SpecChunks),
		sum("dpfsm.engine.spec_mispredicts", "{chunk}", snap.SpecMispredicts),
		gaugeInt("dpfsm.engine.queue_depth", "{job}", snap.EngineQueueDepth),
		gaugeInt("dpfsm.engine.job_latency_p50", "ns", snap.EngineJobLatencyP50),
		gaugeInt("dpfsm.engine.job_latency_p90", "ns", snap.EngineJobLatencyP90),
		gaugeInt("dpfsm.engine.job_latency_p99", "ns", snap.EngineJobLatencyP99),
		gaugeDbl("dpfsm.shuffles_per_symbol", "1", snap.ShufflesPerSymbol),
		gaugeDbl("dpfsm.engine.spec_mispredict_rate", "1", snap.SpecMispredictRate),
	}
	return metricsDoc{ResourceMetrics: []resourceMetrics{{
		Resource:     resource{Attributes: []keyValue{{Key: "service.name", Value: strVal(serviceName)}}},
		ScopeMetrics: []scopeMetrics{{Scope: scope{Name: "dpfsm"}, Metrics: metrics}},
	}}}
}
