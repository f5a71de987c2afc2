// Package serverapi defines the JSON request/response shapes of the
// fsmserve HTTP API, shared between the server (cmd/fsmserve) and any
// Go client, so wire compatibility is a compile-time property instead
// of two hand-maintained struct sets.
//
// The API is versioned under /v1/; see cmd/fsmserve's package comment
// for the route table. The unversioned alias routes that rode along
// for one deprecation cycle have been removed — clients must use the
// /v1 surface.
//
// Errors: every non-2xx response carries the Error envelope — a
// human-readable message plus a stable machine-readable Code (one of
// the Code* constants below), so clients branch on the code, not on
// message text.
package serverapi

import (
	"strconv"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/otlp"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/trace"
)

// Version is the current API version prefix.
const Version = "/v1"

// Stable error codes carried by Error.Code. Clients should branch on
// these, not on HTTP status alone (504 vs 503, say, both collapse to
// "the work did not finish" — the code says why).
const (
	CodeBadRequest       = "bad_request"        // malformed input, bad query param, bad start state
	CodeNotFound         = "not_found"          // unknown machine, trace, or route
	CodeMethodNotAllowed = "method_not_allowed" // wrong HTTP verb for the route
	CodeConflict         = "conflict"           // duplicate machine name on register
	CodeTooLarge         = "too_large"          // body exceeded -maxbody
	CodeQueueFull        = "queue_full"         // engine shed the job (back off and retry)
	CodeTimeout          = "timeout"            // the job's deadline expired
	CodeCanceled         = "canceled"           // the client went away mid-run, or the engine is shutting down
	CodeInternal         = "internal"           // anything else
)

// RunResult is the response body of POST /v1/run.
type RunResult struct {
	Machine string    `json:"machine"`
	Bytes   int       `json:"bytes"`
	Final   fsm.State `json:"final_state"`
	Accepts bool      `json:"accepts"`
	// FirstMatch is the earliest accepting position, present only when
	// the request asked for it (?first=1); -1 means no match.
	FirstMatch *int `json:"first_match,omitempty"`
	// Lane is the engine lane the job ran on: "single" or "multicore".
	Lane string `json:"lane,omitempty"`
	// Strategy is the strategy that actually executed — the resolved
	// one, never "auto". SelectionReason is the dispatch policy's
	// stated reason for the lane choice (the input's size against the
	// large-input threshold).
	Strategy        string  `json:"strategy,omitempty"`
	SelectionReason string  `json:"selection_reason,omitempty"`
	DurationNs      int64   `json:"duration_ns"`
	MBPerS          float64 `json:"mb_per_s"`
	// TraceID is set when the request was traced (?trace=1 or an
	// inbound traceparent header); the full span tree is retained by
	// the flight recorder at GET /v1/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
	// Explain is the inline execution profile, present on ?trace=1.
	Explain *Explain `json:"explain,omitempty"`
}

// Explain summarizes why one traced run behaved the way it did: the
// dispatch-lane decision, the resolved strategy, and the per-chunk
// convergence profile. Its numbers are the exact values the hot loops
// flushed into the aggregate telemetry for this run — not estimates.
type Explain struct {
	// Lane is "single" or "multicore"; LaneReason is the
	// dispatch policy's stated reason.
	Lane       string `json:"lane"`
	LaneReason string `json:"lane_reason,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	// QueueWaitNs is time spent waiting in the engine queue; absent for
	// the synchronous /v1/run path, which bypasses the queue.
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	// ChunkCount is 1 on the single-core lane, the Figure 5 fan-out
	// width on the multicore lane.
	ChunkCount int            `json:"chunks"`
	Chunks     []ExplainChunk `json:"chunk_profiles,omitempty"`
}

// ExplainChunk is the convergence profile of one executed extent: the
// whole input on the single-core lane, one phase-1 chunk on the
// multicore lane.
type ExplainChunk struct {
	Index      int   `json:"chunk"`
	Offset     int64 `json:"offset"`
	Bytes      int64 `json:"bytes"`
	DurationNs int64 `json:"duration_ns"`
	// Gathers/Shuffles/FactorCalls/FactorWins mirror the telemetry
	// counters of the same names (section 4.2 cost model).
	Gathers     int64 `json:"gathers"`
	Shuffles    int64 `json:"shuffles"`
	FactorCalls int64 `json:"factor_calls"`
	FactorWins  int64 `json:"factor_wins"`
	WidthStart  int   `json:"width_start"`
	WidthFinal  int   `json:"width_final"`
	// ConvergedAt is the input position at which the enumerative vector
	// entered the register regime (width ≤ 8); -1 means it never did.
	ConvergedAt int `json:"converged_at"`
	// Widths is the "width@pos" factor-win trajectory (Figure 7 shape),
	// empty when no factor check shrank the vector.
	Widths string `json:"widths,omitempty"`
}

// TraceInfo is one entry of GET /v1/traces: enough to pick a trace out
// of the flight recorder without shipping every span tree.
type TraceInfo struct {
	TraceID     string `json:"trace_id"`
	Name        string `json:"name,omitempty"`
	Machine     string `json:"machine,omitempty"`
	Error       string `json:"error,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurationNs  int64  `json:"duration_ns"`
	Spans       int    `json:"spans"`
}

// MachineInfo is one entry of GET /v1/machines. Strategy rides the
// wire as its name via core.Strategy's TextMarshaler, so the JSON
// shape is unchanged from when this field was a hand-converted string.
type MachineInfo struct {
	Name     string        `json:"name"`
	Pattern  string        `json:"pattern"`
	Strategy core.Strategy `json:"strategy"`
	Procs    int           `json:"procs"`
	// Fingerprint is the compiled plan's cache identity:
	// hash(machine encoding, resolved strategy).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Source records how the machine entered the registry: "default",
	// "file" (-patterns-file / SIGHUP reload), "api"
	// (POST /v1/machines), or "builtin" (compiled-in tokenizers).
	Source string `json:"source,omitempty"`
	// Kind classifies the machine: "acceptor", "moore", or "mealy".
	// OutputTableBytes is the λ table's footprint, 0 for acceptors.
	Kind             string    `json:"kind,omitempty"`
	OutputTableBytes int       `json:"output_table_bytes,omitempty"`
	Stats            fsm.Stats `json:"stats"`
}

// RegisterRequest is the body of POST /v1/machines: compile Pattern
// and register it under Name. The server compiles every machine with
// the Auto strategy (core.Auto); it ignores unknown fields, a
// "strategy" among them.
type RegisterRequest struct {
	Name    string `json:"name"`
	Pattern string `json:"pattern"`
}

// RegisterResult is the response of POST /v1/machines: the registered
// machine plus what its compilation cost.
type RegisterResult struct {
	Machine MachineInfo `json:"machine"`
	// CompileNs is the wall time of compile-and-register.
	CompileNs int64 `json:"compile_ns"`
	// TableBytes approximates the compiled plan's table footprint.
	TableBytes int `json:"table_bytes"`
	// AutoReason explains the Auto strategy decision: why the plan runs
	// the strategy Machine.Strategy names.
	AutoReason string `json:"auto_reason,omitempty"`
}

// BatchJob is one request line of POST /v1/batch (NDJSON: one JSON
// object per line). Exactly one of Input and InputB64 should be set;
// InputB64 carries binary payloads that are not valid JSON strings.
// A job runs its machine's compiled plan on the lane the engine picks;
// a line names neither, and the server ignores unknown fields, a
// "strategy" among them.
type BatchJob struct {
	Machine  string `json:"machine,omitempty"`
	Input    string `json:"input,omitempty"`
	InputB64 string `json:"input_b64,omitempty"`
	// Start overrides the machine's start state when non-nil.
	Start *int `json:"start,omitempty"`
	// TimeoutMs bounds this job alone, nested inside the request
	// context.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// BatchResult is one response line of POST /v1/batch. Results stream
// in completion order; Index maps each back to its request line
// (0-based). Error is set when the job failed (bad request line,
// unknown machine, cancellation, ...), in which case the run fields
// are meaningless.
type BatchResult struct {
	Index   int       `json:"index"`
	Machine string    `json:"machine,omitempty"`
	Final   fsm.State `json:"final_state"`
	Accepts bool      `json:"accepts"`
	Bytes   int       `json:"bytes"`
	// Lane is the engine lane ("single" or "multicore").
	// Strategy is the resolved strategy that executed.
	Lane       string `json:"lane,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	DurationNs int64  `json:"duration_ns"`
	Error      string `json:"error,omitempty"`
}

// BatchSummary aggregates one batch; it is the payload of the final
// NDJSON line of a /v1/batch response (wrapped in BatchTrailer).
type BatchSummary struct {
	Jobs       int   `json:"jobs"`
	OK         int   `json:"ok"`
	Errors     int   `json:"errors"`
	Canceled   int   `json:"canceled"`
	SingleCore int   `json:"single_core"`
	Multicore  int   `json:"multicore"`
	Bytes      int64 `json:"bytes"`
	DurationNs int64 `json:"duration_ns"`
}

// BatchTrailer is the last line of a /v1/batch response. Its Summary
// field distinguishes it from BatchResult lines.
type BatchTrailer struct {
	Summary BatchSummary `json:"summary"`
}

// TransduceHeader is the first NDJSON line of a POST /v1/transduce
// response: the machine that ran and the input size, before any span
// streams. Its Machine field distinguishes it from span lines.
type TransduceHeader struct {
	Machine string `json:"machine"`
	// Kind is "moore" or "mealy" (acceptors reject transduce requests).
	Kind  string `json:"kind"`
	Bytes int    `json:"bytes"`
}

// TransduceSpan is one span line of a /v1/transduce response: input
// [Start, End) all emitted output symbol Out (never the none/gap
// symbol — gaps are simply absent from the stream). Spans stream in
// input order.
type TransduceSpan struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Out   int `json:"out"`
}

// AppendTransduceSpan appends sp's NDJSON line to dst: byte for byte
// what encoding/json's Encoder writes for it,
// {"start":S,"end":E,"out":O} and a newline, without reflection.
func AppendTransduceSpan(dst []byte, sp TransduceSpan) []byte {
	dst = append(dst, `{"start":`...)
	dst = strconv.AppendInt(dst, int64(sp.Start), 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, int64(sp.End), 10)
	dst = append(dst, `,"out":`...)
	dst = strconv.AppendInt(dst, int64(sp.Out), 10)
	return append(dst, "}\n"...)
}

// TransduceSummary aggregates one transduce request; it is the payload
// of the final NDJSON line (wrapped in TransduceTrailer).
type TransduceSummary struct {
	Spans int `json:"spans"`
	// OutputBytes is the input bytes covered by emitted spans — the
	// useful-work companion to Bytes.
	OutputBytes int64     `json:"output_bytes"`
	Bytes       int       `json:"bytes"`
	Final       fsm.State `json:"final_state"`
	Accepts     bool      `json:"accepts"`
	// Lane/Strategy/SelectionReason record the dispatch decision, as on
	// /v1/run.
	Lane            string  `json:"lane,omitempty"`
	Strategy        string  `json:"strategy,omitempty"`
	SelectionReason string  `json:"selection_reason,omitempty"`
	DurationNs      int64   `json:"duration_ns"`
	MBPerS          float64 `json:"mb_per_s"`
	// TraceID is set when the request was traced (?trace=1 or an
	// inbound traceparent header).
	TraceID string `json:"trace_id,omitempty"`
}

// TransduceTrailer is the last line of a /v1/transduce response. Its
// Summary field distinguishes it from header and span lines.
type TransduceTrailer struct {
	Summary TransduceSummary `json:"summary"`
}

// TransduceErrorTrailer is the last line of a /v1/transduce stream that
// failed after its first byte (the 200 status already sent): a
// timeout, a cancellation, a shutdown, or a failed write. Such a stream
// carries no summary line, so a stream without one is incomplete.
type TransduceErrorTrailer struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is a failure reported inside a 200 stream: the Code the
// Error envelope would have carried, and the message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Status is the response body of GET /v1/status: one document a human
// or dashboard reads to answer "how is this server doing, and what do
// its machines look like under the current traffic" — the live
// counterpart of the profiles persisted in the -profile-dir.
type Status struct {
	Service   string `json:"service"`
	GoVersion string `json:"go_version"`
	// Build is the main module's version from the embedded build info
	// ("(devel)" for an untagged build).
	Build       string `json:"build,omitempty"`
	PID         int    `json:"pid"`
	StartUnixNs int64  `json:"start_unix_ns"`
	UptimeNs    int64  `json:"uptime_ns"`

	// Engine shape and health.
	Workers        int   `json:"workers"`
	Procs          int   `json:"procs"`
	LargeInput     int   `json:"large_input"`
	QueueDepth     int   `json:"queue_depth"`
	QueueCap       int   `json:"queue_cap"`
	QueueHighWater int64 `json:"queue_high_water"`
	// ShedTotal counts jobs refused with 429; ShedRate is
	// shed/(executed+shed), the live load-shedding fraction.
	ShedTotal int64   `json:"shed_total"`
	ShedRate  float64 `json:"shed_rate"`

	// Per-machine observed performance, sorted by machine name.
	Machines int                   `json:"machines"`
	Profiles []perfprofile.Profile `json:"profiles"`

	// Runtime is the Go runtime's own health (GC pauses, heap,
	// goroutines, scheduler latency).
	Runtime telemetry.RuntimeSnapshot `json:"runtime"`

	// Observability is the export-and-retention side of the server:
	// sampler decisions and OTLP exporter counters. Absent when
	// neither sampling nor export is configured.
	Observability *Observability `json:"observability,omitempty"`
}

// Observability reports the trace sampler's decisions and the OTLP
// exporter's shipping counters, reusing the stats types those
// subsystems already keep (both are plain JSON-tagged data).
type Observability struct {
	// Sampler decision counters; nil when sampling is disabled (every
	// trace kept).
	Sampler *trace.SamplerStats `json:"sampler,omitempty"`
	// Exporter shipping counters; nil when no -otlp-endpoint was
	// configured.
	Exporter *otlp.Stats `json:"exporter,omitempty"`
}

// Readiness is the response body of GET /readyz. Ready mirrors the
// HTTP status (200 ready / 503 unready); Reasons lists why when
// unready ("starting", "draining", "slo_fast_burn").
type Readiness struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// MachineProfile is the response body of GET /v1/machines/{name}/profile:
// the machine's static identity joined with its observed performance.
type MachineProfile struct {
	Machine MachineInfo `json:"machine"`
	// Profile is the accumulated per-lane performance history; absent
	// when the machine has never executed a job.
	Profile *perfprofile.Profile `json:"profile,omitempty"`
}

// Error is the JSON error body non-2xx responses carry. Code is one
// of the Code* constants; Error is the human-readable message.
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
