// Package trace is the request-scoped execution-trace layer of the
// data-parallel FSM runtime. Where internal/telemetry answers aggregate
// questions (total shuffles, convergence high-water marks, phase wall
// time), a Trace answers "why was *this* job slow": it carries a W3C
// trace ID through one job's whole lifecycle and collects timestamped
// spans — engine enqueue, dispatch-lane decision, per-chunk phase-1
// convergence profiles — into a tree a human or a frontend can read
// back.
//
// The layer composes with, and never replaces, the aggregate
// telemetry: the same stack locals the hot loops flush into
// telemetry.Metrics are also flushed into the active span's attributes
// when — and only when — a Trace rides the context.
//
// Design constraints, in order:
//
//  1. Zero cost when absent. FromContext on a context without a trace
//     is one Value lookup and no allocation; Start then returns a nil
//     *Span whose every method is a no-op, so instrumented code is
//     written unconditionally and pays nothing untraced.
//
//  2. Safe under the runtime's concurrency. Phase-1 chunk goroutines
//     start and end spans concurrently; span allocation is a single
//     mutex-protected append (traces hold tens of spans, not
//     thousands), and a per-trace span cap bounds memory even when a
//     batch request attaches thousands of jobs to one trace.
//
//  3. Interoperable IDs. Inbound W3C `traceparent` headers are
//     honored, so a dpfsm service slots into an existing distributed
//     trace; otherwise a random 16-byte ID is generated.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans bounds the spans one trace retains; starts past the
// cap are dropped (counted, reported in the JSON form) so a huge batch
// cannot turn its request trace into an allocation bomb.
const DefaultMaxSpans = 1024

// Attr is one typed key/value attribute on a span or trace.
type Attr struct {
	Key  string
	kind attrKind
	num  int64
	flt  float64
	str  string
}

type attrKind uint8

const (
	kindInt attrKind = iota
	kindStr
	kindBool
	kindFloat
)

// Int makes an int64 attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// Str makes a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, str: v} }

// Bool makes a boolean attribute.
func Bool(key string, v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{Key: key, kind: kindBool, num: n}
}

// Float makes a float64 attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, flt: v} }

// Value returns the attribute's value as the matching Go type, for
// JSON encoding and generic consumers.
func (a Attr) Value() any {
	switch a.kind {
	case kindStr:
		return a.str
	case kindBool:
		return a.num != 0
	case kindFloat:
		return a.flt
	default:
		return a.num
	}
}

// Int64 returns the attribute as an int64 (0 for non-numeric kinds).
func (a Attr) Int64() int64 {
	if a.kind == kindFloat {
		return int64(a.flt)
	}
	return a.num
}

// Text returns the attribute as a string ("" for non-string kinds).
func (a Attr) Text() string { return a.str }

// FindAttr returns the first attribute with the given key.
func FindAttr(attrs []Attr, key string) (Attr, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// attrMap renders attrs as a JSON-encodable map.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// Span is one timestamped operation within a Trace. A nil *Span is the
// disabled form: every method returns immediately, which is what lets
// instrumentation run unconditionally on untraced paths.
//
// A span is owned by the goroutine that started it until End; SetAttrs
// and End must not race with each other, but distinct spans of one
// trace may start, annotate and end fully concurrently.
type Span struct {
	tr     *Trace
	id     int32
	parent int32 // 0 = root-level
	name   string
	start  time.Time
	dur    atomic.Int64 // ns; 0 while open
	attrs  []Attr
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span, fixing its duration. Idempotent; later calls
// keep the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur.CompareAndSwap(0, int64(time.Since(s.start)))
}

// TraceID returns the ID of the trace s belongs to ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.ID()
}

// Child starts a sub-span of s. Nil-safe: a nil receiver returns a nil
// child, so fan-out goroutines can capture their parent handle without
// checking whether tracing is on.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(s.id, name)
}

// Trace is one request-scoped execution trace. Construct with New or
// FromParent, attach to a context with NewContext, Finish when the
// request completes, then hand it to a Recorder.
type Trace struct {
	id        string // 32 lowercase hex chars (16 bytes)
	parent    string // inbound parent span ID (16 hex chars), "" if locally rooted
	spanID    string // this trace's own propagation span ID (16 hex chars)
	start     time.Time
	maxSpans  int
	nextSpan  atomic.Int32
	dropped   atomic.Int64
	endNs     atomic.Int64 // duration at Finish; 0 while live
	mu        sync.Mutex
	name      string
	attrs     []Attr
	spans     []*Span
	errString string
}

// New starts a trace with a freshly generated random ID.
func New() *Trace {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// a time-derived ID rather than panicking in a hot service.
		binary.LittleEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
	}
	return &Trace{
		id:       hex.EncodeToString(b[:16]),
		spanID:   hex.EncodeToString(b[16:24]),
		start:    time.Now(),
		maxSpans: DefaultMaxSpans,
	}
}

// FromParent starts a trace continuing an inbound W3C traceparent
// header ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>").
// A missing or malformed header falls back to New, so callers can pass
// the header through unconditionally.
func FromParent(traceparent string) *Trace {
	id, parent, err := ParseTraceparent(traceparent)
	if err != nil {
		return New()
	}
	t := New()
	t.id = id
	t.parent = parent
	return t
}

// ParseTraceparent validates a W3C traceparent header and returns its
// trace-id and parent-id fields. A version-00 header is exactly 55
// bytes; a later version may append fields after a '-' at offset 55.
func ParseTraceparent(h string) (traceID, parentID string, err error) {
	// version(2) "-" trace-id(32) "-" parent-id(16) "-" flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", fmt.Errorf("trace: malformed traceparent %q", h)
	}
	if len(h) > 55 && (h[:2] == "00" || h[55] != '-') {
		return "", "", fmt.Errorf("trace: trailing data in traceparent %q", h)
	}
	if h[:2] == "ff" {
		return "", "", fmt.Errorf("trace: invalid traceparent version %q", h[:2])
	}
	traceID, parentID = h[3:35], h[36:52]
	if !isHex(h[:2]) || !isHex(traceID) || !isHex(parentID) || !isHex(h[53:55]) {
		return "", "", fmt.Errorf("trace: non-hex traceparent %q", h)
	}
	if allZero(traceID) || allZero(parentID) {
		return "", "", fmt.Errorf("trace: all-zero traceparent field in %q", h)
	}
	return traceID, parentID, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// ID returns the 32-hex-char trace ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Traceparent renders the outbound W3C traceparent header for
// propagating this trace to a downstream service.
func (t *Trace) Traceparent() string {
	return "00-" + t.id + "-" + t.spanID + "-01"
}

// SpanID returns the trace's own 16-hex-char propagation span ID —
// the ID a downstream service sees as its parent, and the ID an
// exporter should use for this trace's synthesized root span.
func (t *Trace) SpanID() string {
	if t == nil {
		return ""
	}
	return t.spanID
}

// ParentSpanID returns the inbound parent span ID when this trace
// joined a distributed trace via traceparent, "" when locally rooted.
func (t *Trace) ParentSpanID() string {
	if t == nil {
		return ""
	}
	return t.parent
}

// SetName names the trace (e.g. "POST /v1/run").
func (t *Trace) SetName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.name = name
	t.mu.Unlock()
}

// Name returns the trace's name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.name
}

// SetAttrs appends trace-level attributes (machine, route, bytes, …).
func (t *Trace) SetAttrs(attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, attrs...)
	t.mu.Unlock()
}

// Attrs returns a copy of the trace-level attributes.
func (t *Trace) Attrs() []Attr {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Attr(nil), t.attrs...)
}

// Attr returns the trace-level attribute with the given key.
func (t *Trace) Attr(key string) (Attr, bool) {
	if t == nil {
		return Attr{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return FindAttr(t.attrs, key)
}

// SetError records a request-level error string on the trace.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.errString = msg
	t.mu.Unlock()
}

// Error returns the request-level error string ("" when none).
func (t *Trace) Error() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errString
}

// StartSpan opens a root-level span.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.startSpan(0, name)
}

func (t *Trace) startSpan(parent int32, name string) *Span {
	id := t.nextSpan.Add(1)
	if int(id) > t.maxSpans {
		t.dropped.Add(1)
		return nil
	}
	s := &Span{tr: t, id: id, parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Finish closes the trace, fixing its duration. Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.endNs.CompareAndSwap(0, int64(time.Since(t.start)))
}

// Finished reports whether Finish has been called.
func (t *Trace) Finished() bool { return t != nil && t.endNs.Load() != 0 }

// StartTime returns when the trace began.
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Duration returns the trace's total duration — final after Finish,
// the live elapsed time before.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	if ns := t.endNs.Load(); ns != 0 {
		return time.Duration(ns)
	}
	return time.Since(t.start)
}

// Dropped returns how many span starts the cap discarded.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// SpanView is a read-only copy of one span, for explain builders and
// tests. Spans still open have Duration 0.
type SpanView struct {
	ID       int32
	Parent   int32
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Spans returns copies of every span in start order. Attribute slices
// are shared with ended spans; callers must not mutate them.
func (t *Trace) Spans() []SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanView, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanView{
			ID:       s.id,
			Parent:   s.parent,
			Name:     s.name,
			Start:    s.start,
			Duration: time.Duration(s.dur.Load()),
			Attrs:    s.attrs,
		}
	}
	return out
}

// spanJSON is the wire form of one span-tree node.
type spanJSON struct {
	Name       string         `json:"name"`
	StartNs    int64          `json:"start_ns"` // offset from trace start
	DurationNs int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*spanJSON    `json:"children,omitempty"`
}

// traceJSON is the wire form of GET /v1/traces/{id}.
type traceJSON struct {
	TraceID      string         `json:"trace_id"`
	ParentSpan   string         `json:"parent_span,omitempty"`
	Name         string         `json:"name,omitempty"`
	Error        string         `json:"error,omitempty"`
	StartUnixNs  int64          `json:"start_unix_ns"`
	DurationNs   int64          `json:"duration_ns"`
	Attrs        map[string]any `json:"attrs,omitempty"`
	DroppedSpans int64          `json:"dropped_spans,omitempty"`
	Spans        []*spanJSON    `json:"spans"`
}

// MarshalJSON renders the trace with its spans nested into a tree.
func (t *Trace) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	nodes := make(map[int32]*spanJSON, len(t.spans))
	order := make([]int32, 0, len(t.spans))
	parents := make(map[int32]int32, len(t.spans))
	for _, s := range t.spans {
		nodes[s.id] = &spanJSON{
			Name:       s.name,
			StartNs:    s.start.Sub(t.start).Nanoseconds(),
			DurationNs: s.dur.Load(),
			Attrs:      attrMap(s.attrs),
		}
		order = append(order, s.id)
		parents[s.id] = s.parent
	}
	doc := traceJSON{
		TraceID:      t.id,
		ParentSpan:   t.parent,
		Name:         t.name,
		Error:        t.errString,
		StartUnixNs:  t.start.UnixNano(),
		DurationNs:   int64(t.Duration()),
		Attrs:        attrMap(t.attrs),
		DroppedSpans: t.dropped.Load(),
		Spans:        []*spanJSON{},
	}
	t.mu.Unlock()
	for _, id := range order {
		n := nodes[id]
		if p, ok := nodes[parents[id]]; ok && parents[id] != id {
			p.Children = append(p.Children, n)
		} else {
			doc.Spans = append(doc.Spans, n)
		}
	}
	return json.Marshal(doc)
}

// Context plumbing. Two keys: the trace itself and the current span,
// so Start can parent nested instrumentation correctly across package
// boundaries without threading span handles through every signature.

type traceKey struct{}
type spanKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil. Nil-safe on a
// nil ctx, and allocation-free either way.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// ContextWithSpan returns ctx with s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start opens a span named name under the context's current span (or
// at the root) and returns a context carrying it as the new current
// span. When ctx has no trace it returns (ctx, nil) untouched with no
// allocation — the universal instrumentation pattern:
//
//	ctx, sp := trace.Start(ctx, "engine.exec")
//	defer sp.End()
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent int32
	if cur := SpanFromContext(ctx); cur != nil {
		parent = cur.id
	}
	s := t.startSpan(parent, name)
	if s == nil { // span cap hit
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, s), s
}
