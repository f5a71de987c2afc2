package dpfsm

import (
	"context"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/regex"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/trace"
)

// This file is the stable v1 public surface: type aliases and thin
// constructors over the internal packages, so programs depend on
// `dpfsm` alone while the implementation keeps moving underneath.

// Machine substrate (internal/fsm).
type (
	// DFA is a dense table-driven finite-state machine; transitions are
	// stored column-major (one []State per input symbol) so the
	// data-parallel strategies can gather whole columns.
	DFA = fsm.DFA
	// State indexes a DFA state; machines are capped at 65536 states.
	State = fsm.State
	// Stats summarizes the static structure of a DFA (state count,
	// per-symbol range widths, convergence profile).
	Stats = fsm.Stats
	// Phi observes one (position, symbol, state) step of a chunked run.
	Phi = fsm.Phi
)

// NewDFA returns an empty machine with the given dimensions; fill it
// with SetTransition/SetColumn and mark accepting states before use.
func NewDFA(numStates, numSymbols int) (*DFA, error) { return fsm.New(numStates, numSymbols) }

// Transduction (internal/fsm + internal/core). A Transducer is a DFA
// with an output table λ — per state (Moore) or per (state, symbol)
// (Mealy) — and a transducing run emits one output symbol per input
// byte. The parallel lanes replay each chunk from the start state the
// composition fold resolves, so every lane's output tape and span list
// are byte-identical to a sequential run.
type (
	// Transducer is an output-bearing machine: a DFA plus λ.
	Transducer = fsm.Transducer
	// Output is one output-alphabet symbol; OutputNone marks gaps.
	Output = fsm.Output
	// Kind classifies a machine: acceptor, moore, or mealy.
	Kind = fsm.Kind
	// Span is a maximal run of equal non-OutputNone outputs:
	// input[Start:End] all emitted Out. Token and match spans take this
	// shape.
	Span = core.Span
)

// Machine kinds and the gap output symbol.
const (
	KindAcceptor = fsm.KindAcceptor
	KindMoore    = fsm.KindMoore
	KindMealy    = fsm.KindMealy
	OutputNone   = fsm.OutputNone
)

// NewMoore attaches a per-state output table to d (λ: Q → Γ with
// numOutputs symbols); fill it with SetMooreOutput.
func NewMoore(d *DFA, numOutputs int) (*Transducer, error) { return fsm.NewMoore(d, numOutputs) }

// NewMealy attaches a per-(state, symbol) output table to d
// (λ: Q × Σ → Γ); fill it with SetMealyOutput.
func NewMealy(d *DFA, numOutputs int) (*Transducer, error) { return fsm.NewMealy(d, numOutputs) }

// CompileTransducer compiles an output-bearing machine into a Plan
// whose fingerprint covers λ; runners built from it serve Transduce as
// well as the plain accept/final surface, and the plan round-trips
// through MarshalBinary/UnmarshalPlan like any other.
func CompileTransducer(t *Transducer, opts ...Option) (*Plan, error) {
	return core.CompileTransducer(t, opts...)
}

// Transduce runs input through a transducer plan's runner from start
// and returns the span list a sequential replay would produce, plus
// the final state. The runner must come from CompileTransducer (or a
// decoded transducer plan); acceptor runners return an error.
func Transduce(r *Runner, input []byte, start State) ([]Span, State, error) {
	return r.TransduceSpans(input, start)
}

// Regex front end (internal/regex).

// CompileOptions configures Compile; the zero value gives Snort-style
// "input contains a match" semantics over the full byte alphabet.
type CompileOptions = regex.Options

// Compile translates a regular expression into a DFA ready for
// NewRunner or Engine.Register.
func Compile(pattern string, opts CompileOptions) (*DFA, error) {
	return regex.Compile(pattern, opts)
}

// MustCompile is Compile but panics on error, for package-level
// machine variables.
func MustCompile(pattern string, opts CompileOptions) *DFA {
	return regex.MustCompile(pattern, opts)
}

// Single-machine execution (internal/core).
type (
	// Runner executes one DFA with a chosen data-parallel strategy. It
	// is safe for concurrent use and recycles scratch vectors across
	// runs.
	Runner = core.Runner
	// Stream is an io.Writer that folds written bytes through a Runner
	// incrementally; see Runner.NewStream.
	Stream = core.Stream
	// Option configures a Runner at construction.
	Option = core.Option
	// Strategy selects the execution algorithm; see the constants.
	Strategy = core.Strategy
)

// Execution strategies, in increasing order of paper machinery:
// Sequential is the scalar baseline; Base and BaseILP are the
// enumerative gather loops (§3); Convergence adds the Figure 7
// active-set narrowing; RangeCoalesced and RangeConvergence add the
// Figure 10/11 per-symbol name tables.
//
// Auto is the default and the recommended choice: at compile time it
// picks a concrete strategy from the machine's static Stats. Auto is a
// request, not a strategy: it always resolves to a concrete strategy
// before execution and never appears in a compiled Plan or a Result.
const (
	Auto             = core.Auto
	Sequential       = core.Sequential
	Base             = core.Base
	BaseILP          = core.BaseILP
	Convergence      = core.Convergence
	RangeCoalesced   = core.RangeCoalesced
	RangeConvergence = core.RangeConvergence
)

// NewRunner builds a Runner for d (compile + execute in one call).
func NewRunner(d *DFA, opts ...Option) (*Runner, error) { return core.New(d, opts...) }

// Compile/execute split (internal/core + internal/plan). A Plan is
// the immutable compiled artifact of one (machine, strategy) pair —
// strategy tables, shuffle constants, the auto-selection decision —
// separable from the mutable Runner that executes it. Compile once,
// run with any number of Runners, persist with MarshalBinary, reload
// with UnmarshalPlan.
type Plan = core.Plan

// CompilePlan compiles d into an immutable execution plan; runtime
// options are ignored, only WithStrategy matters here.
func CompilePlan(d *DFA, opts ...Option) (*Plan, error) { return core.CompilePlan(d, opts...) }

// NewRunnerFromPlan builds a Runner over an existing plan with zero
// table construction. A WithStrategy option, if present, must match
// the plan's resolved strategy.
func NewRunnerFromPlan(p *Plan, opts ...Option) (*Runner, error) { return core.NewFromPlan(p, opts...) }

// UnmarshalPlan decodes a plan serialized with Plan.MarshalBinary,
// revalidating the embedded machine, rebuilding every table from it,
// and refusing a plan whose stored tables differ.
func UnmarshalPlan(data []byte) (*Plan, error) { return core.UnmarshalPlan(data) }

// WithStrategy pins the execution strategy instead of Auto selection.
func WithStrategy(s Strategy) Option { return core.WithStrategy(s) }

// WithProcs sets the multicore width for the Figure 5 phase split
// (0 = NumCPU, 1 = single-core only).
func WithProcs(p int) Option { return core.WithProcs(p) }

// WithConvCheckEvery sets the convergence-check cadence in symbols.
func WithConvCheckEvery(k int) Option { return core.WithConvCheckEvery(k) }

// WithMinChunk sets the smallest per-core chunk worth parallelizing.
func WithMinChunk(n int) Option { return core.WithMinChunk(n) }

// WithTelemetry attaches a metrics sink to the Runner.
func WithTelemetry(m *Metrics) Option { return core.WithTelemetry(m) }

// ParseStrategy resolves a strategy by name, case-insensitively.
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Strategies lists the valid strategy names in order.
func Strategies() []string { return core.Strategies() }

// Batch execution (internal/engine).
type (
	// Engine runs batches of (machine, input) jobs on a bounded worker
	// pool with pooled runners, size-based single-vs-multicore dispatch,
	// and per-job context cancellation.
	Engine = engine.Engine
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// Machine is a DFA registered with an Engine.
	Machine = engine.Machine
	// Job names a machine and carries one input.
	Job = engine.Job
	// Result reports one job's outcome.
	Result = engine.Result
	// TransduceResult reports one Engine.Transduce call's outcome: the
	// dispatch record plus the emitted spans.
	TransduceResult = engine.TransduceResult
	// BatchStats aggregates one RunBatch call.
	BatchStats = engine.BatchStats
)

// Engine failure modes, returned inside Result.Err or from Submit.
var (
	ErrClosed         = engine.ErrClosed
	ErrUnknownMachine = engine.ErrUnknownMachine
	ErrBadStart       = engine.ErrBadStart
	// ErrQueueFull is returned by TrySubmit when the engine sheds load.
	ErrQueueFull = engine.ErrQueueFull
	// ErrNotTransducer is returned by Engine.Transduce on machines
	// registered without an output table.
	ErrNotTransducer = engine.ErrNotTransducer
)

// Engine dispatch lanes, reported in Result.Lane: "single" (batch-
// level parallelism) below the large-input threshold and "multicore"
// (the paper's Figure 5 phase split) at or above it.
const (
	LaneSingle    = engine.LaneSingle
	LaneMulticore = engine.LaneMulticore
)

// NewEngine builds and starts a batch engine; Close it when done.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithWorkers sets the engine's worker-pool size (default NumCPU).
func WithWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// WithQueueDepth bounds the job queue; Submit blocks (backpressure)
// when it is full.
func WithQueueDepth(n int) EngineOption { return engine.WithQueueDepth(n) }

// WithLargeInput sets the byte threshold at which jobs leave the
// single-core batch lane for the multicore phase split.
func WithLargeInput(n int) EngineOption { return engine.WithLargeInput(n) }

// WithEngineProcs sets the multicore width of the engine's large-input
// lane (0 = NumCPU).
func WithEngineProcs(p int) EngineOption { return engine.WithProcs(p) }

// WithEngineTelemetry attaches a metrics sink to the engine and every
// runner it builds.
func WithEngineTelemetry(m *Metrics) EngineOption { return engine.WithTelemetry(m) }

// Per-machine performance profiles (internal/perfprofile). Attaching
// a perf-profile store to an engine folds every job's lane, bytes,
// time and core accounting into a per-machine profile. The profile
// observes; it does not steer: the engine dispatches by input size
// with or without a store.
type (
	// PerfProfileStore aggregates per-machine observed performance and
	// optionally persists it in a directory, keyed by plan fingerprint.
	PerfProfileStore = perfprofile.Store
	// PerfProfile is one machine's accumulated performance history:
	// per-lane throughput, latency quantiles, shuffles per symbol and
	// convergence rate.
	PerfProfile = perfprofile.Profile
)

// NewPerfProfileStore builds a profile store; dir may be empty for a
// purely in-memory store, or name a directory where profiles persist
// across restarts.
func NewPerfProfileStore(dir string) *PerfProfileStore { return perfprofile.NewStore(dir) }

// WithEnginePerfProfiles attaches a perf-profile store to the engine:
// every registered machine's jobs are folded into its profile.
func WithEnginePerfProfiles(s *PerfProfileStore) EngineOption { return engine.WithPerfProfiles(s) }

// WithEngineTraceSink makes the engine create a per-job Trace for every
// job whose context does not already carry one, delivering completed
// traces to s. Jobs traced upstream (WithTrace) keep their own trace
// and are not delivered — the creator of a trace owns its recording.
func WithEngineTraceSink(s TraceSink) EngineOption { return engine.WithTraceSink(s) }

// Request-scoped tracing (internal/trace). Where Metrics aggregates
// across all runs, a Trace explains one: it carries a W3C-compatible
// trace ID through a job's lifecycle and collects timestamped spans —
// queue wait, dispatch-lane decision, per-chunk convergence profiles.
// Tracing is strictly opt-in and zero-cost when absent: contexts
// without a trace run the uninstrumented fast paths.
type (
	// Trace is one request-scoped execution trace; it marshals to a
	// nested span-tree JSON document.
	Trace = trace.Trace
	// TraceSpan is one timestamped operation within a Trace; a nil
	// *TraceSpan is inert, so instrumentation runs unconditionally.
	TraceSpan = trace.Span
	// TraceSink consumes completed traces (the flight recorder, or any
	// custom exporter).
	TraceSink = trace.Sink
	// TraceRecorder is the built-in flight recorder: a fixed-capacity
	// lock-free ring of the most recently completed traces.
	TraceRecorder = trace.Recorder
)

// NewTrace starts a trace with a fresh random W3C trace ID.
func NewTrace() *Trace { return trace.New() }

// NewTraceFromParent starts a trace continuing an inbound W3C
// traceparent header; malformed headers fall back to a fresh ID.
func NewTraceFromParent(traceparent string) *Trace { return trace.FromParent(traceparent) }

// NewTraceRecorder builds a flight recorder retaining up to capacity
// completed traces (capacity <= 0 selects the default of 256).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// WithTrace returns ctx carrying t; Runner and Engine calls made with
// the returned context emit their span decomposition into t.
func WithTrace(ctx context.Context, t *Trace) context.Context { return trace.NewContext(ctx, t) }

// TraceFromContext returns the trace riding ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace { return trace.FromContext(ctx) }

// Telemetry (internal/telemetry).
type (
	// Metrics is the zero-value-ready telemetry sink; a nil *Metrics
	// disables collection at negligible cost.
	Metrics = telemetry.Metrics
	// Snapshot is a consistent point-in-time read of a Metrics.
	Snapshot = telemetry.Snapshot
)
