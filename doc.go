// Package dpfsm is a Go reproduction of "Data-Parallel Finite-State
// Machines" (Mytkowicz, Musuvathi, Schulte — ASPLOS 2014), exposed as
// a stable v1 library surface.
//
// The paper's idea: run a DFA from every state at once. The vector of
// "where does each state end up" is updated per input symbol with one
// gather, which breaks the loop-carried dependence that serializes
// ordinary FSM execution and unlocks both instruction-level
// parallelism and an embarrassingly parallel multicore split. In
// practice the state vector converges to a handful of live states
// within a few hundred symbols, so the enumerative overhead is small.
//
// # Quickstart
//
//	d, _ := dpfsm.Compile(`UNION\s+SELECT`, dpfsm.CompileOptions{})
//	r, _ := dpfsm.NewRunner(d)
//	matched := r.Accepts(input)
//
// Compile builds a DFA from a regular expression (NewDFA constructs
// one directly); NewRunner wraps it with an execution strategy —
// Auto by default, or pin one of Sequential, Base, BaseILP,
// Convergence, RangeCoalesced, RangeConvergence via WithStrategy.
// Runner also offers FirstAccepting for scan-until-match, NewStream
// for incremental io.Writer-style feeding, and FinalCtx/AcceptsCtx
// for deadline- and cancellation-aware runs.
//
// # Batch execution
//
// Engine (NewEngine) serves many (machine, input) jobs from a bounded
// worker pool with pooled per-worker scratch, backpressure, per-job
// timeouts, and one static dispatch policy: small inputs run
// single-core — the batch itself is the parallelism — while inputs
// past WithLargeInput take the paper's Figure 5 multicore phase
// split. Both lanes — single-core and multicore — and both job kinds
// (Run, Transduce) go through one dispatch and one Figure 5 schedule,
// so they share cancellation, tracing, and exactness.
// Register machines once, then RunBatch (ordered results) or Submit
// (streaming completion order).
//
//	e := dpfsm.NewEngine()
//	defer e.Close()
//	e.Register("sqli", d)
//	results, stats := e.RunBatch(ctx, jobs)
//
// # Observability
//
// A Metrics sink (WithTelemetry, WithEngineTelemetry) counts runs,
// symbols, gather/shuffle kernel invocations, convergence wins,
// multicore phase times, and engine dispatch decisions; it exports
// expvar and Prometheus text formats. cmd/fsmserve serves machines
// over HTTP (/v1/run, /v1/batch) with live /v1/metrics, and
// cmd/fsmbench regenerates the paper's evaluation figures (see
// DESIGN.md and EXPERIMENTS.md).
//
// The implementation lives under internal/ — the enumerative runner
// in internal/core, gather/factor primitives in internal/gather, the
// machine substrate in internal/fsm, the batch engine in
// internal/engine, and the three case studies in internal/regex,
// internal/huffman, internal/htmltok — and this package re-exports
// the supported subset.
package dpfsm
