// Package core implements the data-parallel FSM algorithms of
// Mytkowicz, Musuvathi and Schulte, "Data-Parallel Finite-State
// Machines" (ASPLOS 2014).
//
// The sequential FSM loop q = T[a][q] carries a loop-borne dependence
// through q. The paper breaks it *enumeratively*: instead of one state,
// track the vector S of states reached from every possible start state;
// each input symbol updates the whole vector with one gather
// S = S ⊗ T[a]. Because gather is associative, the computation can be
// split across cores (parallel prefix, Figure 5) and unrolled for
// instruction-level parallelism (Figure 4). Two optimizations make the
// n-fold enumerative overhead affordable:
//
//   - Convergence (§5.2, Figure 7): transition functions are
//     many-to-one, so the distinct ("active") states in S collapse
//     quickly — usually to ≤16, at which point one emulated 16-lane
//     shuffle advances all of them at once. Periodic Factor calls
//     compress S and accumulate the removed redundancy in a lookup
//     vector Acc with the invariant S_base = Acc ⊗ S.
//
//   - Range coalescing (§5.3, Figures 10–11): the range of each
//     per-symbol transition function is small, so states are renamed
//     per symbol ("names of a") and the machine runs over compact
//     per-symbol tables T_a[b] = U_a ⊗ L_b whose width is the maximum
//     range, independent of the total state count.
//
// A Runner precomputes whatever its strategy needs and exposes
// Final/Accepts/Run/CompositionVector. With WithProcs(p > 1) the runner
// additionally splits the input into chunks and runs the three-phase
// multicore algorithm of Figure 5.
package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/telemetry"
)

// Strategy selects the single-core execution algorithm.
type Strategy int

const (
	// Auto picks a strategy from the machine's static structure, the
	// way the paper suggests an FSM compiler would (§6.1): range
	// coalescing when the maximum range is ≤ gather.Width, otherwise
	// convergence.
	Auto Strategy = iota
	// Sequential is the optimized baseline of Figure 1(c) with loop
	// unrolling. It ignores WithProcs.
	Sequential
	// Base is the unoptimized enumerative algorithm of Figure 3: the
	// full n-wide state vector is gathered on every symbol.
	Base
	// BaseILP is Base with the 3-way associative unrolling of Figure 4.
	BaseILP
	// Convergence is Figure 7: the active-state vector is periodically
	// factored so gathers shrink to the number of active states.
	Convergence
	// RangeCoalesced is Figure 11: per-symbol renamed tables whose
	// width is the machine's maximum transition range.
	RangeCoalesced
	// RangeConvergence layers Figure 7's convergence optimization over
	// the range-coalesced tables: the name vector is periodically
	// factored, so machines whose first-symbol range is wide still
	// collapse into the register regime. An extension beyond the
	// paper, benchmarked as an ablation.
	RangeConvergence
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Sequential:
		return "sequential"
	case Base:
		return "base"
	case BaseILP:
		return "base-ilp"
	case Convergence:
		return "convergence"
	case RangeCoalesced:
		return "range"
	case RangeConvergence:
		return "range+conv"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies enumerates the valid strategy names in declaration
// order, for CLI/HTTP surfaces that list the accepted values in flag
// usage and error messages.
func Strategies() []string {
	names := make([]string, 0, int(RangeConvergence)+1)
	for s := Auto; s <= RangeConvergence; s++ {
		names = append(names, s.String())
	}
	return names
}

// ParseStrategy is the inverse of Strategy.String, for CLI/HTTP
// surfaces that select a strategy by name. Matching is
// case-insensitive.
func ParseStrategy(name string) (Strategy, error) {
	for s := Auto; s <= RangeConvergence; s++ {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return Auto, fmt.Errorf("core: unknown strategy %q (valid: %s)",
		name, strings.Join(Strategies(), " "))
}

// MarshalText implements encoding.TextMarshaler, so JSON/TOML surfaces
// carry strategy names ("range", "convergence", …) instead of enum
// integers without hand-rolled conversion.
func (s Strategy) MarshalText() ([]byte, error) {
	if s < Auto || s > RangeConvergence {
		return nil, fmt.Errorf("core: cannot marshal invalid strategy %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseStrategy.
// Empty text decodes to Auto, so omitted JSON fields mean "pick for
// me" rather than an error.
func (s *Strategy) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*s = Auto
		return nil
	}
	v, err := ParseStrategy(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Option configures a Runner.
type Option func(*config)

type config struct {
	strategy  Strategy
	procs     int
	convEvery int
	minChunk  int
	simd      bool
	tel       *telemetry.Metrics
	aux       *telemetry.Metrics
}

// WithStrategy forces a single-core strategy instead of Auto selection.
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithProcs sets the number of goroutines the Figure 5 multicore
// algorithm distributes chunks over. p ≤ 1 disables multicore. p == 0
// means runtime.NumCPU().
func WithProcs(p int) Option {
	return func(c *config) {
		if p == 0 {
			p = runtime.NumCPU()
		}
		c.procs = p
	}
}

// WithConvCheckEvery sets the fallback cadence (in input symbols) of
// convergence checks for the Convergence strategy. Checks also fire
// eagerly whenever a symbol's static range promises a drop of at least
// gather.Width active states (§5.2's two heuristics). k ≤ 0 keeps the
// default.
func WithConvCheckEvery(k int) Option {
	return func(c *config) {
		if k > 0 {
			c.convEvery = k
		}
	}
}

// WithMinChunk sets the minimum per-goroutine chunk size below which
// the multicore path falls back to fewer goroutines (the paper's
// scaling stops when "the size of the input chunks per core is not
// sufficient", §6.1).
func WithMinChunk(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.minChunk = n
		}
	}
}

// WithEmulatedSIMD makes the byte-state kernels execute the blocked
// shuffle/blend dataflow of §4.2 (gather.SIMDInto) instead of scalar
// gather. On real SSE hardware the shuffle path is the fast one (the
// paper's Figure 6 peak of 4.4×); a pure-Go emulation pays ~Width
// scalar operations per 16-lane shuffle, so this is an ablation/
// fidelity knob, not a speedup — see DESIGN.md's substitution notes.
// In this port the scalar gather over the same byte-encoded compact
// tables plays the vector role: it preserves the locality and
// width-scaling structure the optimizations are about.
func WithEmulatedSIMD(on bool) Option {
	return func(c *config) { c.simd = on }
}

// WithTelemetry attaches a metrics sink. All Runners sharing m
// accumulate into the same counters; m may be read (Snapshot, expvar,
// Prometheus) while runs are in flight. A nil m — the default —
// disables collection entirely: the hot loops accumulate into stack
// locals and the only residual cost is one pointer check per run, so
// the disabled path is indistinguishable from an uninstrumented build.
func WithTelemetry(m *telemetry.Metrics) Option {
	return func(c *config) { c.tel = m }
}

// WithAuxTelemetry attaches a second, auxiliary metrics sink that
// receives only the run-level accounting (runs, symbols, gathers,
// shuffles, convergence checks/wins, active-vector widths) — not the
// phase timers or stream/engine counters, which stay exclusive to the
// primary sink. The engine uses this to give every registered machine
// its own counter set (the per-machine performance profiles of
// internal/perfprofile) while the shared process-wide sink keeps
// aggregating everything. A nil m — the default — costs nothing: the
// flush points already branch on the primary sink.
func WithAuxTelemetry(m *telemetry.Metrics) Option {
	return func(c *config) { c.aux = m }
}

const (
	defaultConvEvery = 64
	defaultMinChunk  = 1 << 12
)

func defaultConfig() config {
	return config{
		strategy:  Auto,
		procs:     1,
		convEvery: defaultConvEvery,
		minChunk:  defaultMinChunk,
	}
}

// Runner is the run-time half of the compile/execute split: a thin
// execution context — multicore width, convergence cadence, kernel
// selection, telemetry sink, scratch pool — over a shared immutable
// *Plan holding every machine-derived table. Any number of Runners
// may share one Plan (the engine's pooled single-core and multicore
// runners do exactly that); a Runner is itself immutable after
// construction and safe for concurrent use.
type Runner struct {
	*Plan

	procs     int
	convEvery int
	minChunk  int

	// tel is the attached metrics sink; nil disables collection.
	// stratRuns caches tel.StrategyRuns for this runner's strategy so
	// the per-run path never takes the label-registry mutex.
	tel       *telemetry.Metrics
	stratRuns *telemetry.Counter
	// aux is the optional per-machine sink (WithAuxTelemetry): it gets
	// the run-level counters only, flushed from the same sites as tel.
	aux          *telemetry.Metrics
	auxStratRuns *telemetry.Counter

	// simd selects the emulated shuffle/blend dataflow of §4.2 for
	// byte-lane gathers (WithEmulatedSIMD); the default is the scalar
	// kernel, which is the fast path in pure Go.
	simd bool
	// gatherB is the byte-lane gather kernel matching simd.
	gatherB func(dst, s, t []byte)

	// scratchPool recycles the per-run working vectors (scratch.go) so
	// batch workloads — many small runs over one shared Runner — do
	// not allocate enumerative state per job.
	scratchPool sync.Pool
}

// New compiles d and builds a Runner over the fresh plan — the
// one-shot path. Callers constructing many runners for one machine
// (or reloading a serialized plan) should CompilePlan/UnmarshalPlan
// once and use NewFromPlan.
func New(d *fsm.DFA, opts ...Option) (*Runner, error) {
	p, err := CompilePlan(d, opts...)
	if err != nil {
		return nil, err
	}
	return NewFromPlan(p, opts...)
}

// NewFromPlan builds a Runner executing p. Run-time options (procs,
// convergence cadence, SIMD emulation, telemetry) apply as in New;
// WithStrategy, if given, must match the plan's resolved strategy —
// a plan *is* a strategy's compiled tables, so running it any other
// way is a compile-time request, not a run-time one.
func NewFromPlan(p *Plan, opts ...Option) (*Runner, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.strategy != Auto && cfg.strategy != p.strategy {
		return nil, fmt.Errorf("core: plan compiled for strategy %s cannot run as %s (recompile with CompilePlan)",
			p.strategy, cfg.strategy)
	}

	r := &Runner{
		Plan:      p,
		procs:     cfg.procs,
		convEvery: cfg.convEvery,
		minChunk:  cfg.minChunk,
	}
	r.simd = cfg.simd
	if cfg.simd {
		r.gatherB = gather.SIMDInto
	} else {
		r.gatherB = gather.Into[byte]
	}
	if r.procs < 1 {
		r.procs = 1
	}
	if r.minChunk < 1 {
		// Guard the splitChunks divisions: a zero or negative minimum
		// chunk would divide by zero (or hand workers empty chunks).
		r.minChunk = 1
	}
	if cfg.tel != nil {
		r.tel = cfg.tel
		r.tel.StrategySelected.Get(r.strategy.String()).Inc()
		r.stratRuns = r.tel.StrategyRuns.Get(r.strategy.String())
	}
	if cfg.aux != nil {
		r.aux = cfg.aux
		r.aux.StrategySelected.Get(r.strategy.String()).Inc()
		r.auxStratRuns = r.aux.StrategyRuns.Get(r.strategy.String())
	}
	return r, nil
}

// Plan returns the shared compiled artifact this runner executes.
func (r *Runner) PlanRef() *Plan { return r.Plan }

// Telemetry returns the attached metrics sink (nil when disabled).
func (r *Runner) Telemetry() *telemetry.Metrics { return r.tel }

// noteEntry records one entry-point execution over n input symbols.
func (r *Runner) noteEntry(n int) {
	if t := r.tel; t != nil {
		t.Runs.Inc()
		t.Symbols.Add(int64(n))
		r.stratRuns.Inc()
	}
	if t := r.aux; t != nil {
		t.Runs.Inc()
		t.Symbols.Add(int64(n))
		r.auxStratRuns.Inc()
	}
}

// noteSingle flushes the accounting of one single-core enumerative
// pass (a whole input, or one multicore chunk): gather kernel
// invocations, emulated ⊗16,16 shuffles under the §4.2 blocked cost
// model, convergence checks and wins, and the active-vector width at
// entry (highWater) and exit (final). rs, when non-nil, receives the
// same numbers for the run's trace (the request-scoped view of what
// the telemetry sink sees in aggregate).
func (r *Runner) noteSingle(rs *runStats, gathers, shuffles, factorCalls, factorWins int64, highWater, final int) {
	if rs != nil {
		rs.note(gathers, shuffles, factorCalls, factorWins, highWater, final)
	}
	for _, t := range [2]*telemetry.Metrics{r.tel, r.aux} {
		if t == nil {
			continue
		}
		t.Gathers.Add(gathers)
		t.Shuffles.Add(shuffles)
		t.FactorCalls.Add(factorCalls)
		t.FactorWins.Add(factorWins)
		t.ActiveHighWater.Observe(int64(highWater))
		t.ActiveFinal.Observe(int64(final))
	}
}

// Procs reports the configured multicore width.
func (r *Runner) Procs() int { return r.procs }

// Final returns the state reached from start after consuming input.
func (r *Runner) Final(input []byte, start fsm.State) fsm.State {
	st, _, _ := r.Drive(context.Background(), input, start, nil, nil)
	return st
}

// Accepts reports whether the machine accepts input from its start
// state.
func (r *Runner) Accepts(input []byte) bool {
	return r.d.Accepting(r.Final(input, r.d.Start()))
}

// Run consumes input from start, invoking phi for every symbol with the
// position, symbol, and reached state, and returns the final state.
// When the Runner is multicore, chunks invoke phi concurrently and out
// of order across chunks (the paper's Mealy assumption, §2.1); phi must
// be safe for concurrent use in that case.
func (r *Runner) Run(input []byte, start fsm.State, phi fsm.Phi) fsm.State {
	if phi == nil {
		return r.Final(input, start)
	}
	return r.RunChunked(input, start, func(off int, chunk []byte, st fsm.State) fsm.State {
		return r.runSingle(chunk, off, st, phi)
	})
}

// CompositionVector returns the composed transition function of the
// whole input: element q is the state reached from start state q. This
// is the quantity phase 1 of the multicore algorithm computes per
// chunk.
func (r *Runner) CompositionVector(input []byte) []fsm.State {
	r.noteEntry(len(input))
	if r.useMulticore(len(input)) {
		return r.compVecMulticore(input)
	}
	return r.compVecSingle(input, nil)
}

func (r *Runner) useMulticore(inputLen int) bool {
	return r.procs > 1 && inputLen >= 2*r.minChunk
}

// finalSingle computes the final state for one start without the
// multicore machinery. rs, when non-nil, collects this pass's
// accounting for the active trace.
func (r *Runner) finalSingle(input []byte, start fsm.State, rs *runStats) fsm.State {
	switch r.strategy {
	case RangeCoalesced:
		return r.rcFinal(input, start, rs)
	case RangeConvergence:
		return r.rcConvFinal(input, start, rs)
	case Convergence:
		if r.colsB != nil {
			return r.convFinalBytes(input, start, rs)
		}
		return r.convFinal16(input, start, rs)
	case BaseILP:
		vec := r.compVecSingle(input, rs)
		return vec[start]
	default: // Base
		vec := r.compVecSingle(input, rs)
		return vec[start]
	}
}

func (r *Runner) compVecSingle(input []byte, rs *runStats) []fsm.State {
	switch r.strategy {
	case Sequential:
		// Sequential has no enumerative vector; derive it by running
		// from every state (used only for oracle comparisons).
		vec := make([]fsm.State, r.n)
		for q := range vec {
			vec[q] = r.d.Run(input, fsm.State(q))
		}
		return vec
	case RangeCoalesced:
		return r.rcCompVec(input, rs)
	case RangeConvergence:
		return r.rcConvCompVec(input, rs)
	case Convergence:
		if r.colsB != nil {
			return r.convCompVecBytes(input, rs)
		}
		return r.convCompVec16(input, rs)
	case BaseILP:
		if r.colsB != nil {
			return bytesToStates(r.baseILPVecBytes(input, rs))
		}
		return r.baseILPVec16(input, rs)
	default: // Base
		if r.colsB != nil {
			return bytesToStates(r.baseVecBytes(input, rs))
		}
		return r.baseVec16(input, rs)
	}
}

// runSingle runs with φ on one goroutine; off is the global position of
// input[0].
func (r *Runner) runSingle(input []byte, off int, start fsm.State, phi fsm.Phi) fsm.State {
	switch r.strategy {
	case Sequential:
		q := start
		for i, a := range input {
			q = r.d.Next(q, a)
			phi(off+i, a, q)
		}
		return q
	case RangeCoalesced, RangeConvergence:
		// φ needs a per-step state for one start entry; the plain
		// coalesced loop provides it (convergence on the name vector
		// does not change the observable outputs).
		return r.rcRun(input, off, start, phi)
	case Convergence:
		if r.colsB != nil {
			return r.convRunBytes(input, off, start, phi)
		}
		return r.convRun16(input, off, start, phi)
	default: // Base, BaseILP
		if r.colsB != nil {
			return r.baseRunBytes(input, off, start, phi)
		}
		return r.baseRun16(input, off, start, phi)
	}
}

func bytesToStates(b []byte) []fsm.State {
	out := make([]fsm.State, len(b))
	for i, v := range b {
		out[i] = fsm.State(v)
	}
	return out
}
