// Package engine is the batch execution layer over the data-parallel
// runners of internal/core: it accepts many (machine, input) jobs,
// multiplexes them over a bounded worker pool, and decides per job
// which of the paper's two parallelism axes to spend cores on.
//
// The paper parallelizes *within* one input (the Figure 5 multicore
// decomposition); a service handling heavy traffic has the complementary
// opportunity of parallelizing *across* inputs. The two compose
// multiplicatively, but naively running every job multicore
// oversubscribes the machine — P workers each fanning out P goroutines —
// while running every job single-core leaves a lone 100 MB request
// crawling on one core. The engine's dispatch policy resolves this:
//
//   - small inputs (< LargeInput) run the single-core strategy on one
//     pool worker — batch-level parallelism, zero fan-out overhead;
//   - large inputs run the Figure 5 phase1/phase2 split on a multicore
//     runner — input-level parallelism — gated so that concurrent
//     multicore jobs cannot oversubscribe the pool.
//
// Jobs carry per-job deadlines, batches carry a context, and both are
// honored cooperatively by the core runtime (core's Figure 5 schedule
// polls between 64 KiB input blocks, in every phase and on every
// lane). Backpressure is a bounded queue: Submit blocks when the pool
// is saturated, so an upstream accept loop slows down instead of
// buffering unboundedly.
// Scratch state vectors and convergence buffers are recycled across
// jobs by the Runner's sync.Pool (core's scratch layer), so steady-
// state batch execution does not allocate per job.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"dpfsm/internal/adaptive"
	"dpfsm/internal/cluster"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/speculative"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/trace"
)

// Span names and attribute keys the engine emits on traced jobs.
// Exported so explain builders (cmd/fsmserve) and tests address them
// symbolically.
const (
	SpanQueue     = "engine.queue"     // Submit → worker dequeue (queue wait)
	SpanExec      = "engine.exec"      // one job's execution
	SpanGate      = "engine.gate"      // multicore fan-out slot acquisition
	SpanTransduce = "engine.transduce" // one transduce job's execution

	AttrMachine    = "machine"
	AttrBytes      = "bytes"
	AttrLane       = "lane"        // "single" | "multicore" | "speculative"
	AttrLaneReason = "lane_reason" // why the dispatch policy chose it
	AttrStrategy   = "strategy"    // the strategy the job ran under
	// AttrMispredict is set true on the exec span when the speculative
	// lane's start-state guess was wrong for at least one chunk — the
	// tail-sampling keep signal for mispredicted requests.
	AttrMispredict = "mispredict"
)

// Lane names, re-exported from perfprofile so engine callers need not
// import both packages to compare Result.Lane.
const (
	LaneSingle      = perfprofile.LaneSingle
	LaneMulticore   = perfprofile.LaneMulticore
	LaneSpeculative = perfprofile.LaneSpeculative
	LaneCluster     = perfprofile.LaneCluster
)

// Errors returned by Submit/Run. Per-job failures are reported in
// Result.Err, never as panics.
var (
	ErrClosed         = errors.New("engine: closed")
	ErrUnknownMachine = errors.New("engine: unknown machine")
	ErrBadStart       = errors.New("engine: start state out of range")
	// ErrQueueFull is returned by TrySubmit when the bounded queue has
	// no room — the load-shedding signal for callers that must not
	// block on backpressure.
	ErrQueueFull = errors.New("engine: queue full")
)

// Option configures an Engine.
type Option func(*config)

type config struct {
	workers    int
	queueDepth int
	largeInput int
	procs      int
	tel        *telemetry.Metrics
	sink       trace.Sink
	planCache  *PlanCache
	profiles   *perfprofile.Store
	cluster    *cluster.Coordinator
	clusterMin int
}

// WithWorkers sets the worker-pool size. n <= 0 means runtime.NumCPU().
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithQueueDepth bounds the job queue; Submit blocks (backpressure)
// once this many jobs are waiting. n <= 0 keeps the default of four
// jobs per worker.
func WithQueueDepth(n int) Option {
	return func(c *config) { c.queueDepth = n }
}

// WithLargeInput sets the dispatch-policy threshold in bytes: inputs
// of at least n bytes run on the multicore runner (input-level
// parallelism), smaller ones on a single pool worker (batch-level
// parallelism). n <= 0 keeps the default of 1 MiB.
func WithLargeInput(n int) Option {
	return func(c *config) { c.largeInput = n }
}

// WithProcs sets the multicore width used for large inputs. p == 1
// disables the multicore lane entirely; p <= 0 means runtime.NumCPU().
func WithProcs(p int) Option {
	return func(c *config) { c.procs = p }
}

// WithTelemetry attaches a metrics sink shared by the engine and every
// registered runner. nil (the default) disables collection.
func WithTelemetry(m *telemetry.Metrics) Option {
	return func(c *config) { c.tel = m }
}

// WithTraceSink makes the engine trace every job that does not already
// carry a trace on its context: each such job gets its own trace,
// receives the full span decomposition (queue wait, lane decision,
// core phases), and is delivered to s on completion. Jobs whose
// context carries a trace (e.g. an HTTP request traced upstream) are
// instrumented into that trace instead and NOT delivered to s — the
// layer that created a trace owns its recording. nil (the default)
// disables engine-owned tracing; such jobs run the zero-cost untraced
// path.
func WithTraceSink(s trace.Sink) Option {
	return func(c *config) { c.sink = s }
}

// WithPlanCache shares an externally constructed plan cache with the
// engine, so several engines (or an engine and a plan-directory
// loader) reuse one compiled-plan pool. nil (the default) gives the
// engine a private cache of DefaultPlanCacheSize entries.
func WithPlanCache(pc *PlanCache) Option {
	return func(c *config) { c.planCache = pc }
}

// WithPerfProfiles attaches a per-machine performance-profile store:
// every registration gets a MachineRecorder (seeded from the store's
// persisted baseline for the plan's fingerprint, if any), every job
// execution is observed into it (lane, bytes, wall time, queue wait),
// and the machine's runners flush their run-level counters into the
// recorder's private telemetry sink. nil (the default) disables
// per-machine profiling; the shared WithTelemetry sink is unaffected
// either way.
func WithPerfProfiles(s *perfprofile.Store) Option {
	return func(c *config) { c.profiles = s }
}

// WithCluster attaches a distributed coordinator: jobs of at least
// the cluster threshold (WithClusterMinBytes) take the cluster lane,
// fanning chunks out over the peer set instead of local cores. nil
// (the default) disables the lane. The coordinator can also be
// attached or swapped after construction with SetCluster.
func WithCluster(co *cluster.Coordinator) Option {
	return func(c *config) { c.cluster = co }
}

// WithClusterMinBytes sets the cluster lane's input threshold. Only
// jobs of at least n bytes are worth a network round trip; smaller
// large inputs stay on the local multicore lane. n <= 0 keeps the
// default of 4x the large-input threshold.
func WithClusterMinBytes(n int) Option {
	return func(c *config) { c.clusterMin = n }
}

// Machine is one compiled DFA registered with the engine: a shared
// compiled plan plus the runners the dispatch policy chooses between.
// The single and multicore runners execute the same *core.Plan — the
// tables are derived once (or fetched from the plan cache), never per
// lane; the speculative lane runs the raw DFA (its per-chunk work is
// the plain sequential walk, §7).
type Machine struct {
	name   string
	eng    *Engine
	dfa    *fsm.DFA
	plan   *core.Plan
	single *core.Runner // batch lane: WithProcs(1)
	multi  *core.Runner // input lane: WithProcs(procs); nil when procs == 1
	// spec is the §7 speculative lane: guess chunk start states from
	// the machine's hot-state profile, verify, re-run on mispredict.
	// nil when procs == 1 (like multi, it is pure fan-out).
	spec *speculative.Runner
	// planHit records whether registration found the plan in the cache.
	planHit bool
	// rec accumulates this machine's perf profile (nil when the engine
	// has no profile store); every exec observes into it.
	rec *perfprofile.MachineRecorder
	// sel is the adaptive lane selector, present only when the engine
	// has a profile store to learn from: without one the engine keeps
	// its historical static dispatch (deterministic, which the
	// conformance harness relies on).
	sel *adaptive.Selector
	// opts are the registration's core options, kept so explicit
	// per-job strategy overrides can build alternate runners lazily.
	opts []core.Option

	// altMu guards alt, the lazily compiled single-core runners for
	// per-job strategy overrides (Job.Strategy != plan strategy).
	altMu sync.Mutex
	alt   map[core.Strategy]*core.Runner
}

// Name returns the registration name.
func (m *Machine) Name() string { return m.name }

// DFA returns the underlying machine.
func (m *Machine) DFA() *fsm.DFA { return m.dfa }

// Runner returns the single-core runner (the batch lane), for callers
// that want direct access to strategy introspection or streaming.
func (m *Machine) Runner() *core.Runner { return m.single }

// Plan returns the compiled plan both lanes share.
func (m *Machine) Plan() *core.Plan { return m.plan }

// Fingerprint returns the plan's cache identity.
func (m *Machine) Fingerprint() string { return m.plan.Fingerprint() }

// PlanCached reports whether registration reused a cached plan
// instead of compiling.
func (m *Machine) PlanCached() bool { return m.planHit }

// Recorder returns the machine's perf-profile recorder (nil when the
// engine has no profile store).
func (m *Machine) Recorder() *perfprofile.MachineRecorder { return m.rec }

// Selection reports the machine's current large-input dispatch
// decision. Without a profile store the engine dispatches statically,
// and the returned selection describes that fixed policy.
func (m *Machine) Selection() adaptive.Selection {
	if m.sel != nil {
		return m.sel.Selection()
	}
	sel := adaptive.Selection{Lane: LaneMulticore, Strategy: m.plan.Strategy().String(),
		Reason: "static dispatch (no profile store): large inputs go multicore"}
	if m.multi == nil {
		sel.Lane = LaneSingle
		sel.Reason = "static dispatch: multicore lane disabled (procs=1)"
	}
	return sel
}

// Reselect forces an immediate re-evaluation of the adaptive
// selection against the machine's current profile — the hook the
// status surface and tests use instead of waiting out the EvalEvery
// cadence — and retargets the speculative guess at the profile's
// current hot state. A no-op (zero Selection) without a profile store.
func (m *Machine) Reselect() adaptive.Selection {
	if m.sel == nil {
		return adaptive.Selection{}
	}
	sel := m.sel.Refresh(m.adaptiveInputs())
	if m.spec != nil {
		if st, ok := m.rec.HotState(); ok && m.dfa.ValidState(fsm.State(st)) {
			m.spec.SetGuess(fsm.State(st))
		}
	}
	return sel
}

// adaptiveInputs assembles the selector's view of this machine:
// compile-time plan stats plus the merged perf profile.
func (m *Machine) adaptiveInputs() adaptive.Inputs {
	in := adaptive.Inputs{
		States:   m.plan.States(),
		MaxRange: m.plan.MaxRange(),
		Strategy: m.plan.Strategy().String(),
		Procs:    m.eng.procs,
	}
	if m.rec == nil {
		return in
	}
	p := m.rec.Profile()
	in.MispredictRate = p.MispredictRate
	in.SpecChunks = p.SpecChunks
	in.HasHotState = len(p.HotStates) > 0
	in.ConvergenceRate = p.ConvergenceRate
	obs := func(lane string) adaptive.LaneObs {
		ls := p.Lanes[lane]
		return adaptive.LaneObs{Jobs: ls.Jobs, BytesPerSec: ls.BytesPerSec}
	}
	in.Single = obs(perfprofile.LaneSingle)
	in.Multicore = obs(perfprofile.LaneMulticore)
	in.Speculative = obs(perfprofile.LaneSpeculative)
	return in
}

// altRunner returns (building lazily on first use) the single-core
// runner for an explicit per-job strategy override. The override's
// plan goes through the engine's plan cache, so repeated overrides of
// the same machine+strategy compile once; a transducer's override plan
// carries its output table (keyed over λ), so it serves both job kinds.
func (m *Machine) altRunner(s core.Strategy) (*core.Runner, error) {
	m.altMu.Lock()
	defer m.altMu.Unlock()
	if r, ok := m.alt[s]; ok {
		return r, nil
	}
	opts := append(m.opts, core.WithStrategy(s))
	var p *core.Plan
	var err error
	if t := m.Transducer(); t != nil {
		p, _, err = m.eng.planCache.GetOrCompileTransducer(t, opts...)
	} else {
		p, _, err = m.eng.planCache.GetOrCompile(m.dfa, opts...)
	}
	if err != nil {
		return nil, err
	}
	r, err := core.NewFromPlan(p, append(m.opts, core.WithStrategy(s),
		core.WithProcs(1), core.WithTelemetry(m.eng.tel), core.WithAuxTelemetry(m.rec.Telemetry()))...)
	if err != nil {
		return nil, err
	}
	if m.alt == nil {
		m.alt = make(map[core.Strategy]*core.Runner, 2)
	}
	m.alt[s] = r
	return r, nil
}

// Job is one unit of work: run Input through Machine.
type Job struct {
	Machine string
	Input   []byte
	// Start overrides the machine's start state when HasStart is set.
	Start    fsm.State
	HasStart bool
	// Timeout, when positive, bounds this job alone; it nests inside
	// whatever context the batch was submitted with.
	Timeout time.Duration
	// Strategy, when not Auto, pins this job to a specific strategy on
	// the single-core lane regardless of the machine's plan — the
	// explicit escape hatch from adaptive selection. Auto (the zero
	// value) defers to the machine's plan and the dispatch policy.
	Strategy core.Strategy
}

// Result is the outcome of one Job. Index is the job's position in
// its batch (or the caller-supplied submission index), so streamed
// results can be reordered. Lane, Strategy, and Reason record the
// dispatch decision the job actually ran under; Multicore is kept as
// the legacy boolean view of Lane.
type Result struct {
	Index     int       `json:"index"`
	Machine   string    `json:"machine"`
	Final     fsm.State `json:"final_state"`
	Accepts   bool      `json:"accepts"`
	Bytes     int       `json:"bytes"`
	Multicore bool      `json:"multicore"`
	Lane      string    `json:"lane,omitempty"`
	Strategy  string    `json:"strategy,omitempty"`
	Reason    string    `json:"reason,omitempty"`
	// Degraded is set by the cluster lane when one or more chunks fell
	// back to local execution (peer down, breaker open, retries
	// exhausted). The answer is still exact; the job just did not get
	// full cluster parallelism.
	Degraded bool          `json:"degraded,omitempty"`
	Duration time.Duration `json:"duration_ns"`
	Err      error         `json:"-"`
}

// BatchStats aggregates one batch: the per-batch telemetry the
// metrics endpoints expose in aggregate form.
type BatchStats struct {
	Jobs        int           `json:"jobs"`
	OK          int           `json:"ok"`
	Errors      int           `json:"errors"`
	Canceled    int           `json:"canceled"`
	SingleCore  int           `json:"single_core"`
	Multicore   int           `json:"multicore"`
	Speculative int           `json:"speculative"`
	Cluster     int           `json:"cluster"`
	Degraded    int           `json:"degraded"`
	Bytes       int64         `json:"bytes"`
	Duration    time.Duration `json:"duration_ns"`
}

type task struct {
	ctx context.Context
	job Job
	idx int
	out chan<- Result
	// qspan is the open queue-wait span of a traced submission, ended
	// by the worker at dequeue; nil on the untraced path.
	qspan *trace.Span
	// enq is the enqueue instant; dequeue − enq is the queue wait the
	// perf profile attributes separately from execution time.
	enq time.Time
}

// Engine runs jobs over a bounded worker pool. Construct with New,
// register machines, then Submit/Run/RunBatch from any goroutine.
type Engine struct {
	mu       sync.RWMutex
	machines map[string]*Machine
	order    []string

	queue    chan task
	queueLen atomic.Int64
	// drain closes first on shutdown: Submit starts failing with
	// ErrClosed while workers keep consuming the queue until empty.
	// done closes second and stops workers immediately.
	drain      chan struct{}
	drainOnce  sync.Once
	done       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
	workers    int
	largeInput int
	procs      int
	// multiGate bounds concurrent multicore jobs so that fan-out times
	// concurrency stays near the worker count.
	multiGate chan struct{}
	tel       *telemetry.Metrics
	sink      trace.Sink
	planCache *PlanCache
	profiles  *perfprofile.Store
	// clusterCo, when non-nil, enables the cluster lane: jobs of at
	// least clusterMin bytes fan their chunks out over the peer set.
	// Both atomic so fsmserve can attach them after construction and
	// tests can swap them live.
	clusterCo  atomic.Pointer[cluster.Coordinator]
	clusterMin atomic.Int64
}

const (
	defaultLargeInput = 1 << 20
	queuePerWorker    = 4
)

// New builds an Engine and starts its workers. Callers must Close it
// to release them.
func New(opts ...Option) *Engine {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.NumCPU()
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = queuePerWorker * cfg.workers
	}
	if cfg.largeInput <= 0 {
		cfg.largeInput = defaultLargeInput
	}
	if cfg.procs <= 0 {
		cfg.procs = runtime.NumCPU()
	}
	gate := cfg.workers / cfg.procs
	if gate < 1 {
		gate = 1
	}
	if cfg.planCache == nil {
		cfg.planCache = NewPlanCache(DefaultPlanCacheSize, cfg.tel)
	}
	e := &Engine{
		machines:   make(map[string]*Machine),
		queue:      make(chan task, cfg.queueDepth),
		drain:      make(chan struct{}),
		done:       make(chan struct{}),
		workers:    cfg.workers,
		largeInput: cfg.largeInput,
		procs:      cfg.procs,
		multiGate:  make(chan struct{}, gate),
		tel:        cfg.tel,
		sink:       cfg.sink,
		planCache:  cfg.planCache,
		profiles:   cfg.profiles,
	}
	e.SetClusterMinBytes(cfg.clusterMin)
	if cfg.cluster != nil {
		e.clusterCo.Store(cfg.cluster)
	}
	for i := 0; i < cfg.workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// SetCluster attaches (or, with nil, detaches) the distributed
// coordinator at runtime. Jobs already dispatched keep the coordinator
// they loaded.
func (e *Engine) SetCluster(co *cluster.Coordinator) { e.clusterCo.Store(co) }

// Cluster returns the attached coordinator (nil when the cluster lane
// is disabled).
func (e *Engine) Cluster() *cluster.Coordinator { return e.clusterCo.Load() }

// ClusterMinBytes reports the cluster lane's input threshold.
func (e *Engine) ClusterMinBytes() int { return int(e.clusterMin.Load()) }

// SetClusterMinBytes sets the cluster lane's input threshold; n <= 0
// restores the default of 4x the large-input threshold.
func (e *Engine) SetClusterMinBytes(n int) {
	if n <= 0 {
		n = 4 * e.largeInput
	}
	e.clusterMin.Store(int64(n))
}

// Telemetry returns the attached metrics sink (nil when disabled).
func (e *Engine) Telemetry() *telemetry.Metrics { return e.tel }

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// LargeInput reports the dispatch-policy threshold in bytes.
func (e *Engine) LargeInput() int { return e.largeInput }

// Procs reports the multicore width large inputs run with (1 when the
// multicore lane is disabled).
func (e *Engine) Procs() int { return e.procs }

// QueueDepth reports the current bounded-queue occupancy.
func (e *Engine) QueueDepth() int { return int(e.queueLen.Load()) }

// QueueCap reports the bounded-queue capacity.
func (e *Engine) QueueCap() int { return cap(e.queue) }

// PerfProfiles returns the attached profile store (nil when disabled).
func (e *Engine) PerfProfiles() *perfprofile.Store { return e.profiles }

// noteDepth publishes a queue-occupancy change to the telemetry sink.
func (e *Engine) noteDepth(depth int64) {
	if tm := e.tel; tm != nil {
		tm.EngineQueueDepth.Set(depth)
	}
}

// Register compiles d into the engine under name — or, when an equal
// machine+strategy is already in the plan cache, reuses its compiled
// plan with zero table construction — and builds the runner pair over
// the shared plan: a single-core runner for the batch lane and, when
// the engine's procs exceed one, a multicore runner for the input
// lane. opts are forwarded to compilation and both runners (strategy,
// convergence cadence, ...); the engine appends its own WithProcs and
// WithTelemetry last, so per-runner procs and telemetry cannot be
// overridden.
func (e *Engine) Register(name string, d *fsm.DFA, opts ...core.Option) (*Machine, error) {
	if name == "" {
		return nil, errors.New("engine: empty machine name")
	}
	// Reject duplicates before paying for compilation: a dup is a
	// caller bug, and compiling first would also pollute the cache
	// stats with a lookup for a registration that cannot land.
	e.mu.RLock()
	_, dup := e.machines[name]
	e.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("engine: duplicate machine %q", name)
	}
	p, hit, err := e.planCache.GetOrCompile(d, opts...)
	if err != nil {
		return nil, fmt.Errorf("engine: machine %q: %w", name, err)
	}
	return e.registerPlan(name, d, p, hit, opts...)
}

// RegisterPlan registers a machine from an already compiled plan —
// the restart path: plans deserialized from a plan-cache directory
// skip table construction entirely. The plan is entered into the
// engine's cache under its fingerprint (an already cached equal plan
// wins, keeping one canonical instance); opts configure the runners
// and must not force a strategy other than the plan's.
func (e *Engine) RegisterPlan(name string, p *core.Plan, opts ...core.Option) (*Machine, error) {
	if name == "" {
		return nil, errors.New("engine: empty machine name")
	}
	if p == nil {
		return nil, errors.New("engine: nil plan")
	}
	e.mu.RLock()
	_, dup := e.machines[name]
	e.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("engine: duplicate machine %q", name)
	}
	p = e.planCache.Add(p)
	return e.registerPlan(name, p.Machine(), p, true, opts...)
}

// registerPlan builds the lane runners over p and installs the
// machine, re-checking the name under the write lock (a concurrent
// Register for the same name may have won since the pre-check).
func (e *Engine) registerPlan(name string, d *fsm.DFA, p *core.Plan, hit bool, opts ...core.Option) (*Machine, error) {
	// The per-machine recorder (nil without a profile store) gets its
	// own aux telemetry sink; both lane runners flush their run-level
	// counters into it in addition to the shared engine sink, which is
	// what lets the profile report per-machine convergence behavior.
	rec := e.profiles.NewRecorder(name, p.Fingerprint(), p.Strategy().String())
	single, err := core.NewFromPlan(p, append(opts[:len(opts):len(opts)],
		core.WithProcs(1), core.WithTelemetry(e.tel), core.WithAuxTelemetry(rec.Telemetry()))...)
	if err != nil {
		return nil, fmt.Errorf("engine: machine %q: %w", name, err)
	}
	var multi *core.Runner
	if e.procs > 1 {
		multi, err = core.NewFromPlan(p, append(opts[:len(opts):len(opts)],
			core.WithProcs(e.procs), core.WithTelemetry(e.tel), core.WithAuxTelemetry(rec.Telemetry()))...)
		if err != nil {
			return nil, fmt.Errorf("engine: machine %q: %w", name, err)
		}
	}
	m := &Machine{name: name, eng: e, dfa: d, plan: p, single: single, multi: multi,
		planHit: hit, rec: rec, opts: opts[:len(opts):len(opts)]}
	if e.procs > 1 {
		// The speculative lane fans out like the multicore one: its
		// guesses feed the multicore runner's schedule as phase 1.
		m.spec = speculative.New(d, e.procs, nil)
		if st, ok := rec.HotState(); ok && d.ValidState(fsm.State(st)) {
			// A persisted baseline already knows the dominant final
			// state: seed the guess before the first job.
			m.spec.SetGuess(fsm.State(st))
		}
	}
	if rec != nil {
		// Adaptive selection exists only when there is a profile to
		// learn from; otherwise dispatch stays static and deterministic.
		m.sel = adaptive.NewSelector(m.adaptiveInputs())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.machines[name]; dup {
		return nil, fmt.Errorf("engine: duplicate machine %q", name)
	}
	e.machines[name] = m
	e.order = append(e.order, name)
	// Publish the recorder only now that the registration has won: a
	// concurrent duplicate must not replace the winner's recorder.
	e.profiles.Install(rec)
	return m, nil
}

// Unregister removes a machine by name, reporting whether it was
// registered. In-flight jobs holding the machine finish normally (the
// runner pair stays valid); new jobs naming it fail with
// ErrUnknownMachine. The compiled plan stays in the plan cache, so a
// re-registration of the same machine is a cache hit.
func (e *Engine) Unregister(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.machines[name]; !ok {
		return false
	}
	delete(e.machines, name)
	for i, n := range e.order {
		if n == name {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	// Persist-and-drop the machine's perf profile so the observations
	// since the last periodic save are not lost with the registration.
	e.profiles.Detach(name)
	return true
}

// PlanCache returns the engine's compiled-plan cache.
func (e *Engine) PlanCache() *PlanCache { return e.planCache }

// Machine looks up a registered machine by name (nil if absent).
func (e *Engine) Machine(name string) *Machine {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.machines[name]
}

// Machines lists registration names in registration order; the first
// registered machine is the default for jobs with an empty Machine.
func (e *Engine) Machines() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.order...)
}

// Submit enqueues one job; its Result (carrying idx) is delivered on
// out, which must have capacity for every outstanding submission or a
// dedicated receiver, or the pool will stall. Submit blocks while the
// queue is full — that is the backpressure contract — and fails only
// if ctx is done first or the engine is closed. Submissions must not
// race with Close: quiesce callers (e.g. shut the HTTP server down)
// before closing the engine, or a job enqueued in the closing window
// may never be answered.
func (e *Engine) Submit(ctx context.Context, job Job, idx int, out chan<- Result) error {
	t := task{ctx: ctx, job: job, idx: idx, out: out}
	if e.closed() {
		return ErrClosed
	}
	if ctx != nil {
		if tr := trace.FromContext(ctx); tr != nil {
			t.qspan = tr.StartSpan(SpanQueue)
		}
	}
	t.enq = time.Now()
	select {
	case e.queue <- t:
		depth := e.queueLen.Add(1)
		e.noteDepth(depth)
		if tm := e.tel; tm != nil {
			tm.EngineQueueHighWater.Observe(depth)
		}
		return nil
	case <-ctx.Done():
		t.qspan.End()
		return ctx.Err()
	case <-e.drain:
		t.qspan.End()
		return ErrClosed
	}
}

// TrySubmit is Submit without the blocking contract: when the bounded
// queue is full it fails immediately with ErrQueueFull — after
// incrementing the EngineQueueRejects counter — instead of waiting
// for a worker to drain it. This is the load-shedding primitive for
// callers (an HTTP frontend answering 429, a batch planner probing
// capacity) that must not hold their own resources hostage to the
// pool's backpressure.
func (e *Engine) TrySubmit(ctx context.Context, job Job, idx int, out chan<- Result) error {
	t := task{ctx: ctx, job: job, idx: idx, out: out}
	if e.closed() {
		return ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tr := trace.FromContext(ctx); tr != nil {
			t.qspan = tr.StartSpan(SpanQueue)
		}
	}
	t.enq = time.Now()
	select {
	case e.queue <- t:
		depth := e.queueLen.Add(1)
		e.noteDepth(depth)
		if tm := e.tel; tm != nil {
			tm.EngineQueueHighWater.Observe(depth)
		}
		return nil
	default:
		t.qspan.End()
		if tm := e.tel; tm != nil {
			tm.EngineQueueRejects.Inc()
		}
		return ErrQueueFull
	}
}

// closed reports whether Close or Shutdown has begun.
func (e *Engine) closed() bool {
	select {
	case <-e.drain:
		return true
	default:
		return false
	}
}

// Run executes one job synchronously on the calling goroutine,
// bypassing the queue; the /v1/run HTTP path uses this so single
// requests never wait behind a batch. After Close or Shutdown it fails
// with ErrClosed, as Submit does.
func (e *Engine) Run(ctx context.Context, job Job) Result {
	if e.closed() {
		return Result{Machine: job.Machine, Bytes: len(job.Input), Err: ErrClosed}
	}
	return e.dispatch(ctx, 0, job, 0, false).Result
}

// RunBatch submits every job and waits for all results, returned in
// job order. A canceled ctx stops the batch cooperatively: queued
// jobs fail fast with ctx.Err(), in-flight jobs stop at their next
// block/chunk boundary, and the partial results are still returned —
// per-job errors mark which jobs did not complete.
func (e *Engine) RunBatch(ctx context.Context, jobs []Job) ([]Result, BatchStats) {
	t0 := time.Now()
	if tm := e.tel; tm != nil {
		tm.EngineBatches.Inc()
	}
	results := make([]Result, len(jobs))
	out := make(chan Result, len(jobs))
	submitted := 0
	for i, job := range jobs {
		if err := e.Submit(ctx, job, i, out); err != nil {
			results[i] = Result{Index: i, Machine: job.Machine, Bytes: len(job.Input), Err: err}
			e.noteResult(&TransduceResult{Result: results[i]}, false)
			continue
		}
		submitted++
	}
	for k := 0; k < submitted; k++ {
		r := <-out
		results[r.Index] = r
	}
	return results, summarize(results, time.Since(t0))
}

// summarize computes the per-batch aggregate.
func summarize(results []Result, dur time.Duration) BatchStats {
	st := BatchStats{Jobs: len(results), Duration: dur}
	for i := range results {
		r := &results[i]
		st.Bytes += int64(r.Bytes)
		switch {
		case r.Err == nil:
			st.OK++
		case errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded):
			st.Errors++
			st.Canceled++
		default:
			st.Errors++
		}
		if r.Err == nil {
			switch r.Lane {
			case LaneMulticore:
				st.Multicore++
			case LaneSpeculative:
				st.Speculative++
			case LaneCluster:
				st.Cluster++
			default:
				st.SingleCore++
			}
			if r.Degraded {
				st.Degraded++
			}
		}
	}
	return st
}

// Close stops the workers, fails queued jobs with ErrClosed, and
// waits for in-flight jobs to finish. Idempotent. For a drain that
// finishes queued work instead of failing it, use Shutdown.
func (e *Engine) Close() {
	e.drainOnce.Do(func() { close(e.drain) })
	e.closeOnce.Do(func() { close(e.done) })
	e.wg.Wait()
	e.failQueued()
}

// Shutdown drains the engine gracefully: new submissions fail with
// ErrClosed immediately, queued jobs are executed to completion, and
// Shutdown returns once every worker has exited — or when ctx expires
// first, in which case workers are stopped as in Close, any jobs
// still queued fail with ErrClosed, and ctx.Err() is returned.
// In-flight jobs are never interrupted mid-run beyond their own
// contexts; a caller that wants them canceled cancels the contexts it
// submitted with. Idempotent, and safe to race with Close.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.drainOnce.Do(func() { close(e.drain) })
	finished := make(chan struct{})
	go func() { e.wg.Wait(); close(finished) }()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
	}
	e.closeOnce.Do(func() { close(e.done) })
	e.failQueued()
	return err
}

// failQueued answers every still-queued task with ErrClosed.
func (e *Engine) failQueued() {
	for {
		select {
		case t := <-e.queue:
			e.noteDepth(e.queueLen.Add(-1))
			t.qspan.End()
			t.out <- Result{Index: t.idx, Machine: t.job.Machine, Bytes: len(t.job.Input), Err: ErrClosed}
		default:
			return
		}
	}
}

// dequeue pops one task's bookkeeping: gauge update, queue-wait span
// end, and the measured wait the profile layer attributes.
func (e *Engine) dequeue(t task) time.Duration {
	e.noteDepth(e.queueLen.Add(-1))
	t.qspan.End()
	if t.enq.IsZero() {
		return 0
	}
	return time.Since(t.enq)
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case t := <-e.queue:
			wait := e.dequeue(t)
			t.out <- e.dispatch(t.ctx, t.idx, t.job, wait, false).Result
		case <-e.drain:
			// Graceful drain: finish whatever is queued, then exit.
			// done still preempts, so Close during a drain stops the
			// worker at the next job boundary.
			for {
				select {
				case <-e.done:
					return
				default:
				}
				select {
				case t := <-e.queue:
					wait := e.dequeue(t)
					t.out <- e.dispatch(t.ctx, t.idx, t.job, wait, false).Result
				default:
					return
				}
			}
		}
	}
}

// dispatch runs one job to a result — the engine's one dispatch, for
// Run, Transduce, and the worker path alike. transduce selects the
// span-scan phase 3; queueWait is attributed to the machine's perf
// profile alongside the execution time. All failure modes land in
// Result.Err.
func (e *Engine) dispatch(ctx context.Context, idx int, job Job, queueWait time.Duration, transduce bool) (res TransduceResult) {
	res.Result = Result{Index: idx, Machine: job.Machine, Bytes: len(job.Input)}
	var rec *perfprofile.MachineRecorder
	defer func() {
		e.noteResult(&res, transduce)
		rec.ObserveJob(res.Lane, res.Bytes, res.Duration, queueWait, res.Err != nil)
	}()

	if ctx == nil {
		ctx = context.Background()
	}
	spanName := SpanExec
	if transduce {
		spanName = SpanTransduce
	}
	// An inbound trace (HTTP layer) wins; otherwise, with a sink
	// configured, the engine owns a fresh per-job trace and records it
	// on completion. Neither present → zero-cost untraced path.
	tr := trace.FromContext(ctx)
	if tr == nil && e.sink != nil {
		tr = trace.New()
		if transduce {
			tr.SetName(SpanTransduce)
		} else {
			tr.SetName("engine.job")
		}
		ctx = trace.NewContext(ctx, tr)
		owned := tr
		defer func() {
			if res.Err != nil {
				owned.SetError(res.Err.Error())
			}
			e.sink.Record(owned)
		}()
	}
	ctx, sp := trace.Start(ctx, spanName)
	defer sp.End()

	e.mu.RLock()
	name := job.Machine
	if name == "" && len(e.order) > 0 {
		name = e.order[0]
	}
	m := e.machines[name]
	e.mu.RUnlock()
	if sp != nil {
		sp.SetAttrs(
			trace.Str(AttrMachine, name),
			trace.Int(AttrBytes, int64(len(job.Input))),
		)
	}
	if m == nil {
		res.Err = fmt.Errorf("%w: %q", ErrUnknownMachine, job.Machine)
		return res
	}
	res.Machine = name
	rec = m.rec
	var scan *core.SpanScan
	if transduce {
		t := m.Transducer()
		if t == nil {
			res.Err = fmt.Errorf("%w: %q", ErrNotTransducer, name)
			return res
		}
		scan = core.NewSpanScan(t)
	}

	start := m.dfa.Start()
	if job.HasStart {
		if !m.dfa.ValidState(job.Start) {
			res.Err = fmt.Errorf("%w: %d (machine %q has %d states)",
				ErrBadStart, job.Start, name, m.dfa.NumStates())
			return res
		}
		start = job.Start
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}

	// Lane selection. Four tiers:
	//
	//   1. an explicit per-job strategy override pins the job to the
	//      single-core lane under that strategy;
	//   2. with a coordinator attached, inputs of at least the cluster
	//      threshold fan out over the peer set (the networked §3.4
	//      decomposition);
	//   3. small inputs always run single-core (fan-out overhead
	//      dominates below the threshold);
	//   4. large inputs take the lane the adaptive selector holds —
	//      or, without a profile store, the historical static
	//      heuristic (multicore whenever it exists).
	r := m.single
	res.Lane = LaneSingle
	res.Strategy = m.plan.Strategy().String()
	reason := fmt.Sprintf("input %d B < large-input threshold %d B", len(job.Input), e.largeInput)

	co := e.clusterCo.Load()
	if job.Strategy != core.Auto && job.Strategy != m.plan.Strategy() {
		alt, err := m.altRunner(job.Strategy)
		if err != nil {
			res.Err = fmt.Errorf("engine: machine %q: strategy override %v: %w", name, job.Strategy, err)
			return res
		}
		r = alt
		res.Strategy = job.Strategy.String()
		reason = fmt.Sprintf("explicit strategy override (%v); single-core lane", job.Strategy)
	} else if co != nil && len(job.Input) >= e.ClusterMinBytes() {
		res.Lane = LaneCluster
		reason = fmt.Sprintf("input %d B >= cluster threshold %d B; fanning out over %d peers",
			len(job.Input), e.ClusterMinBytes(), len(co.Peers()))
	} else if len(job.Input) >= e.largeInput && e.procs > 1 {
		if m.sel != nil {
			res.Lane, reason = m.sel.LaneFor()
		} else if m.multi != nil {
			res.Lane = LaneMulticore
			reason = fmt.Sprintf("input %d B >= large-input threshold %d B", len(job.Input), e.largeInput)
		}
	} else if m.multi == nil {
		reason = "multicore lane disabled (procs=1)"
	}

	// Lanes that fan out over local cores acquire a fan-out slot, so at
	// most workers/procs such jobs run at once. The cluster lane is
	// network-bound in phase 1, but a transduction replays its chunks
	// locally in phase 3.
	if res.Lane == LaneMulticore || res.Lane == LaneSpeculative || (res.Lane == LaneCluster && transduce) {
		var gsp *trace.Span
		if sp != nil {
			gsp = sp.Child(SpanGate)
		}
		select {
		case e.multiGate <- struct{}{}:
			gsp.End()
			defer func() { <-e.multiGate }()
		case <-ctx.Done():
			gsp.End()
			res.Err = ctx.Err()
			return res
		}
	}
	// Every lane is core's schedule; they differ in the runner (chunking
	// and strategy) and the phase-1 source.
	var src core.Source
	var cjob *cluster.Job
	switch res.Lane {
	case LaneMulticore:
		r = m.multi
		res.Multicore = true
	case LaneSpeculative:
		r = m.multi
		src = m.spec.Source()
	case LaneCluster:
		cjob = co.NewJob(m.plan, len(job.Input))
		src = cjob
	}
	var f core.ChunkFunc
	if scan != nil {
		f = scan.Chunk
	}
	res.Reason = reason
	if sp != nil {
		sp.SetAttrs(
			trace.Str(AttrLane, res.Lane),
			trace.Str(AttrLaneReason, reason),
			trace.Str(AttrStrategy, res.Strategy),
		)
	}

	// pprof labels make /debug/pprof/profile CPU samples attributable:
	// "which machine is burning the cores, on which lane, under which
	// strategy" falls straight out of a profile instead of requiring a
	// bespoke experiment. Labels ride the goroutine, so the parallel
	// lanes' phase workers inherit them too.
	var final fsm.State
	var ds core.DriveStats
	var err error
	t0 := time.Now()
	pprof.Do(ctx, pprof.Labels(
		AttrMachine, name,
		"strategy", res.Strategy,
		AttrLane, res.Lane,
	), func(ctx context.Context) {
		final, ds, err = r.Drive(ctx, job.Input, start, src, f)
	})
	res.Duration = time.Since(t0)
	// Exemplar: link this job's latency bucket to its trace, so the
	// histogram panel joins to the flight recorder. Traced jobs only —
	// an exemplar without a retrievable trace points nowhere.
	if tm := e.tel; tm != nil && tr != nil {
		tm.EngineJobExemplars.Observe(int64(res.Duration), tr.ID(), time.Now().UnixNano())
	}
	if cjob != nil && cjob.Stats().Degraded {
		res.Degraded = true
		if sp != nil {
			sp.SetAttrs(trace.Bool(cluster.AttrDegraded, true))
		}
	}
	if res.Lane == LaneSpeculative && ds.Chunks > 0 {
		m.rec.ObserveSpeculation(int64(ds.Chunks), int64(ds.Misses), int64(ds.ReplayBytes))
		if tm := e.tel; tm != nil {
			tm.SpecChunks.Add(int64(ds.Chunks))
			tm.SpecMispredicts.Add(int64(ds.Misses))
			tm.SpecReRunBytes.Add(int64(ds.ReplayBytes))
		}
		if ds.Misses > 0 && sp != nil {
			sp.SetAttrs(trace.Bool(AttrMispredict, true))
		}
	}
	if err != nil {
		res.Err = err
		return res
	}
	res.Final = final
	res.Accepts = m.dfa.Accepting(final)
	if scan != nil {
		res.Spans = scan.Spans()
		for _, s := range res.Spans {
			res.OutputBytes += int64(s.End - s.Start)
		}
	}
	m.rec.ObserveFinal(int(final))
	// Large jobs advance the selection clock; every EvalEvery of them
	// re-evaluates the lane choice against the updated profile.
	if m.sel != nil && len(job.Input) >= e.largeInput {
		if m.sel.NoteJob() {
			m.Reselect()
		}
	}
	return res
}

// noteResult flushes one job's accounting into the shared sink: the
// job/lane series every job feeds, plus the transduction throughput
// counters for transduce jobs.
func (e *Engine) noteResult(res *TransduceResult, transduce bool) {
	tm := e.tel
	if tm == nil {
		return
	}
	tm.EngineJobs.Inc()
	if transduce {
		tm.EngineTransduce.Inc()
	}
	tm.EngineJobBytes.Observe(int64(res.Bytes))
	if res.Duration > 0 {
		// Jobs that failed validation before running carry no duration
		// and would drag the latency window toward zero.
		tm.EngineJobTime.Observe(int64(res.Duration))
		tm.EngineJobLatency.Observe(int64(res.Duration))
	}
	if res.Err != nil {
		tm.EngineJobErrors.Inc()
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			tm.EngineCanceled.Inc()
		}
		return
	}
	if transduce {
		tm.TransduceSpans.Add(int64(len(res.Spans)))
		tm.TransduceOutputBytes.Add(res.OutputBytes)
	}
	switch res.Lane {
	case LaneMulticore:
		tm.EngineMulticore.Inc()
	case LaneSpeculative:
		tm.EngineSpeculative.Inc()
	case LaneCluster:
		tm.EngineCluster.Inc()
	default:
		tm.EngineSingleCore.Inc()
	}
}
