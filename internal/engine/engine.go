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

// Lane names, re-exported from adaptive (their one definition) so
// engine callers need not import it to compare Result.Lane.
const (
	LaneSingle      = adaptive.LaneSingle
	LaneMulticore   = adaptive.LaneMulticore
	LaneSpeculative = adaptive.LaneSpeculative
	LaneCluster     = adaptive.LaneCluster
)

// Errors returned by Submit/Run. Per-job failures are reported in
// Result.Err, never as panics.
var (
	ErrClosed         = errors.New("engine: closed")
	ErrUnknownMachine = errors.New("engine: unknown machine")
	ErrBadStart       = errors.New("engine: start state out of range")
	// ErrDuplicateMachine is returned by the Register calls when the
	// name is already taken.
	ErrDuplicateMachine = errors.New("engine: duplicate machine")
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
	profiles   *perfprofile.Store
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

// WithPerfProfiles attaches a per-machine performance-profile store:
// every registration gets a MachineRecorder (seeded from the store's
// persisted baseline for the plan's fingerprint, if any), and every
// job's Result — lane, bytes, wall time, queue wait, final state and
// the run's core accounting — is folded into it. nil (the default)
// disables per-machine profiling; the shared WithTelemetry sink is
// unaffected either way.
func WithPerfProfiles(s *perfprofile.Store) Option {
	return func(c *config) { c.profiles = s }
}

// Machine is one compiled DFA registered with the engine: a shared
// compiled plan plus the runners the dispatch policy chooses between.
// The single and multicore runners execute the same *core.Plan — the
// tables are derived once, at registration, never per lane; the
// speculative lane runs the raw DFA (its per-chunk work is
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
	// rec accumulates this machine's perf profile (nil when the engine
	// has no profile store); every exec observes into it.
	rec *perfprofile.MachineRecorder
	// sel is the adaptive lane selector, present only when the engine
	// has a profile store to learn from: without one the engine keeps
	// its historical static dispatch (deterministic, which the
	// conformance harness relies on).
	sel *adaptive.Selector
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

// Fingerprint returns the plan's identity.
func (m *Machine) Fingerprint() string { return m.plan.Fingerprint() }

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
	obs := func(lane string) adaptive.LaneObs {
		ls := p.Lanes[lane]
		return adaptive.LaneObs{Jobs: ls.Jobs, BytesPerSec: ls.BytesPerSec}
	}
	in.Single = obs(LaneSingle)
	in.Multicore = obs(LaneMulticore)
	in.Speculative = obs(LaneSpeculative)
	return in
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
	// First asks for Result.FirstMatch: the first-accept scan
	// (core.FirstAccept) runs as the schedule's phase 3, in the same
	// pass as the final state, on whatever lane dispatch picks.
	// Transductions have their own phase 3 and ignore it.
	First bool
}

// Result is the outcome of one Job and the engine's one record of it:
// observe folds it, once, into the telemetry counters, the machine's
// perf profile, the exemplar and the exec span. Index is the job's
// position in its batch (or the caller-supplied submission index), so
// streamed results can be reordered. Lane, Strategy, and Reason record
// the dispatch decision the job actually ran under; Multicore is kept
// as the legacy boolean view of Lane.
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
	// QueueWait is the time a submitted job waited for a worker.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// Stats is the run's record from core: chunks, speculative misses,
	// spans, and the §4.2/§5.2 figures of merit.
	Stats core.DriveStats `json:"stats"`
	// FirstMatch is a First job's earliest accepting position, -1 when
	// the machine never accepts on the input (zero for other jobs).
	FirstMatch int   `json:"first_match"`
	Err        error `json:"-"`
}

// BatchStats aggregates one batch: the per-batch telemetry the
// metrics endpoints expose in aggregate form. Build it with Add.
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

// Add counts one job's Result into the batch.
func (st *BatchStats) Add(r Result) {
	st.Jobs++
	st.Bytes += int64(r.Bytes)
	if r.Err != nil {
		st.Errors++
		if canceled(r.Err) {
			st.Canceled++
		}
		return
	}
	st.OK++
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

// canceled reports whether err is a context's cancellation or deadline.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
	// runTel is the runners' sink: tel, or a private one when only the
	// perf profiles need the runs' core accounting (core keeps it only
	// for a runner with a sink).
	runTel   *telemetry.Metrics
	sink     trace.Sink
	profiles *perfprofile.Store
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
		runTel:     cfg.tel,
		sink:       cfg.sink,
		profiles:   cfg.profiles,
	}
	if e.runTel == nil && e.profiles != nil {
		e.runTel = new(telemetry.Metrics)
	}
	e.SetClusterMinBytes(0)
	for i := 0; i < cfg.workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// SetCluster attaches (or, with nil, detaches) the distributed
// coordinator: jobs of at least the cluster threshold
// (SetClusterMinBytes) take the cluster lane, fanning chunks out over
// the peer set instead of local cores. Jobs already dispatched keep
// the coordinator they loaded.
func (e *Engine) SetCluster(co *cluster.Coordinator) { e.clusterCo.Store(co) }

// Cluster returns the attached coordinator (nil when the cluster lane
// is disabled).
func (e *Engine) Cluster() *cluster.Coordinator { return e.clusterCo.Load() }

// ClusterMinBytes reports the cluster lane's input threshold.
func (e *Engine) ClusterMinBytes() int { return int(e.clusterMin.Load()) }

// SetClusterMinBytes sets the cluster lane's input threshold: only
// jobs of at least n bytes are worth a network round trip, smaller
// large inputs stay on the local multicore lane. n <= 0 restores the
// default of 4x the large-input threshold.
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

// Register compiles d into the engine under name and builds the runner
// pair over the one compiled plan: a single-core runner for the batch
// lane and, when the engine's procs exceed one, a multicore runner for
// the input lane. opts are forwarded to compilation and both runners (strategy,
// convergence cadence, ...); the engine appends its own WithProcs and
// WithTelemetry last, so per-runner procs and telemetry cannot be
// overridden.
func (e *Engine) Register(name string, d *fsm.DFA, opts ...core.Option) (*Machine, error) {
	if name == "" {
		return nil, errors.New("engine: empty machine name")
	}
	// Reject duplicates before paying for compilation: a dup is a
	// caller bug.
	e.mu.RLock()
	_, dup := e.machines[name]
	e.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w %q", ErrDuplicateMachine, name)
	}
	sp := e.compileSpan()
	p, err := core.CompilePlan(d, opts...)
	sp.Stop()
	if err != nil {
		return nil, fmt.Errorf("engine: machine %q: %w", name, err)
	}
	return e.registerPlan(name, d, p, opts...)
}

// compileSpan times one registration's compile into PlanCompileTime
// (a no-op span without a telemetry sink).
func (e *Engine) compileSpan() telemetry.Span {
	if e.tel == nil {
		return telemetry.Span{}
	}
	return e.tel.PlanCompileTime.Start()
}

// registerPlan builds the lane runners over p and installs the
// machine, re-checking the name under the write lock (a concurrent
// Register for the same name may have won since the pre-check).
func (e *Engine) registerPlan(name string, d *fsm.DFA, p *core.Plan, opts ...core.Option) (*Machine, error) {
	// The per-machine recorder (nil without a profile store) folds every
	// job's Result, core accounting included (observe).
	rec := e.profiles.NewRecorder(name, p.Fingerprint(), p.Strategy().String())
	single, err := core.NewFromPlan(p, append(opts[:len(opts):len(opts)],
		core.WithProcs(1), core.WithTelemetry(e.runTel))...)
	if err != nil {
		return nil, fmt.Errorf("engine: machine %q: %w", name, err)
	}
	var multi *core.Runner
	if e.procs > 1 {
		multi, err = core.NewFromPlan(p, append(opts[:len(opts):len(opts)],
			core.WithProcs(e.procs), core.WithTelemetry(e.runTel))...)
		if err != nil {
			return nil, fmt.Errorf("engine: machine %q: %w", name, err)
		}
	}
	m := &Machine{name: name, eng: e, dfa: d, plan: p, single: single, multi: multi, rec: rec}
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
		return nil, fmt.Errorf("%w %q", ErrDuplicateMachine, name)
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
// ErrUnknownMachine. The machine's plan goes with it: a later
// registration of the same machine compiles again.
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

// PlanRunner resolves a plan fingerprint to the single-core runner of
// a registered machine compiled to that plan, or nil when no
// registered machine has it. The registry is the one store of a
// process's compiled plans, so this is a scan of it, not a second
// index: cluster peers call it once per chunk task, against a registry
// of rule-set size.
func (e *Engine) PlanRunner(fingerprint string) *core.Runner {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, m := range e.machines {
		if m.plan.Fingerprint() == fingerprint {
			return m.single
		}
	}
	return nil
}

// Machine looks up a registered machine by name — the engine's one
// name resolution: "" is the default, the first registered machine.
// nil when no such machine is registered.
func (e *Engine) Machine(name string) *Machine {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if name == "" && len(e.order) > 0 {
		name = e.order[0]
	}
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
// if ctx is done first or the engine is closed. A failed Submit is a
// refusal: the job never becomes an engine job (see
// telemetry.Metrics.EngineJobs), and the caller answers it.
// Submissions must not race with Close: quiesce callers (e.g. shut the
// HTTP server down) before closing the engine, or a job enqueued in
// the closing window may never be answered.
func (e *Engine) Submit(ctx context.Context, job Job, idx int, out chan<- Result) error {
	return e.enqueue(task{ctx: ctx, job: job, idx: idx, out: out}, true)
}

// TrySubmit is Submit without the blocking contract: when the bounded
// queue is full it fails immediately with ErrQueueFull — after
// incrementing the EngineQueueRejects counter — instead of waiting
// for a worker to drain it. This is the load-shedding primitive for
// callers (an HTTP frontend answering 429, a batch planner probing
// capacity) that must not hold their own resources hostage to the
// pool's backpressure.
func (e *Engine) TrySubmit(ctx context.Context, job Job, idx int, out chan<- Result) error {
	return e.enqueue(task{ctx: ctx, job: job, idx: idx, out: out}, false)
}

// enqueue queues t — waiting for room when block is set, failing with
// ErrQueueFull otherwise. A done ctx never enqueues: it is refused, not
// raced against a free queue slot.
func (e *Engine) enqueue(t task, block bool) error {
	if e.closed() {
		return ErrClosed
	}
	if t.ctx == nil {
		t.ctx = context.Background()
	}
	if err := t.ctx.Err(); err != nil {
		return err
	}
	if tr := trace.FromContext(t.ctx); tr != nil {
		t.qspan = tr.StartSpan(SpanQueue)
	}
	t.enq = time.Now()
	var err error
	select {
	case e.queue <- t:
	default:
		if !block {
			err = ErrQueueFull
			if tm := e.tel; tm != nil {
				tm.EngineQueueRejects.Inc()
			}
			break
		}
		select {
		case e.queue <- t:
		case <-t.ctx.Done():
			err = t.ctx.Err()
		case <-e.drain:
			err = ErrClosed
		}
	}
	if err != nil {
		t.qspan.End()
		return err
	}
	depth := e.queueLen.Add(1)
	e.noteDepth(depth)
	if tm := e.tel; tm != nil {
		tm.EngineQueueHighWater.Observe(depth)
	}
	return nil
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
	return e.dispatch(ctx, 0, job, 0, nil)
}

// RunBatch submits every job and waits for all results, returned in
// job order: RunBatchTo with an emit that collects.
func (e *Engine) RunBatch(ctx context.Context, jobs []Job) ([]Result, BatchStats) {
	results := make([]Result, len(jobs))
	st := e.RunBatchTo(ctx, jobs, func(r Result) { results[r.Index] = r })
	return results, st
}

// RunBatchTo submits every job and hands each Result (Index is the
// job's position in jobs) to emit in completion order, on the caller's
// goroutine, while later jobs are still being submitted; it returns
// once every job is answered. A canceled ctx stops the batch
// cooperatively: queued jobs fail fast with ctx.Err(), in-flight jobs
// stop at their next block/chunk boundary, and every job still gets
// its Result — per-job errors mark which did not complete. A job whose
// Submit is refused is answered with the refusal and is not an engine
// job (see Submit).
func (e *Engine) RunBatchTo(ctx context.Context, jobs []Job, emit func(Result)) BatchStats {
	t0 := time.Now()
	if tm := e.tel; tm != nil {
		tm.EngineBatches.Inc()
	}
	out := make(chan Result, len(jobs))
	go func() {
		for i, job := range jobs {
			if err := e.Submit(ctx, job, i, out); err != nil {
				out <- Result{Index: i, Machine: job.Machine, Bytes: len(job.Input), Err: err}
			}
		}
	}()
	var st BatchStats
	for range jobs {
		r := <-out
		st.Add(r)
		emit(r)
	}
	st.Duration = time.Since(t0)
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

// failQueued answers every still-queued task with ErrClosed — an
// engine job like any other, observed once.
func (e *Engine) failQueued() {
	for {
		select {
		case t := <-e.queue:
			res := Result{Index: t.idx, Machine: t.job.Machine, Bytes: len(t.job.Input),
				QueueWait: e.dequeue(t), Err: ErrClosed}
			e.observe(e.Machine(t.job.Machine), nil, &res, false)
			t.out <- res
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
			t.out <- e.dispatch(t.ctx, t.idx, t.job, wait, nil)
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
					t.out <- e.dispatch(t.ctx, t.idx, t.job, wait, nil)
				default:
					return
				}
			}
		}
	}
}

// dispatch runs one job to a result — the engine's one dispatch, for
// Run, Transduce, and the worker path alike — and observes it. A
// non-nil emit makes it a transduction: core's span scan is phase 3 and
// its spans go to emit (core.Runner.DriveSpans), on this goroutine and
// never while a fan-out slot is held. queueWait is the submitted job's
// wait for a worker. All failure modes land in Result.Err.
func (e *Engine) dispatch(ctx context.Context, idx int, job Job, queueWait time.Duration, emit core.SpanSink) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	transduce := emit != nil
	spanName := SpanExec
	if transduce {
		spanName = SpanTransduce
	}
	// An inbound trace (HTTP layer) wins; otherwise, with a sink
	// configured, the engine owns a fresh per-job trace and records it
	// on completion. Neither present → zero-cost untraced path.
	var owned *trace.Trace
	if trace.FromContext(ctx) == nil && e.sink != nil {
		owned = trace.New()
		if transduce {
			owned.SetName(SpanTransduce)
		} else {
			owned.SetName("engine.job")
		}
		ctx = trace.NewContext(ctx, owned)
	}
	ctx, sp := trace.Start(ctx, spanName)
	m, res := e.run(ctx, sp, job, emit)
	res.Index, res.QueueWait = idx, queueWait
	e.observe(m, sp, &res, transduce)
	sp.End()
	if owned != nil {
		if res.Err != nil {
			owned.SetError(res.Err.Error())
		}
		e.sink.Record(owned)
	}
	return res
}

// run executes one job under ctx (sp is its exec span, nil untraced):
// machine lookup, lane choice, and the drive through core's schedule.
// It returns the machine (nil if unknown) and the job's record.
func (e *Engine) run(ctx context.Context, sp *trace.Span, job Job, emit core.SpanSink) (*Machine, Result) {
	res := Result{Machine: job.Machine, Bytes: len(job.Input)}
	m := e.Machine(job.Machine)
	if m == nil {
		res.Err = fmt.Errorf("%w: %q", ErrUnknownMachine, job.Machine)
		return nil, res
	}
	name := m.name
	res.Machine = name
	if emit != nil && m.Transducer() == nil {
		res.Err = fmt.Errorf("%w: %q", ErrNotTransducer, name)
		return m, res
	}

	start := m.dfa.Start()
	if job.HasStart {
		if !m.dfa.ValidState(job.Start) {
			res.Err = fmt.Errorf("%w: %d (machine %q has %d states)",
				ErrBadStart, job.Start, name, m.dfa.NumStates())
			return m, res
		}
		start = job.Start
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return m, res
	}
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}

	// Lane selection. Every lane runs the machine's compiled plan; three
	// tiers pick the lane:
	//
	//   1. with a coordinator attached, inputs of at least the cluster
	//      threshold fan out over the peer set (the networked §3.4
	//      decomposition);
	//   2. small inputs always run single-core (fan-out overhead
	//      dominates below the threshold);
	//   3. large inputs take the lane the adaptive selector holds —
	//      or, without a profile store, the historical static
	//      heuristic (multicore whenever it exists).
	r := m.single
	res.Lane = LaneSingle
	res.Strategy = m.plan.Strategy().String()
	res.Reason = fmt.Sprintf("input %d B < large-input threshold %d B", len(job.Input), e.largeInput)

	co := e.clusterCo.Load()
	if co != nil && len(job.Input) >= e.ClusterMinBytes() {
		res.Lane = LaneCluster
		res.Reason = fmt.Sprintf("input %d B >= cluster threshold %d B; fanning out over %d peers",
			len(job.Input), e.ClusterMinBytes(), len(co.Peers()))
	} else if len(job.Input) >= e.largeInput && e.procs > 1 {
		if m.sel != nil {
			res.Lane, res.Reason = m.sel.LaneFor()
		} else if m.multi != nil {
			res.Lane = LaneMulticore
			res.Reason = fmt.Sprintf("input %d B >= large-input threshold %d B", len(job.Input), e.largeInput)
		}
	} else if m.multi == nil {
		res.Reason = "multicore lane disabled (procs=1)"
	}

	// The phase 3 the job asks for: the span scan (emit), the
	// first-accept scan (First), or none (a final-state query, §3.4).
	var first *core.FirstAccept
	var scan core.ChunkFunc
	if emit == nil && job.First {
		first = core.NewFirstAccept(m.dfa)
		scan = first.Scan
	}

	// Lanes that fan out over local cores acquire a fan-out slot, so at
	// most workers/procs such jobs run at once. The cluster lane is
	// network-bound in phase 1, but a phase 3 replays its chunks
	// locally. A transduction frees its slot as soon as the fan-out is
	// over, before its spans go to emit.
	gated := false
	if res.Lane == LaneMulticore || res.Lane == LaneSpeculative || (res.Lane == LaneCluster && (emit != nil || scan != nil)) {
		gsp := sp.Child(SpanGate)
		select {
		case e.multiGate <- struct{}{}:
			gsp.End()
			gated = true
		case <-ctx.Done():
			gsp.End()
			res.Err = ctx.Err()
			return m, res
		}
	}
	release := func() {
		if gated {
			gated = false
			<-e.multiGate
		}
	}
	defer release()
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
		cjob = co.NewJob(m.single, len(job.Input))
		src = cjob
	}

	// pprof labels make /debug/pprof/profile CPU samples attributable:
	// "which machine is burning the cores, on which lane, under which
	// strategy" falls straight out of a profile instead of requiring a
	// bespoke experiment. Labels ride the goroutine, so the parallel
	// lanes' phase workers inherit them too.
	var final fsm.State
	var err error
	t0 := time.Now()
	pprof.Do(ctx, pprof.Labels(
		AttrMachine, name,
		"strategy", res.Strategy,
		AttrLane, res.Lane,
	), func(ctx context.Context) {
		if emit != nil {
			final, res.Stats, err = r.DriveSpans(ctx, job.Input, start, src, release, emit)
		} else {
			final, res.Stats, err = r.Drive(ctx, job.Input, start, src, scan)
		}
	})
	res.Duration = time.Since(t0)
	res.Degraded = cjob != nil && cjob.Stats().Degraded
	if err != nil {
		res.Err = err
		return m, res
	}
	res.Final = final
	res.Accepts = m.dfa.Accepting(final)
	if first != nil {
		res.FirstMatch = first.Pos()
	}
	return m, res
}

// observe folds one job's record into every view, once: the engine
// counters and histograms, the lane and speculative counters, the
// exemplar, the exec span's attributes, and the machine's perf profile
// (m is nil for an unknown machine, sp for an untraced job). A large
// job that ran also advances the machine's selection clock.
func (e *Engine) observe(m *Machine, sp *trace.Span, res *Result, transduce bool) {
	ds := &res.Stats
	spec := res.Lane == LaneSpeculative && ds.Chunks > 0
	if tm := e.tel; tm != nil {
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
			// Exemplar: link this job's latency bucket to its trace, so
			// the histogram panel joins to the flight recorder. Traced jobs
			// only — an exemplar without a retrievable trace points nowhere.
			if sp != nil {
				tm.EngineJobExemplars.Observe(int64(res.Duration), sp.TraceID(), time.Now().UnixNano())
			}
		}
		if spec {
			tm.SpecChunks.Add(int64(ds.Chunks))
			tm.SpecMispredicts.Add(int64(ds.Misses))
			tm.SpecReRunBytes.Add(int64(ds.ReplayBytes))
		}
		switch {
		case res.Err != nil:
			tm.EngineJobErrors.Inc()
			if canceled(res.Err) {
				tm.EngineCanceled.Inc()
			}
		case res.Lane == LaneMulticore:
			tm.EngineMulticore.Inc()
		case res.Lane == LaneSpeculative:
			tm.EngineSpeculative.Inc()
		case res.Lane == LaneCluster:
			tm.EngineCluster.Inc()
		default:
			tm.EngineSingleCore.Inc()
		}
		if transduce && res.Err == nil {
			tm.TransduceSpans.Add(int64(ds.Spans))
			tm.TransduceOutputBytes.Add(ds.SpanBytes)
		}
	}
	if sp != nil {
		sp.SetAttrs(trace.Str(AttrMachine, res.Machine), trace.Int(AttrBytes, int64(res.Bytes)))
		if res.Lane != "" {
			sp.SetAttrs(
				trace.Str(AttrLane, res.Lane),
				trace.Str(AttrLaneReason, res.Reason),
				trace.Str(AttrStrategy, res.Strategy),
			)
		}
		if res.Degraded {
			sp.SetAttrs(trace.Bool(cluster.AttrDegraded, true))
		}
		if spec && ds.Misses > 0 {
			sp.SetAttrs(trace.Bool(AttrMispredict, true))
		}
	}
	if m == nil {
		return
	}
	m.rec.Observe(perfprofile.Job{
		Lane: res.Lane, Bytes: res.Bytes, Exec: res.Duration, QueueWait: res.QueueWait,
		Final: int(res.Final), Failed: res.Err != nil, Stats: res.Stats,
	})
	// Large jobs advance the selection clock; every EvalEvery of them
	// re-evaluates the lane choice against the profile this job is now
	// part of.
	if m.sel != nil && res.Err == nil && res.Bytes >= e.largeInput && m.sel.NoteJob() {
		m.Reselect()
	}
}
