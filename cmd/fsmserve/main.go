// Command fsmserve runs compiled FSMs as an HTTP service with live
// telemetry — the serving half of the ROADMAP's production
// north-star. Requests execute on the batch engine (internal/engine):
// a bounded worker pool that runs small inputs single-core (batch-
// level parallelism) and large inputs through the paper's Figure 5
// multicore split (input-level parallelism), with per-request
// cancellation threaded down to the chunk loops — a disconnected
// client stops its own work.
//
// Large inputs on machines with observed history are dispatched by
// the adaptive selector (internal/adaptive): per-machine profiles
// pick between the multicore and speculative lanes, and responses
// carry the lane, resolved strategy, and selection reason.
//
// The API is versioned under /v1/; request/response shapes live in
// internal/serverapi. The unversioned aliases of the original routes
// (POST /run, GET /machines /snapshot /metrics) completed their
// deprecation cycle and are gone. Every non-2xx response carries the
// serverapi.Error envelope: a message plus a stable machine-readable
// code.
//
// Endpoints:
//
//	POST /v1/run?machine=NAME[&start=Q][&strategy=S][&first=1][&trace=1]  run one input, JSON result
//	POST /v1/transduce?machine=NAME[&start=Q][&strategy=S][&trace=1]      run a transducer machine, streamed NDJSON header + token spans + summary
//	POST /v1/batch[?trace=1]                       NDJSON jobs in, streamed NDJSON results + summary out
//	GET  /v1/machines                              list machines + static stats
//	GET  /v1/machines/{name}                       one machine's registry entry
//	GET  /v1/machines/{name}/profile               observed perf profile + current adaptive selection
//	GET  /v1/snapshot                              telemetry snapshot (JSON)
//	GET  /v1/status                                live status: queue depth, shed rate, plan-cache hit ratio, per-machine perf profiles + adaptive selections, uptime, build info
//	GET  /v1/metrics                               Prometheus text format (FSM + runtime/metrics series)
//	GET  /v1/traces[?machine=NAME&min_ms=N]        flight recorder: recent request traces
//	GET  /v1/traces/{id}                           one retained trace's full span tree
//	GET  /v1/slo                                   SLO report: objectives, multi-window burn rates, verdict
//	GET  /debug/vars                               expvar (includes "dpfsm")
//	GET  /debug/pprof/*                            net/http/pprof
//	GET  /healthz                                  liveness probe
//	GET  /readyz                                   readiness probe: 503 while starting, draining, or SLO-burning
//
// Tracing: a request is traced when it asks (?trace=1) or carries a
// W3C traceparent header (honored, so fsmserve joins the caller's
// distributed trace). Traced responses carry an X-Trace-Id header;
// traced runs add an inline `explain` block, and completed traces are
// retained by an in-memory flight recorder (-trace-buf capacity).
// With -trace-sample N, every run/batch request is traced and a
// sampler decides retention: N head samples per second plus every
// slow, erroring, shed, or mispredicted trace. Retained traces also
// ship to the -otlp-endpoint collector when one is configured.
//
// Usage:
//
//	fsmserve -addr :8377 -patterns-file rules.txt -procs 0 -strategy auto
//
// The patterns file holds one NAME=REGEX per line (Snort-style
// "contains" semantics; blank lines and #-comments ignored); without
// -patterns-file a small default intrusion-detection set is served.
// SIGINT/SIGTERM shut the server down gracefully: the listener stops,
// in-flight requests finish (bounded by -shutdown-timeout), and the
// engine drains its queue.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpfsm/internal/cluster"
	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/otlp"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/regex"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/slo"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/trace"
)

// server wires the engine, the machine registry, and the shared
// telemetry sink behind the HTTP surface.
type server struct {
	engine *engine.Engine
	// mu guards the registry views (meta, order). The engine has its
	// own lock; this one keeps the name list and per-machine metadata
	// consistent with it across dynamic register/unregister/reload.
	mu    sync.RWMutex
	meta  map[string]machineMeta
	order []string // registration order; first machine is the default
	// strategy is the server-wide default for machines that do not
	// name one; planDir, when set, round-trips serialized plans.
	strategy core.Strategy
	planDir  string
	metrics  *telemetry.Metrics
	// profiles aggregates per-machine observed performance; it persists
	// into planDir next to the serialized plans and feeds /v1/status.
	profiles *perfprofile.Store
	started  time.Time
	maxBody  int64
	log      *slog.Logger
	recorder *trace.Recorder
	// sampler, when set, turns on always-on tracing with sampled
	// retention: every traceable request is traced, and the sampler
	// decides at completion which traces survive to the recorder and
	// the exporter. Nil preserves opt-in-only tracing.
	sampler *trace.Sampler
	// exporter, when set, ships retained traces and periodic telemetry
	// snapshots to an OTLP collector. Nil disables export.
	exporter *otlp.Exporter
	// slo tracks request outcomes at the HTTP boundary for /v1/slo and
	// the /readyz burn-rate gate.
	slo *slo.Tracker
	// ready and draining drive /readyz: unready until main finishes
	// startup, unready again once graceful shutdown begins.
	ready    atomic.Bool
	draining atomic.Bool
	// peer is this node's serving side of the cluster protocol, always
	// mounted (a node with no -peers can still serve chunks for other
	// coordinators). Its resolver consults the local registry, so plans
	// both nodes already compiled are never shipped over the wire.
	peer *cluster.Peer
}

// machineMeta is the registry's per-machine bookkeeping.
type machineMeta struct {
	pattern string
	// source is "default", "file" (-patterns-file / SIGHUP reload), or
	// "api" (POST /v1/machines). SIGHUP reconciliation only touches
	// file-sourced machines.
	source string
}

// defaultPatterns serve the zero-config case: a recognizable slice of
// the Snort-shaped workload the benchmarks use.
var defaultPatterns = []string{
	`sqli=UNION\s+SELECT`,
	`traversal=\.\./\.\./`,
	`cgi=/cgi-bin/.*\.(pl|sh)`,
	`nopsled=\x90\x90\x90\x90`,
}

func newServer(patterns []string, strategy core.Strategy, procs int, maxBody int64, planDir string) (*server, error) {
	source := "file"
	if len(patterns) == 0 {
		patterns = defaultPatterns
		source = "default"
	}
	s := &server{
		meta:     make(map[string]machineMeta),
		strategy: strategy,
		planDir:  planDir,
		metrics:  new(telemetry.Metrics),
		profiles: perfprofile.NewStore(planDir),
		started:  time.Now(),
		maxBody:  maxBody,
		// main swaps in the configured logger, recorder, and SLO
		// tracker; the defaults keep tests and embedders quiet but
		// functional.
		log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		recorder: trace.NewRecorder(0),
		slo:      slo.New(slo.Config{}),
	}
	s.engine = engine.New(
		engine.WithProcs(procs),
		engine.WithTelemetry(s.metrics),
		engine.WithPerfProfiles(s.profiles),
	)
	s.peer = cluster.NewPeer(s.resolvePlan)
	for _, spec := range patterns {
		name, pat, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			s.Close()
			return nil, fmt.Errorf("pattern %q: want NAME=REGEX", spec)
		}
		if _, _, err := s.registerMachine(name, pat, strategy, source); err != nil {
			s.Close()
			return nil, fmt.Errorf("pattern %q: %v", name, err)
		}
	}
	return s, nil
}

// resolvePlan finds a locally registered machine's compiled plan by
// fingerprint — the cluster peer's local path: chunk tasks for
// machines this node already compiled skip the plan-shipping round
// trip entirely.
func (s *server) resolvePlan(fingerprint string) *core.Plan {
	s.mu.RLock()
	names := append([]string(nil), s.order...)
	s.mu.RUnlock()
	for _, name := range names {
		if m := s.engine.Machine(name); m != nil && m.Fingerprint() == fingerprint {
			return m.Plan()
		}
	}
	return nil
}

// enableCluster builds the coordinator over the static peer set and
// attaches it to the engine, turning on the cluster dispatch lane.
func (s *server) enableCluster(peers []string, chunkBytes, minBytes int) error {
	co, err := cluster.NewCoordinator(cluster.Config{
		Peers:      peers,
		ChunkBytes: chunkBytes,
		Telemetry:  s.metrics,
	})
	if err != nil {
		return err
	}
	s.engine.SetClusterMinBytes(minBytes)
	s.engine.SetCluster(co)
	return nil
}

// registerMachine compiles pattern and registers it under name,
// consulting the plan-cache directory first (a machine whose plan was
// persisted by an earlier process skips table construction) and
// persisting freshly compiled plans back. Returns the machine and
// whether its plan was reused rather than built.
func (s *server) registerMachine(name, pattern string, strategy core.Strategy, source string) (*engine.Machine, bool, error) {
	d, err := regex.Compile(pattern, regex.Options{})
	if err != nil {
		return nil, false, err
	}
	opts := []core.Option{core.WithStrategy(strategy)}

	var m *engine.Machine
	cached := false
	if p := s.loadPlan(d, opts); p != nil {
		m, err = s.engine.RegisterPlan(name, p, opts...)
		cached = true
	} else {
		m, err = s.engine.Register(name, d, opts...)
	}
	if err != nil {
		return nil, false, err
	}
	if !cached && m.PlanCached() {
		cached = true
	}
	if s.planDir != "" && !cached {
		s.savePlan(m.Plan())
	}
	s.mu.Lock()
	s.meta[name] = machineMeta{pattern: pattern, source: source}
	s.order = append(s.order, name)
	s.mu.Unlock()
	return m, cached, nil
}

// unregisterMachine removes name from the engine and the registry
// views, reporting whether it existed.
func (s *server) unregisterMachine(name string) bool {
	if !s.engine.Unregister(name) {
		return false
	}
	s.mu.Lock()
	delete(s.meta, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	return true
}

// planPath names a serialized plan inside the plan-cache directory.
func (s *server) planPath(fingerprint string) string {
	return filepath.Join(s.planDir, fingerprint+".plan")
}

// loadPlan returns the persisted plan for (d, opts) when the plan
// directory holds a valid one, nil otherwise. Corrupt or mismatched
// files are logged and ignored — the machine just compiles.
func (s *server) loadPlan(d *fsm.DFA, opts []core.Option) *core.Plan {
	if s.planDir == "" {
		return nil
	}
	key, err := core.PlanKey(d, opts...)
	if err != nil {
		return nil
	}
	data, err := os.ReadFile(s.planPath(key))
	if err != nil {
		return nil
	}
	p, err := core.UnmarshalPlan(data)
	if err != nil {
		s.log.Warn("ignoring bad plan file", "path", s.planPath(key), "err", err)
		return nil
	}
	if p.Fingerprint() != key {
		s.log.Warn("ignoring mismatched plan file", "path", s.planPath(key), "fingerprint", p.Fingerprint())
		return nil
	}
	return p
}

// savePlan persists a freshly compiled plan with a tmp+rename write,
// so a crashed process never leaves a torn file where loadPlan looks.
// Failures are logged, not fatal: the directory is a cache.
func (s *server) savePlan(p *core.Plan) {
	data, err := p.MarshalBinary()
	if err != nil {
		s.log.Warn("serializing plan", "fingerprint", p.Fingerprint(), "err", err)
		return
	}
	if err := os.MkdirAll(s.planDir, 0o755); err != nil {
		s.log.Warn("creating plan dir", "dir", s.planDir, "err", err)
		return
	}
	dst := s.planPath(p.Fingerprint())
	tmp, err := os.CreateTemp(s.planDir, ".plan-*")
	if err != nil {
		s.log.Warn("writing plan", "path", dst, "err", err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.log.Warn("writing plan", "path", dst, "err", errors.Join(werr, cerr))
		return
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		s.log.Warn("writing plan", "path", dst, "err", err)
		return
	}
	s.log.Info("plan persisted", "path", dst, "bytes", len(data))
}

// Close releases the engine's workers and flushes the perf profiles
// to the plan-cache directory (best effort) so observations survive
// into the next process.
func (s *server) Close() {
	s.engine.Close()
	if err := s.profiles.SaveAll(); err != nil {
		s.log.Warn("persisting perf profiles", "err", err)
	}
}

// resolveMachine maps the ?machine= query (empty = default) to a
// registered machine, or writes a 404.
func (s *server) resolveMachine(w http.ResponseWriter, req *http.Request) (string, *engine.Machine, bool) {
	name := req.URL.Query().Get("machine")
	if name == "" {
		s.mu.RLock()
		if len(s.order) > 0 {
			name = s.order[0]
		}
		s.mu.RUnlock()
		if name == "" {
			writeError(w, http.StatusNotFound, "no machines registered")
			return "", nil, false
		}
	}
	m := s.engine.Machine(name)
	if m == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q (see %s/machines)", name, serverapi.Version))
		return "", nil, false
	}
	return name, m, true
}

func (s *server) handleRun(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST an input body to /v1/run")
		return
	}
	name, m, ok := s.resolveMachine(w, req)
	if !ok {
		return
	}
	input, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.maxBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("reading body: %v", err))
		return
	}
	job := engine.Job{Machine: name, Input: input}
	if qs := req.URL.Query().Get("start"); qs != "" {
		var q int
		if _, err := fmt.Sscanf(qs, "%d", &q); err != nil || q < 0 || !m.DFA().ValidState(fsm.State(q)) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad start state %q", qs))
			return
		}
		job.Start, job.HasStart = fsm.State(q), true
	}
	// ?strategy= pins this run to an explicit strategy; "auto" (or
	// absence) keeps the machine's own adaptive dispatch.
	if qs := req.URL.Query().Get("strategy"); qs != "" {
		st, err := core.ParseStrategy(qs)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad strategy %q: %v", qs, err))
			return
		}
		job.Strategy = st
	}

	// The request context rides down to the core chunk loops, so a
	// disconnected or timed-out client cancels its own run.
	r := s.engine.Run(req.Context(), job)
	if r.Err != nil {
		writeEngineError(w, r.Err)
		return
	}
	res := serverapi.RunResult{
		Machine:         name,
		Bytes:           r.Bytes,
		Final:           r.Final,
		Accepts:         r.Accepts,
		Lane:            r.Lane,
		Multicore:       r.Multicore,
		Degraded:        r.Degraded,
		Strategy:        r.Strategy,
		SelectionReason: r.Reason,
		DurationNs:      int64(r.Duration),
	}
	if r.Duration > 0 {
		res.MBPerS = float64(r.Bytes) / r.Duration.Seconds() / 1e6
	}
	if tr := trace.FromContext(req.Context()); tr != nil {
		res.TraceID = tr.ID()
		// The inline explain block is opt-in (?trace=1); a request that
		// was traced only because it carried a traceparent header gets
		// the ID but keeps the wire result lean.
		if req.URL.Query().Get("trace") != "" {
			res.Explain = buildExplain(tr)
		}
	}
	if req.URL.Query().Get("first") != "" {
		start := m.DFA().Start()
		if job.HasStart {
			start = job.Start
		}
		hit := m.Runner().FirstAccepting(input, start)
		res.FirstMatch = &hit
	}
	writeJSON(w, res)
}

// handleBatch is POST /v1/batch: NDJSON jobs in (one serverapi.BatchJob
// per line), NDJSON results out — streamed in completion order as the
// engine finishes them, with a BatchTrailer summary as the final line.
// The request context cancels the whole batch, so a disconnecting
// client releases the pool mid-batch.
func (s *server) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST NDJSON jobs to /v1/batch")
		return
	}
	ctx := req.Context()
	s.metrics.EngineBatches.Inc()

	// Parse every request line up front; the body is bounded by
	// maxBody, so the job list is too.
	sc := bufio.NewScanner(http.MaxBytesReader(w, req.Body, s.maxBody))
	sc.Buffer(make([]byte, 64<<10), bufLimit(s.maxBody))
	type lineJob struct {
		idx int
		job engine.Job
	}
	var jobs []lineJob
	var preFailed []serverapi.BatchResult
	idx := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		job, err := parseBatchLine(line)
		if err != nil {
			preFailed = append(preFailed, serverapi.BatchResult{Index: idx, Error: err.Error()})
		} else {
			jobs = append(jobs, lineJob{idx: idx, job: job})
		}
		idx++
	}
	if err := sc.Err(); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading batch body: %v", err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	t0 := time.Now()
	summary := serverapi.BatchSummary{Jobs: idx}
	for _, r := range preFailed {
		summary.Errors++
		_ = enc.Encode(r)
	}

	out := make(chan engine.Result, len(jobs))
	go func() {
		for _, lj := range jobs {
			if err := s.engine.Submit(ctx, lj.job, lj.idx, out); err != nil {
				out <- engine.Result{Index: lj.idx, Machine: lj.job.Machine, Bytes: len(lj.job.Input), Err: err}
			}
		}
	}()
	for range jobs {
		r := <-out
		br := serverapi.BatchResult{
			Index:      r.Index,
			Machine:    r.Machine,
			Final:      r.Final,
			Accepts:    r.Accepts,
			Bytes:      r.Bytes,
			Lane:       r.Lane,
			Multicore:  r.Multicore,
			Degraded:   r.Degraded,
			Strategy:   r.Strategy,
			DurationNs: int64(r.Duration),
		}
		summary.Bytes += int64(r.Bytes)
		switch {
		case r.Err == nil:
			summary.OK++
			switch r.Lane {
			case engine.LaneMulticore:
				summary.Multicore++
			case engine.LaneSpeculative:
				summary.Speculative++
			case engine.LaneCluster:
				summary.Cluster++
			default:
				summary.SingleCore++
			}
			if r.Degraded {
				summary.Degraded++
			}
		default:
			br.Error = r.Err.Error()
			summary.Errors++
			if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
				summary.Canceled++
			}
		}
		_ = enc.Encode(br)
		if flusher != nil {
			flusher.Flush()
		}
	}
	summary.DurationNs = int64(time.Since(t0))
	_ = enc.Encode(serverapi.BatchTrailer{Summary: summary})
}

// parseBatchLine decodes one NDJSON request line into an engine job.
func parseBatchLine(line []byte) (engine.Job, error) {
	var bj serverapi.BatchJob
	if err := json.Unmarshal(line, &bj); err != nil {
		return engine.Job{}, fmt.Errorf("bad job line: %v", err)
	}
	job := engine.Job{Machine: bj.Machine, Timeout: time.Duration(bj.TimeoutMs) * time.Millisecond}
	switch {
	case bj.InputB64 != "" && bj.Input != "":
		return engine.Job{}, errors.New("bad job line: both input and input_b64 set")
	case bj.InputB64 != "":
		raw, err := base64.StdEncoding.DecodeString(bj.InputB64)
		if err != nil {
			return engine.Job{}, fmt.Errorf("bad input_b64: %v", err)
		}
		job.Input = raw
	default:
		job.Input = []byte(bj.Input)
	}
	if bj.Start != nil {
		if *bj.Start < 0 || *bj.Start > int(^fsm.State(0)) {
			return engine.Job{}, fmt.Errorf("bad start state %d", *bj.Start)
		}
		job.Start, job.HasStart = fsm.State(*bj.Start), true
	}
	if bj.Strategy != "" {
		st, err := core.ParseStrategy(bj.Strategy)
		if err != nil {
			return engine.Job{}, fmt.Errorf("bad strategy %q: %v", bj.Strategy, err)
		}
		job.Strategy = st
	}
	return job, nil
}

// bufLimit clamps maxBody to a scanner line limit.
func bufLimit(maxBody int64) int {
	const cap = 1 << 30
	if maxBody > cap {
		return cap
	}
	return int(maxBody) + 1
}

// machineInfo assembles the wire view of one registered machine. The
// caller must hold s.mu (read or write).
func (s *server) machineInfo(name string, m *engine.Machine) serverapi.MachineInfo {
	meta := s.meta[name]
	info := serverapi.MachineInfo{
		Name:        name,
		Pattern:     meta.pattern,
		Strategy:    m.Runner().Strategy(),
		Procs:       s.engine.Procs(),
		Fingerprint: m.Fingerprint(),
		Source:      meta.source,
		Kind:        m.Kind().String(),
		Stats:       m.DFA().Stats(),
	}
	if t := m.Transducer(); t != nil {
		info.OutputTableBytes = t.TableBytes()
	}
	return info
}

// handleMachines serves the registry collection: GET lists, POST
// compiles and registers (the dynamic half of the registry).
func (s *server) handleMachines(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		s.mu.RLock()
		out := make([]serverapi.MachineInfo, 0, len(s.order))
		for _, name := range s.order {
			if m := s.engine.Machine(name); m != nil {
				out = append(out, s.machineInfo(name, m))
			}
		}
		s.mu.RUnlock()
		writeJSON(w, out)
	case http.MethodPost:
		s.handleRegister(w, req)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET lists machines; POST a serverapi.RegisterRequest to register one")
	}
}

// handleRegister is POST /v1/machines: compile-and-register, returning
// compile stats and the plan fingerprint.
func (s *server) handleRegister(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.maxBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("reading body: %v", err))
		return
	}
	var rr serverapi.RegisterRequest
	if err := json.Unmarshal(body, &rr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad register request: %v", err))
		return
	}
	if rr.Name == "" || rr.Pattern == "" {
		writeError(w, http.StatusBadRequest, "register request needs name and pattern")
		return
	}
	strategy := rr.Strategy
	if strategy == core.Auto {
		strategy = s.strategy
	}
	t0 := time.Now()
	m, cached, err := s.registerMachine(rr.Name, rr.Pattern, strategy, "api")
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "duplicate machine") {
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	s.log.Info("machine registered",
		"machine", rr.Name,
		"source", "api",
		"strategy", m.Runner().Strategy().String(),
		"fingerprint", m.Fingerprint(),
		"plan_cached", cached,
	)
	s.mu.RLock()
	res := serverapi.RegisterResult{
		Machine:    s.machineInfo(rr.Name, m),
		PlanCached: cached,
		CompileNs:  int64(time.Since(t0)),
		TableBytes: m.Plan().TableBytes(),
		AutoReason: m.Plan().AutoReason(),
	}
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}

// machineSelection assembles the wire view of one machine's current
// adaptive-dispatch decision.
func machineSelection(name string, m *engine.Machine) serverapi.MachineSelection {
	sel := m.Selection()
	ms := serverapi.MachineSelection{
		Machine:  name,
		Lane:     sel.Lane,
		Strategy: sel.Strategy,
		Reason:   sel.Reason,
		Kind:     m.Kind().String(),
	}
	if t := m.Transducer(); t != nil {
		ms.OutputTableBytes = t.TableBytes()
	}
	return ms
}

// handleMachineByName serves /v1/machines/{name}: GET one entry,
// DELETE to unregister, and the /v1/machines/{name}/profile
// sub-resource: the observed perf profile joined with the adaptive
// selector's current decision.
func (s *server) handleMachineByName(w http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, serverapi.Version+"/machines/")
	name, sub, hasSub := strings.Cut(rest, "/")
	if name == "" || (hasSub && sub != "profile") {
		writeError(w, http.StatusNotFound, "want /v1/machines/{name} or /v1/machines/{name}/profile")
		return
	}
	if hasSub {
		if req.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET /v1/machines/{name}/profile")
			return
		}
		m := s.engine.Machine(name)
		if m == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q", name))
			return
		}
		s.mu.RLock()
		mp := serverapi.MachineProfile{
			Machine:   s.machineInfo(name, m),
			Selection: machineSelection(name, m),
		}
		s.mu.RUnlock()
		if p, ok := s.profiles.Profile(name); ok {
			mp.Profile = &p
		}
		writeJSON(w, mp)
		return
	}
	switch req.Method {
	case http.MethodGet:
		m := s.engine.Machine(name)
		if m == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q", name))
			return
		}
		s.mu.RLock()
		info := s.machineInfo(name, m)
		s.mu.RUnlock()
		writeJSON(w, info)
	case http.MethodDelete:
		if !s.unregisterMachine(name) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q", name))
			return
		}
		s.log.Info("machine unregistered", "machine", name)
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE /v1/machines/{name}")
	}
}

// reloadPatterns re-reads the patterns file (SIGHUP) and reconciles
// the registry's file-sourced machines with it: new names are
// registered, changed patterns are recompiled, and names gone from
// the file are unregistered. Machines registered over the API (or the
// built-in defaults) are left alone. A file that fails to parse —
// including duplicate names — aborts the reload with no changes.
func (s *server) reloadPatterns(path string) error {
	specs, err := loadPatternsFile(path)
	if err != nil {
		return err
	}
	type entry struct{ name, pattern string }
	desired := make([]entry, 0, len(specs))
	for _, spec := range specs {
		name, pat, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			return fmt.Errorf("pattern %q: want NAME=REGEX", spec)
		}
		// Compile up front so a bad regex aborts before any mutation.
		if _, err := regex.Compile(pat, regex.Options{}); err != nil {
			return fmt.Errorf("pattern %q: %v", name, err)
		}
		desired = append(desired, entry{name: name, pattern: pat})
	}

	s.mu.RLock()
	current := make(map[string]machineMeta, len(s.meta))
	for name, meta := range s.meta {
		current[name] = meta
	}
	s.mu.RUnlock()

	inFile := make(map[string]bool, len(desired))
	var added, replaced, removed int
	for _, e := range desired {
		inFile[e.name] = true
		meta, exists := current[e.name]
		switch {
		case exists && meta.source == "api":
			s.log.Warn("reload: name held by API-registered machine, skipping", "machine", e.name)
		case exists && meta.pattern == e.pattern:
			// Unchanged; keep the live machine (and its warm plan).
		case exists:
			s.unregisterMachine(e.name)
			if _, _, err := s.registerMachine(e.name, e.pattern, s.strategy, "file"); err != nil {
				return fmt.Errorf("pattern %q: %v", e.name, err)
			}
			replaced++
		default:
			if _, _, err := s.registerMachine(e.name, e.pattern, s.strategy, "file"); err != nil {
				return fmt.Errorf("pattern %q: %v", e.name, err)
			}
			added++
		}
	}
	for name, meta := range current {
		if (meta.source == "file" || meta.source == "default") && !inFile[name] {
			s.unregisterMachine(name)
			removed++
		}
	}
	s.log.Info("patterns reloaded", "file", path, "machines", len(desired),
		"added", added, "replaced", replaced, "removed", removed)
	return nil
}

func (s *server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.metrics.Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeError emits the shared JSON error envelope. The stable
// machine-readable code is derived from the HTTP status so every
// handler produces the same envelope without threading codes by hand.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serverapi.Error{Error: msg, Code: errorCode(status)})
}

// errorCode maps an HTTP status to its serverapi error code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return serverapi.CodeBadRequest
	case http.StatusNotFound:
		return serverapi.CodeNotFound
	case http.StatusMethodNotAllowed:
		return serverapi.CodeMethodNotAllowed
	case http.StatusConflict:
		return serverapi.CodeConflict
	case http.StatusRequestEntityTooLarge:
		return serverapi.CodeTooLarge
	case http.StatusTooManyRequests:
		return serverapi.CodeQueueFull
	case http.StatusGatewayTimeout:
		return serverapi.CodeTimeout
	case http.StatusServiceUnavailable:
		return serverapi.CodeCanceled
	default:
		return serverapi.CodeInternal
	}
}

// writeEngineError maps engine failure modes to HTTP statuses.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrUnknownMachine):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, engine.ErrBadStart), errors.Is(err, engine.ErrNotTransducer):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, engine.ErrQueueFull):
		// Load shed by TrySubmit: the canonical "back off and retry".
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, engine.ErrClosed):
		// Client went away, or the engine is shutting down: either way
		// the service cannot answer this request.
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// mux assembles the full route table, including the expvar and pprof
// debug surfaces that normally ride on http.DefaultServeMux.
func (s *server) mux() *http.ServeMux {
	// Publishing makes the shared sink visible at /debug/vars next to
	// the runtime's memstats; an "already taken" error just means an
	// earlier server in this process claimed the name (tests).
	_ = s.metrics.Publish("dpfsm")
	mux := http.NewServeMux()
	// The metrics exposition concatenates the FSM families with the
	// curated runtime/metrics bridge (GC pauses, heap, goroutines,
	// scheduler latency) — one scrape, both layers.
	metricsHandler := func(w http.ResponseWriter, req *http.Request) {
		// OpenMetrics negotiation: exemplars on the latency histogram
		// are part of both formats here, but an OpenMetrics scraper
		// (Prometheus with exemplar storage) asks for them explicitly.
		ct := "text/plain; version=0.0.4; charset=utf-8"
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			ct = "application/openmetrics-text; version=1.0.0; charset=utf-8"
		}
		w.Header().Set("Content-Type", ct)
		s.metrics.WritePrometheus(w)
		telemetry.WriteRuntimePrometheus(w)
	}

	// Versioned surface. Every route goes through instrument (access
	// log); run and batch additionally accept tracing.
	mux.HandleFunc(serverapi.Version+"/run", s.instrument(serverapi.Version+"/run", true, s.handleRun))
	mux.HandleFunc(serverapi.Version+"/transduce", s.instrument(serverapi.Version+"/transduce", true, s.handleTransduce))
	mux.HandleFunc(serverapi.Version+"/batch", s.instrument(serverapi.Version+"/batch", true, s.handleBatch))
	mux.HandleFunc(serverapi.Version+"/machines", s.instrument(serverapi.Version+"/machines", false, s.handleMachines))
	mux.HandleFunc(serverapi.Version+"/machines/", s.instrument(serverapi.Version+"/machines/{name}", false, s.handleMachineByName))
	mux.HandleFunc(serverapi.Version+"/snapshot", s.instrument(serverapi.Version+"/snapshot", false, s.handleSnapshot))
	mux.HandleFunc(serverapi.Version+"/status", s.instrument(serverapi.Version+"/status", false, s.handleStatus))
	mux.Handle(serverapi.Version+"/metrics", s.instrument(serverapi.Version+"/metrics", false, http.HandlerFunc(metricsHandler)))
	mux.HandleFunc(serverapi.Version+"/traces", s.instrument(serverapi.Version+"/traces", false, s.handleTraces))
	mux.HandleFunc(serverapi.Version+"/traces/", s.instrument(serverapi.Version+"/traces/{id}", false, s.handleTraceByID))
	mux.HandleFunc(serverapi.Version+"/slo", s.instrument(serverapi.Version+"/slo", false, s.handleSLO))

	// Peer protocol: binary chunk tasks in, composition vectors out.
	// Always mounted — a node with no -peers of its own still serves
	// chunks for coordinators that list it.
	peerHandler := s.peer.Handler().ServeHTTP
	mux.HandleFunc(cluster.ExecPath, s.instrument(cluster.ExecPath, false, peerHandler))
	mux.HandleFunc(cluster.PlansPath, s.instrument(cluster.PlansPath, false, peerHandler))

	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Probes stay uninstrumented: they run every few seconds per
	// prober, and their outcomes are probe contracts, not traffic the
	// access log or the SLO should count.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// loadPatternsFile reads NAME=REGEX lines; blank lines and #-comments
// are skipped. Duplicate names are an error — last-write-wins would
// silently shadow an earlier pattern, which for a rule set means a
// rule that quietly stops matching.
func loadPatternsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	seen := make(map[string]int) // name -> first line number
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, _, ok := strings.Cut(line, "="); ok && name != "" {
			if first, dup := seen[name]; dup {
				return nil, fmt.Errorf("%s:%d: duplicate machine name %q (first defined on line %d)",
					path, i+1, name, first)
			}
			seen[name] = i + 1
		}
		out = append(out, line)
	}
	return out, nil
}

func main() {
	var (
		addr            = flag.String("addr", ":8377", "listen address")
		strat           = flag.String("strategy", "auto", "execution strategy, one of: "+strings.Join(core.Strategies(), " "))
		procs           = flag.Int("procs", 0, "multicore width for large inputs (0 = NumCPU, 1 = single-core only)")
		maxBody         = flag.Int64("maxbody", 64<<20, "maximum POSTed body size in bytes")
		patternsFile    = flag.String("patterns-file", "", "file of NAME=REGEX machines, one per line (default: a small IDS rule set); SIGHUP re-reads it")
		planDir         = flag.String("plan-cache-dir", "", "directory of serialized compiled plans; machines whose plans are present skip table construction across restarts, and per-machine perf profiles persist next to them")
		perfSave        = flag.Duration("perf-save-interval", 30*time.Second, "how often per-machine perf profiles are persisted to -plan-cache-dir (0 disables the periodic save; shutdown always flushes)")
		logFormat       = flag.String("log-format", "text", `log output format: "text" or "json"`)
		traceBuf        = flag.Int("trace-buf", trace.DefaultRecorderCapacity, "flight-recorder capacity: completed request traces retained for /v1/traces")
		traceSample     = flag.Float64("trace-sample", 0, "head-sample rate in traces/second: trace every request, retain this many representative ones per second plus all slow/error/shed/mispredict tails (0 = trace only on request)")
		traceSlow       = flag.Duration("trace-slow", trace.DefaultSlowThreshold, "duration at or above which a sampled trace is always retained")
		otlpEndpoint    = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL (e.g. http://localhost:4318); empty disables export")
		otlpInterval    = flag.Duration("otlp-interval", otlp.DefaultInterval, "OTLP metrics-push and trace-flush interval")
		sloAvail        = flag.Float64("slo-availability", slo.DefaultAvailabilityTarget, "availability objective: target fraction of requests neither shed nor erroring")
		sloLatency      = flag.Duration("slo-latency-threshold", slo.DefaultLatencyThreshold, "latency objective threshold: completed requests at or over this count against the latency SLO")
		peersFlag       = flag.String("peers", "", "comma-separated base URLs of peer fsmserve nodes (e.g. http://host:8377); non-empty enables the distributed cluster lane")
		clusterChunk    = flag.Int("cluster-chunk", 0, "bytes per chunk fanned out to peers (0 = coordinator default)")
		clusterMin      = flag.Int("cluster-min", 0, "input size in bytes at or above which jobs take the cluster lane (0 = 4x the large-input threshold)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown deadline on SIGINT/SIGTERM")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "fsmserve: -log-format %q: want text or json\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	strategy, err := core.ParseStrategy(*strat)
	if err != nil {
		fatal("bad -strategy", err)
	}
	var patterns []string
	if *patternsFile != "" {
		patterns, err = loadPatternsFile(*patternsFile)
		if err != nil {
			fatal("loading -patterns-file", err)
		}
	}
	srv, err := newServer(patterns, strategy, *procs, *maxBody, *planDir)
	if err != nil {
		fatal("building server", err)
	}
	srv.log = logger
	// The compiled-in tokenizers ride along as transducer machines for
	// /v1/transduce; a patterns file claiming their names wins.
	srv.registerBuiltinTransducers()
	srv.recorder = trace.NewRecorder(*traceBuf)
	srv.slo = slo.New(slo.Config{
		AvailabilityTarget: *sloAvail,
		LatencyThreshold:   *sloLatency,
	})
	if *traceSample > 0 {
		srv.sampler = trace.NewSampler(trace.SamplerConfig{
			HeadPerSec:    *traceSample,
			SlowThreshold: *traceSlow,
			KeepAttrs:     []string{engine.AttrMispredict},
		})
	}
	if *peersFlag != "" {
		var peerList []string
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if err := srv.enableCluster(peerList, *clusterChunk, *clusterMin); err != nil {
			fatal("bad -peers", err)
		}
		logger.Info("cluster lane enabled",
			"peers", peerList,
			"chunk_bytes", srv.engine.Cluster().ChunkBytes(),
			"min_bytes", srv.engine.ClusterMinBytes(),
		)
	}
	if *otlpEndpoint != "" {
		srv.exporter, err = otlp.New(otlp.Config{
			Endpoint:    *otlpEndpoint,
			ServiceName: "fsmserve",
			Snapshot:    srv.metrics.Snapshot,
			Interval:    *otlpInterval,
		})
		if err != nil {
			fatal("bad -otlp-endpoint", err)
		}
		logger.Info("otlp export enabled", "endpoint", *otlpEndpoint, "interval", *otlpInterval)
	}
	for _, name := range srv.order {
		m := srv.engine.Machine(name)
		stats := m.DFA().Stats()
		logger.Info("machine registered",
			"machine", name,
			"states", stats.States,
			"max_range", stats.MaxRange,
			"strategy", m.Runner().Strategy().String(),
			"fingerprint", m.Fingerprint(),
			"plan_cached", m.PlanCached(),
			"procs", srv.engine.Procs(),
		)
	}

	// SIGHUP re-reads the patterns file and reconciles the registry;
	// only meaningful when a file was given.
	if *patternsFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := srv.reloadPatterns(*patternsFile); err != nil {
					logger.Error("reload failed; keeping current machines", "file", *patternsFile, "err", err)
				}
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.mux()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Periodic profile persistence, so a crash loses at most one
	// interval of observations; the clean-shutdown path below flushes.
	go srv.saveProfilesLoop(ctx.Done(), *perfSave)
	listenErr := make(chan error, 1)
	go func() { listenErr <- httpSrv.ListenAndServe() }()
	srv.markReady()
	logger.Info("serving",
		"addr", *addr,
		"routes", serverapi.Version+"/{run,batch,machines,snapshot,metrics,traces}",
		"trace_buf", srv.recorder.Cap(),
	)

	select {
	case err := <-listenErr:
		fatal("listen", err)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, let in-flight requests finish,
	// then drain the engine's queued jobs — all under one deadline. A
	// second signal kills the process the usual way (stop() above
	// restored the default handler).
	stop()
	// Flip /readyz first: the load balancer stops sending new traffic
	// while the listener finishes what is already in flight.
	srv.beginDrain()
	logger.Info("shutting down", "deadline", *shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := srv.engine.Shutdown(sctx); err != nil {
		logger.Error("engine shutdown", "err", err)
	}
	// The exporter drains last so traces recorded during the HTTP and
	// engine drains still ship.
	if err := srv.exporter.Shutdown(sctx); err != nil {
		logger.Error("otlp shutdown", "err", err)
	}
	if err := srv.profiles.SaveAll(); err != nil {
		logger.Error("persisting perf profiles", "err", err)
	}
	logger.Info("stopped")
}
