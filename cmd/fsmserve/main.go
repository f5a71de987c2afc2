// Command fsmserve runs compiled FSMs as an HTTP service with live
// telemetry — the serving half of the ROADMAP's production
// north-star. Requests execute on the batch engine (internal/engine):
// a bounded worker pool that runs small inputs single-core (batch-
// level parallelism) and large inputs through the paper's Figure 5
// multicore split (input-level parallelism), with per-request
// cancellation threaded down to the chunk loops — a disconnected
// client stops its own work.
//
// Every machine runs the plan core.Auto compiled for it: range
// coalescing when each symbol's range fits one shuffle (§5.3),
// convergence otherwise (§5.2). No request or flag picks another
// strategy; a ?strategy= parameter or "strategy" field is ignored
// like any other unknown one. Large inputs on machines with observed
// history are dispatched by the adaptive selector (internal/adaptive):
// per-machine profiles pick between the multicore and speculative
// lanes, and responses carry the lane, the plan's strategy, and the
// selection reason.
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
//	POST /v1/run?machine=NAME[&start=Q][&first=1][&trace=1]  run one input, JSON result
//	POST /v1/transduce?machine=NAME[&start=Q][&trace=1]      run a transducer machine, streamed NDJSON header + token spans + summary
//	POST /v1/batch[?trace=1]                       NDJSON jobs in, streamed NDJSON results + summary out
//	GET  /v1/machines                              list machines + static stats
//	GET  /v1/machines/{name}                       one machine's registry entry
//	GET  /v1/machines/{name}/profile               observed perf profile + current adaptive selection
//	GET  /v1/snapshot                              telemetry snapshot (JSON)
//	GET  /v1/status                                live status: queue depth, shed rate, per-machine perf profiles + adaptive selections, uptime, build info
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
//	fsmserve -addr :8377 -patterns-file rules.txt -procs 0
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
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpfsm/internal/cluster"
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

// server is a codec over the engine: requests decode into engine jobs,
// run through one engine entry point, and encode the job's Result. The
// engine owns machine names, their order and the default machine,
// validation, and batch fan-in; the server keeps only each machine's
// pattern and source.
type server struct {
	engine *engine.Engine
	// mu guards meta, the per-machine pattern/source metadata.
	mu      sync.RWMutex
	meta    map[string]machineMeta
	metrics *telemetry.Metrics
	// profiles aggregates per-machine observed performance; it persists
	// into the -profile-dir and feeds /v1/status.
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
	// coordinators). Its resolver is the engine registry: a machine this
	// node serves runs chunk tasks on its own runner, and a shipped copy
	// of its plan is acknowledged without being decoded or kept.
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

func newServer(patterns []string, procs int, maxBody int64, profileDir string) (*server, error) {
	source := "file"
	if len(patterns) == 0 {
		patterns = defaultPatterns
		source = "default"
	}
	specs, err := compileSpecs(patterns)
	if err != nil {
		return nil, err
	}
	s := &server{
		meta:     make(map[string]machineMeta),
		metrics:  new(telemetry.Metrics),
		profiles: perfprofile.NewStore(profileDir),
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
	// The cluster peer resolves a fingerprint through the registry: a
	// plan this node serves runs on the registered machine's runner,
	// and the coordinator's shipped copy of it is not kept. Plans of
	// machines this node does not serve go to the peer's bounded store.
	s.peer = cluster.NewPeer(s.engine.PlanRunner)
	for _, ms := range specs {
		if _, err := s.registerMachine(ms, source); err != nil {
			s.Close()
			return nil, fmt.Errorf("pattern %q: %v", ms.name, err)
		}
	}
	return s, nil
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

// machineSpec is one NAME=REGEX machine with its compiled pattern.
type machineSpec struct {
	name, pattern string
	dfa           *fsm.DFA
}

// compileSpecs splits and compiles NAME=REGEX lines, failing on the
// first malformed line or bad pattern, so a caller can validate a whole
// rule set before it touches the registry.
func compileSpecs(specs []string) ([]machineSpec, error) {
	out := make([]machineSpec, 0, len(specs))
	for _, spec := range specs {
		name, pat, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("pattern %q: want NAME=REGEX", spec)
		}
		d, err := regex.Compile(pat, regex.Options{})
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %v", name, err)
		}
		out = append(out, machineSpec{name: name, pattern: pat, dfa: d})
	}
	return out, nil
}

// registerMachine registers ms's compiled pattern under the plan Auto
// compiles for it.
func (s *server) registerMachine(ms machineSpec, source string) (*engine.Machine, error) {
	m, err := s.engine.Register(ms.name, ms.dfa)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.meta[ms.name] = machineMeta{pattern: ms.pattern, source: source}
	s.mu.Unlock()
	return m, nil
}

// unregisterMachine removes name from the engine and its metadata,
// reporting whether it existed.
func (s *server) unregisterMachine(name string) bool {
	if !s.engine.Unregister(name) {
		return false
	}
	s.mu.Lock()
	delete(s.meta, name)
	s.mu.Unlock()
	return true
}

// Close releases the engine's workers and flushes the perf profiles
// to the -profile-dir (best effort) so observations survive
// into the next process.
func (s *server) Close() {
	s.engine.Close()
	if err := s.profiles.SaveAll(); err != nil {
		s.log.Warn("persisting perf profiles", "err", err)
	}
}

// machineOr404 resolves a ?machine= query through the engine ("" is
// the default machine) before any body is read, or writes a 404.
func (s *server) machineOr404(w http.ResponseWriter, name string) *engine.Machine {
	m := s.engine.Machine(name)
	switch {
	case m != nil:
	case name == "":
		writeError(w, http.StatusNotFound, "no machines registered")
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q (see %s/machines)", name, serverapi.Version))
	}
	return m
}

// bodyPrealloc caps what readBody allocates on a body's declared length
// before any of it arrives: enough for a multi-megabyte input in one
// buffer, while a client that declares a large body and stalls pins no
// more than this.
const bodyPrealloc = 4 << 20

// readBody reads a request body of at most limit bytes. A body that
// declares its length starts in a buffer of that size, up to
// bodyPrealloc, and past it doubles toward the declared length only as
// bytes arrive: io.ReadAll grows its buffer and allocates about three
// times a large body, and on the multi-megabyte inputs of /v1/run and
// /v1/transduce that garbage sets the collector's pace. A body without a
// length, or declaring more than limit, takes the bounded growing read,
// which fails past limit.
func readBody(w http.ResponseWriter, req *http.Request, limit int64) ([]byte, error) {
	r := http.MaxBytesReader(w, req.Body, limit)
	n := req.ContentLength
	if n <= 0 || n > limit {
		return io.ReadAll(r)
	}
	buf := make([]byte, 0, min(n, bodyPrealloc))
	for int64(len(buf)) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, 2*int64(cap(buf))))
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF && int64(len(buf)) < n {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return buf, nil
}

func (s *server) handleRun(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST an input body to /v1/run")
		return
	}
	q := req.URL.Query()
	m := s.machineOr404(w, q.Get("machine"))
	if m == nil {
		return
	}
	input, err := readBody(w, req, s.maxBody)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("reading body: %v", err))
		return
	}
	job, err := queryJob(q)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	job.Machine, job.Input = m.Name(), input

	// The request context rides down to the core chunk loops, so a
	// disconnected or timed-out client cancels its own run.
	r := s.engine.Run(req.Context(), job)
	if r.Err != nil {
		writeEngineError(w, r.Err)
		return
	}
	res := serverapi.RunResult{
		Machine:         r.Machine,
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
	if job.First {
		res.FirstMatch = &r.FirstMatch
	}
	if tr := trace.FromContext(req.Context()); tr != nil {
		res.TraceID = tr.ID()
		// The inline explain block is opt-in (?trace=1); a request that
		// was traced only because it carried a traceparent header gets
		// the ID but keeps the wire result lean.
		if q.Get("trace") != "" {
			res.Explain = buildExplain(tr, r)
		}
	}
	writeJSON(w, res)
}

// handleBatch is POST /v1/batch: NDJSON jobs in (one serverapi.BatchJob
// per line), NDJSON results out — streamed in completion order as the
// engine finishes them (engine.RunBatchTo), with a BatchTrailer summary
// as the final line. The request context cancels the whole batch, so a
// disconnecting client releases the pool mid-batch.
func (s *server) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST NDJSON jobs to /v1/batch")
		return
	}

	// Parse every request line up front; the body is bounded by
	// maxBody, so the job list is too.
	sc := bufio.NewScanner(http.MaxBytesReader(w, req.Body, s.maxBody))
	sc.Buffer(make([]byte, 64<<10), bufLimit(s.maxBody))
	var jobs []engine.Job
	var lines []int               // request-line index of each job
	var preFailed []engine.Result // lines that never reach the engine
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		idx := len(jobs) + len(preFailed)
		job, err := parseBatchLine(line)
		if err != nil {
			preFailed = append(preFailed, engine.Result{Index: idx, Err: err})
		} else {
			jobs = append(jobs, job)
			lines = append(lines, idx)
		}
	}
	if err := sc.Err(); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading batch body: %v", err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, r := range preFailed {
		_ = enc.Encode(batchResult(r))
	}
	stats := s.engine.RunBatchTo(req.Context(), jobs, func(r engine.Result) {
		r.Index = lines[r.Index]
		_ = enc.Encode(batchResult(r))
		if flusher != nil {
			flusher.Flush()
		}
	})
	for _, r := range preFailed {
		stats.Add(r)
	}
	_ = enc.Encode(serverapi.BatchTrailer{Summary: batchSummary(stats)})
}

// batchResult is one job's /v1/batch result line.
func batchResult(r engine.Result) serverapi.BatchResult {
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
	if r.Err != nil {
		br.Error = r.Err.Error()
	}
	return br
}

// batchSummary is the wire form of a batch's counts.
func batchSummary(st engine.BatchStats) serverapi.BatchSummary {
	return serverapi.BatchSummary{
		Jobs: st.Jobs, OK: st.OK, Errors: st.Errors, Canceled: st.Canceled,
		SingleCore: st.SingleCore, Multicore: st.Multicore, Speculative: st.Speculative,
		Cluster: st.Cluster, Degraded: st.Degraded, Bytes: st.Bytes, DurationNs: int64(st.Duration),
	}
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
		names := s.engine.Machines()
		out := make([]serverapi.MachineInfo, 0, len(names))
		for _, name := range names {
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
	body, err := readBody(w, req, s.maxBody)
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
	t0 := time.Now()
	// A compile can take seconds; it stops when the client goes away.
	d, err := regex.CompileContext(req.Context(), rr.Pattern, regex.Options{})
	var m *engine.Machine
	if err != nil {
		err = fmt.Errorf("pattern %q: %w", rr.Name, err)
	} else {
		m, err = s.registerMachine(machineSpec{name: rr.Name, pattern: rr.Pattern, dfa: d}, "api")
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, engine.ErrDuplicateMachine) {
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
	)
	s.mu.RLock()
	res := serverapi.RegisterResult{
		Machine:    s.machineInfo(rr.Name, m),
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
	// Compile up front so a bad regex aborts before any mutation; the
	// DFAs compiled here are the ones registered.
	desired, err := compileSpecs(specs)
	if err != nil {
		return err
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
			if _, err := s.registerMachine(e, "file"); err != nil {
				return fmt.Errorf("pattern %q: %v", e.name, err)
			}
			replaced++
		default:
			if _, err := s.registerMachine(e, "file"); err != nil {
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
	writeError(w, engineErrorStatus(err), err.Error())
}

// engineErrorStatus is the HTTP status of a job's failure: a request
// the job decoder rejected, or an engine failure mode.
func engineErrorStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrUnknownMachine):
		return http.StatusNotFound
	case errors.As(err, new(badRequest)), errors.Is(err, engine.ErrBadStart), errors.Is(err, engine.ErrNotTransducer):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrQueueFull):
		// Load shed by TrySubmit: the canonical "back off and retry".
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, engine.ErrClosed), errors.Is(err, errWrite):
		// Client went away, or the engine is shutting down: either way
		// the service cannot answer this request.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
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

// Connection bounds: a client has headerTimeout to send its request
// line and headers, and an idle keep-alive connection closes after
// idleTimeout, so a stalled or abandoned client does not hold a
// goroutine without bound.
const (
	headerTimeout = 10 * time.Second
	idleTimeout   = 2 * time.Minute
)

// newHTTPServer builds the listener's server over handler with the
// connection bounds.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr            = flag.String("addr", ":8377", "listen address")
		procs           = flag.Int("procs", 0, "multicore width for large inputs (0 = NumCPU, 1 = single-core only)")
		maxBody         = flag.Int64("maxbody", 64<<20, "maximum POSTed body size in bytes")
		patternsFile    = flag.String("patterns-file", "", "file of NAME=REGEX machines, one per line (default: a small IDS rule set); SIGHUP re-reads it")
		profileDir      = flag.String("profile-dir", "", "directory where per-machine perf profiles (<fingerprint>.perf.json) persist across restarts")
		perfSave        = flag.Duration("perf-save-interval", 30*time.Second, "how often per-machine perf profiles are persisted to -profile-dir (0 disables the periodic save; shutdown always flushes)")
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

	var patterns []string
	var err error
	if *patternsFile != "" {
		patterns, err = loadPatternsFile(*patternsFile)
		if err != nil {
			fatal("loading -patterns-file", err)
		}
	}
	srv, err := newServer(patterns, *procs, *maxBody, *profileDir)
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
	for _, name := range srv.engine.Machines() {
		m := srv.engine.Machine(name)
		stats := m.DFA().Stats()
		logger.Info("machine registered",
			"machine", name,
			"states", stats.States,
			"max_range", stats.MaxRange,
			"strategy", m.Runner().Strategy().String(),
			"fingerprint", m.Fingerprint(),
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

	httpSrv := newHTTPServer(*addr, srv.mux())
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
