// Package perfprofile aggregates the observed performance of each
// registered machine — per-lane throughput, sliding-window job latency,
// queue-wait share, and the runner-level convergence counters — and
// persists one versioned JSON profile per compiled plan in a profile
// directory (fsmserve's -profile-dir).
//
// This is the observability seam the ROADMAP's "adaptive serving"
// item needs: the speculative-DFA paper (arXiv 1210.5093) and the SFA
// paper (arXiv 1405.0562) both show that the right execution lane is
// workload-dependent, so before an adaptive engine can pick lanes from
// observed behavior, the observations have to exist, survive restarts,
// and be comparable over time. The aggregate telemetry
// (internal/telemetry.Metrics) answers "how is the process doing";
// this package answers "how does machine X behave", keyed by the
// machine's plan fingerprint.
//
// Data flow: the engine attaches one MachineRecorder per registered
// machine and folds every job's record into it with one Observe call:
// the job-level facts (lane, bytes, wall time, queue wait, final state)
// and the run's core accounting (symbols, shuffles, convergence
// checks/wins, speculative chunks). Profile() merges them with any
// baseline loaded from disk, so counts accumulate across process
// restarts.
//
// Persistence: fingerprint-keyed files
// (<fingerprint>.perf.json), tmp+rename writes so a crash never leaves
// a torn file, and corrupt or version-skewed files are ignored rather
// than fatal.
package perfprofile

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpfsm/internal/adaptive"
	"dpfsm/internal/core"
	"dpfsm/internal/telemetry"
)

// SchemaVersion is the version stamped into every persisted profile.
// Loaders ignore files whose schema they do not understand, so a
// future incompatible change bumps this and old files simply stop
// seeding baselines.
const SchemaVersion = 1

// FileSuffix is appended to the plan fingerprint to name a persisted
// profile inside the profile directory. Plans themselves are not
// persisted: a restart compiles them, and the fingerprint ties each
// recompiled plan back to its profile.
const FileSuffix = ".perf.json"

// hotStateCap bounds the hot-state histogram: the speculative lane's
// predictor only ever needs the few dominant final states, and an
// unbounded per-state map would scale with machine size. Once full,
// unseen states stop being admitted; the dominant states were already
// counted by then (they are what makes them dominant).
const hotStateCap = 32

// LaneStats aggregates the jobs one dispatch lane executed.
type LaneStats struct {
	Jobs   int64 `json:"jobs"`
	Bytes  int64 `json:"bytes"`
	ExecNs int64 `json:"exec_ns"`
	// BytesPerSec is Bytes/ExecNs, the lane's observed throughput —
	// derived, recomputed on every snapshot.
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// Profile is the versioned per-machine performance document: what
// /v1/status serves live and what SaveAll persists under the plan's
// fingerprint. All counter fields are lifetime totals (including any baseline
// reloaded from a previous process); the latency quantiles are the
// exact order statistics of the most recent jobs in this process, or
// the persisted values when this process has not yet run any.
type Profile struct {
	Schema      int    `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Machine     string `json:"machine"`
	Strategy    string `json:"strategy"`
	// UpdatedUnixNs is the wall-clock time of the snapshot.
	UpdatedUnixNs int64 `json:"updated_unix_ns"`

	// Engine-observed job accounting.
	Jobs        int64 `json:"jobs"`
	Errors      int64 `json:"errors"`
	Bytes       int64 `json:"bytes"`
	ExecNs      int64 `json:"exec_ns"`
	QueueWaitNs int64 `json:"queue_wait_ns"`
	// QueueWaitShare is QueueWaitNs/(QueueWaitNs+ExecNs): the fraction
	// of a job's life spent waiting for a worker — the engine-health
	// half of a latency number.
	QueueWaitShare float64 `json:"queue_wait_share"`
	// ThroughputBytesPerSec is Bytes/ExecNs across both lanes.
	ThroughputBytesPerSec float64              `json:"throughput_bytes_per_sec"`
	Lanes                 map[string]LaneStats `json:"lanes,omitempty"`

	// Sliding-window job latency (ns), exact over the most recent jobs.
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP90Ns int64 `json:"latency_p90_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`

	// The runs' core accounting: the paper's own quantities, per machine
	// instead of per process.
	Symbols     int64 `json:"symbols"`
	Shuffles    int64 `json:"shuffles"`
	FactorCalls int64 `json:"factor_calls"`
	FactorWins  int64 `json:"factor_wins"`
	// ShufflesPerSymbol is the live §6.1 figure of merit for this
	// machine; ConvergenceRate is FactorWins/FactorCalls — how often
	// the §5.2 convergence checks actually shrank the active vector,
	// the signal the future adaptive lane picker keys on.
	ShufflesPerSymbol float64 `json:"shuffles_per_symbol"`
	ConvergenceRate   float64 `json:"convergence_rate"`
	ActiveFinalMean   float64 `json:"active_final_mean"`

	// HotStates histograms the final states jobs ended in (bounded at
	// hotStateCap entries), keyed by the state's decimal value. The
	// speculative lane's predictor guesses the dominant entry: a machine
	// whose jobs keep ending in the same state is exactly the machine
	// whose chunk starts are guessable (arXiv 1210.5093 §2).
	HotStates map[string]int64 `json:"hot_states,omitempty"`

	// Speculative-lane accounting. MispredictRate is
	// SpecMispredicts/SpecChunks — the selector's kill signal for the
	// speculative lane.
	SpecChunks      int64   `json:"spec_chunks"`
	SpecMispredicts int64   `json:"spec_mispredicts"`
	SpecReRunBytes  int64   `json:"spec_rerun_bytes"`
	MispredictRate  float64 `json:"mispredict_rate"`
}

// MachineRecorder accumulates one machine's observations. The engine
// calls Observe once per job. All methods are safe for concurrent use
// and nil-safe no-ops, mirroring internal/telemetry.
type MachineRecorder struct {
	machine     string
	fingerprint string
	strategy    string

	// base is the profile reloaded from disk at NewRecorder time; live
	// counters add on top of it so totals survive restarts.
	base Profile

	jobs, errors atomic.Int64
	queueWaitNs  atomic.Int64
	laneJobs     [laneCount]atomic.Int64
	laneBytes    [laneCount]atomic.Int64
	laneExecNs   [laneCount]atomic.Int64
	latency      telemetry.Window

	symbols, shuffles       atomic.Int64
	factorCalls, factorWins atomic.Int64
	// activeFinalSum/activeFinalChunks give ActiveFinalMean.
	activeFinalSum, activeFinalChunks atomic.Int64

	specChunks      atomic.Int64
	specMispredicts atomic.Int64
	specReRunBytes  atomic.Int64

	hotMu     sync.Mutex
	hotStates map[int]int64
}

const (
	laneIdxSingle = iota
	laneIdxMulticore
	laneIdxSpeculative
	laneIdxCluster
	laneCount
)

// laneIdx maps an engine lane name to its counter slot; unknown names
// fall back to the single-core slot rather than dropping the sample.
func laneIdx(lane string) int {
	switch lane {
	case adaptive.LaneMulticore:
		return laneIdxMulticore
	case adaptive.LaneSpeculative:
		return laneIdxSpeculative
	case adaptive.LaneCluster:
		return laneIdxCluster
	default:
		return laneIdxSingle
	}
}

// Job is one engine job as the profile folds it: the parts of the
// engine's record the profile reads.
type Job struct {
	Lane      string // one of the Lane* constants (the dispatch decision)
	Bytes     int
	Exec      time.Duration
	QueueWait time.Duration
	Failed    bool
	// Final is the state the run ended in, feeding the hot-state
	// histogram the speculative predictor guesses from.
	Final int
	// Stats is the run's core accounting, folded even for a failed job
	// (it covers what ran before the failure, as the telemetry sink's
	// counters do).
	Stats core.DriveStats
}

// Observe folds one engine job into this machine's profile.
func (r *MachineRecorder) Observe(j Job) {
	if r == nil {
		return
	}
	ds := &j.Stats
	r.symbols.Add(ds.Symbols)
	r.shuffles.Add(ds.Shuffles)
	r.factorCalls.Add(ds.FactorCalls)
	r.factorWins.Add(ds.FactorWins)
	r.activeFinalSum.Add(ds.ActiveFinalSum)
	r.activeFinalChunks.Add(int64(ds.ActiveFinalChunks))
	if j.Lane == adaptive.LaneSpeculative {
		r.specChunks.Add(int64(ds.Chunks))
		r.specMispredicts.Add(int64(ds.Misses))
		r.specReRunBytes.Add(int64(ds.ReplayBytes))
	}
	r.jobs.Add(1)
	if j.Failed {
		r.errors.Add(1)
		return
	}
	idx := laneIdx(j.Lane)
	r.laneJobs[idx].Add(1)
	r.laneBytes[idx].Add(int64(j.Bytes))
	r.laneExecNs[idx].Add(int64(j.Exec))
	r.queueWaitNs.Add(int64(j.QueueWait))
	if j.Exec > 0 {
		r.latency.Observe(int64(j.Exec))
	}
	r.hotMu.Lock()
	if r.hotStates == nil {
		r.hotStates = make(map[int]int64, 8)
	}
	if _, ok := r.hotStates[j.Final]; ok || len(r.hotStates) < hotStateCap {
		r.hotStates[j.Final]++
	}
	r.hotMu.Unlock()
}

// HotState reports the machine's dominant observed final state —
// baseline plus live — and whether any final state has been observed
// at all. Ties break toward the smaller state number so the answer is
// deterministic.
func (r *MachineRecorder) HotState() (int, bool) {
	if r == nil {
		return 0, false
	}
	merged := r.mergedHotStates()
	best, bestCount, found := 0, int64(0), false
	for st, n := range merged {
		if n > bestCount || (n == bestCount && found && st < best) {
			best, bestCount, found = st, n, true
		}
	}
	return best, found
}

// mergedHotStates merges the persisted baseline histogram with the
// live one, returning a fresh map keyed by state number.
func (r *MachineRecorder) mergedHotStates() map[int]int64 {
	merged := make(map[int]int64, hotStateCap)
	for key, n := range r.base.HotStates {
		if st, err := strconv.Atoi(key); err == nil {
			merged[st] += n
		}
	}
	r.hotMu.Lock()
	for st, n := range r.hotStates {
		merged[st] += n
	}
	r.hotMu.Unlock()
	return merged
}

// bytesPerSec converts (bytes, ns) to a rate, 0 when unmeasured.
func bytesPerSec(bytes, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) / (float64(ns) / 1e9)
}

// Profile merges the live counters with the reloaded baseline into a
// point-in-time document.
func (r *MachineRecorder) Profile() Profile {
	if r == nil {
		return Profile{}
	}
	p := Profile{
		Schema:        SchemaVersion,
		Fingerprint:   r.fingerprint,
		Machine:       r.machine,
		Strategy:      r.strategy,
		UpdatedUnixNs: time.Now().UnixNano(),

		Jobs:        r.base.Jobs + r.jobs.Load(),
		Errors:      r.base.Errors + r.errors.Load(),
		QueueWaitNs: r.base.QueueWaitNs + r.queueWaitNs.Load(),

		Symbols:     r.base.Symbols + r.symbols.Load(),
		Shuffles:    r.base.Shuffles + r.shuffles.Load(),
		FactorCalls: r.base.FactorCalls + r.factorCalls.Load(),
		FactorWins:  r.base.FactorWins + r.factorWins.Load(),

		SpecChunks:      r.base.SpecChunks + r.specChunks.Load(),
		SpecMispredicts: r.base.SpecMispredicts + r.specMispredicts.Load(),
		SpecReRunBytes:  r.base.SpecReRunBytes + r.specReRunBytes.Load(),
		// ActiveFinalMean is a mean, not a counter: the live value wins
		// once this process has run anything, else the persisted one.
		ActiveFinalMean: r.base.ActiveFinalMean,
	}
	if n := r.activeFinalChunks.Load(); n > 0 {
		p.ActiveFinalMean = float64(r.activeFinalSum.Load()) / float64(n)
	}
	p.Lanes = make(map[string]LaneStats, laneCount)
	for i, name := range [laneCount]string{adaptive.LaneSingle, adaptive.LaneMulticore, adaptive.LaneSpeculative, adaptive.LaneCluster} {
		ls := LaneStats{
			Jobs:   r.laneJobs[i].Load(),
			Bytes:  r.laneBytes[i].Load(),
			ExecNs: r.laneExecNs[i].Load(),
		}
		if base, ok := r.base.Lanes[name]; ok {
			ls.Jobs += base.Jobs
			ls.Bytes += base.Bytes
			ls.ExecNs += base.ExecNs
		}
		if ls.Jobs == 0 {
			continue
		}
		ls.BytesPerSec = bytesPerSec(ls.Bytes, ls.ExecNs)
		p.Lanes[name] = ls
		p.Bytes += ls.Bytes
		p.ExecNs += ls.ExecNs
	}
	p.ThroughputBytesPerSec = bytesPerSec(p.Bytes, p.ExecNs)
	if total := p.QueueWaitNs + p.ExecNs; total > 0 {
		p.QueueWaitShare = float64(p.QueueWaitNs) / float64(total)
	}
	if p.Symbols > 0 {
		p.ShufflesPerSymbol = float64(p.Shuffles) / float64(p.Symbols)
	}
	if p.FactorCalls > 0 {
		p.ConvergenceRate = float64(p.FactorWins) / float64(p.FactorCalls)
	}
	if p.SpecChunks > 0 {
		p.MispredictRate = float64(p.SpecMispredicts) / float64(p.SpecChunks)
	}
	if merged := r.mergedHotStates(); len(merged) > 0 {
		p.HotStates = make(map[string]int64, len(merged))
		for st, n := range merged {
			p.HotStates[strconv.Itoa(st)] = n
		}
	}
	if lat := r.latency.Quantiles(0.5, 0.9, 0.99); r.latency.Count() > 0 {
		p.LatencyP50Ns, p.LatencyP90Ns, p.LatencyP99Ns = lat[0], lat[1], lat[2]
	} else {
		// No jobs yet in this process: report the persisted quantiles so
		// a just-restarted server's status is not all zeros.
		p.LatencyP50Ns = r.base.LatencyP50Ns
		p.LatencyP90Ns = r.base.LatencyP90Ns
		p.LatencyP99Ns = r.base.LatencyP99Ns
	}
	return p
}

// Store holds one MachineRecorder per registered machine and owns the
// persistence directory. The zero Store is not useful; use NewStore.
type Store struct {
	dir string

	mu   sync.Mutex
	recs map[string]*MachineRecorder // by machine name
}

// NewStore builds a Store persisting into dir. An empty dir keeps the
// profiles in memory only (SaveAll becomes a no-op), which is what
// tests and planless deployments want.
func NewStore(dir string) *Store {
	return &Store{dir: dir, recs: make(map[string]*MachineRecorder)}
}

// Dir reports the persistence directory ("" = memory only).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// NewRecorder builds a recorder for a machine, seeding the baseline
// from a previously persisted profile for the same plan fingerprint
// when one exists. The recorder is not yet visible in Profiles();
// Install publishes it once the caller's registration has actually
// landed (the engine re-checks for duplicate names under its own lock,
// and a losing registration must not clobber the winner's recorder).
// Nil-safe: a nil Store returns a nil recorder, whose methods are
// no-ops, so the engine threads it unconditionally.
func (s *Store) NewRecorder(machine, fingerprint, strategy string) *MachineRecorder {
	if s == nil {
		return nil
	}
	r := &MachineRecorder{machine: machine, fingerprint: fingerprint, strategy: strategy}
	if base, ok := s.load(fingerprint); ok {
		r.base = base
	}
	return r
}

// Install publishes a recorder under its machine name, replacing any
// previous recorder for that name (the dynamic-registry
// re-registration path). Nil-safe in both receiver and argument.
func (s *Store) Install(r *MachineRecorder) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	s.recs[r.machine] = r
	s.mu.Unlock()
}

// Detach removes a machine's recorder, persisting its final profile
// first (best effort) so an unregister does not lose the observations
// since the last SaveAll.
func (s *Store) Detach(machine string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	r := s.recs[machine]
	delete(s.recs, machine)
	s.mu.Unlock()
	if r != nil {
		_ = s.save(r.Profile())
	}
}

// Profiles snapshots every attached machine's profile, sorted by
// machine name for stable JSON output. Nil-safe.
func (s *Store) Profiles() []Profile {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	recs := make([]*MachineRecorder, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	s.mu.Unlock()
	out := make([]Profile, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Profile())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// Profile returns the named machine's current profile.
func (s *Store) Profile(machine string) (Profile, bool) {
	if s == nil {
		return Profile{}, false
	}
	s.mu.Lock()
	r := s.recs[machine]
	s.mu.Unlock()
	if r == nil {
		return Profile{}, false
	}
	return r.Profile(), true
}

// SaveAll persists every attached machine's profile. Errors are
// joined, not fatal-on-first, so one bad file does not stop the rest;
// with no directory configured it is a no-op. Nil-safe.
func (s *Store) SaveAll() error {
	if s == nil || s.dir == "" {
		return nil
	}
	var errs []error
	for _, p := range s.Profiles() {
		if err := s.save(p); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// path names the profile file for a fingerprint.
func (s *Store) path(fingerprint string) string {
	return filepath.Join(s.dir, fingerprint+FileSuffix)
}

// save writes one profile with tmp+rename, so a crash never leaves a
// torn file.
func (s *Store) save(p Profile) error {
	if s.dir == "" || p.Fingerprint == "" {
		return nil
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".perf-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), s.path(p.Fingerprint)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// load reads a persisted profile for fingerprint, reporting whether a
// valid same-schema one was found. Unreadable, corrupt, or
// version-skewed files are treated as absent — the directory is a
// cache.
func (s *Store) load(fingerprint string) (Profile, bool) {
	if s.dir == "" {
		return Profile{}, false
	}
	data, err := os.ReadFile(s.path(fingerprint))
	if err != nil {
		return Profile{}, false
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return Profile{}, false
	}
	if p.Schema != SchemaVersion || p.Fingerprint != fingerprint {
		return Profile{}, false
	}
	return p, true
}
