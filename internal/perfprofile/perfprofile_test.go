package perfprofile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpfsm/internal/core"
)

// observe runs a fixed little workload into a recorder: three single
// jobs of 100 B at 1 ms each, one multicore job of 1000 B at 2 ms (the
// two carrying the runs' core accounting), and one failed job.
func observe(r *MachineRecorder) {
	for i := 0; i < 3; i++ {
		r.Observe(Job{Lane: LaneSingle, Bytes: 100, Exec: time.Millisecond, QueueWait: 100 * time.Microsecond,
			Stats: core.DriveStats{Symbols: 100, Shuffles: 200}})
	}
	r.Observe(Job{Lane: LaneMulticore, Bytes: 1000, Exec: 2 * time.Millisecond,
		Stats: core.DriveStats{Symbols: 1000, Shuffles: 2000, FactorCalls: 10, FactorWins: 9}})
	r.Observe(Job{Lane: LaneSingle, Bytes: 50, Failed: true})
}

// install registers a recorder the way the engine does: NewRecorder,
// then Install once the registration has landed.
func install(s *Store, machine, fingerprint, strategy string) *MachineRecorder {
	r := s.NewRecorder(machine, fingerprint, strategy)
	s.Install(r)
	return r
}

func TestProfileAggregation(t *testing.T) {
	s := NewStore("")
	r := install(s, "m", "fp1", "convergence")
	observe(r)
	p := r.Profile()

	if p.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", p.Schema, SchemaVersion)
	}
	if p.Jobs != 5 || p.Errors != 1 {
		t.Fatalf("jobs/errors = %d/%d, want 5/1", p.Jobs, p.Errors)
	}
	if p.Bytes != 1300 {
		t.Fatalf("bytes = %d, want 1300", p.Bytes)
	}
	single, multi := p.Lanes[LaneSingle], p.Lanes[LaneMulticore]
	if single.Jobs != 3 || single.Bytes != 300 {
		t.Fatalf("single lane = %+v", single)
	}
	if multi.Jobs != 1 || multi.Bytes != 1000 {
		t.Fatalf("multicore lane = %+v", multi)
	}
	// 300 B in 3 ms = 100 kB/s on the single lane.
	if got, want := single.BytesPerSec, 100_000.0; got < want*0.99 || got > want*1.01 {
		t.Fatalf("single bytes/sec = %g, want ~%g", got, want)
	}
	// Queue wait: 300 µs of wait against 5 ms of exec.
	if p.QueueWaitShare <= 0 || p.QueueWaitShare >= 0.1 {
		t.Fatalf("queue-wait share = %g, want in (0, 0.1)", p.QueueWaitShare)
	}
	if p.ShufflesPerSymbol != 2.0 {
		t.Fatalf("shuffles/symbol = %g, want 2", p.ShufflesPerSymbol)
	}
	if p.ConvergenceRate != 0.9 {
		t.Fatalf("convergence rate = %g, want 0.9", p.ConvergenceRate)
	}
	// Latency window: 3×1 ms and 1×2 ms → p50 = 1 ms, p99 = 2 ms.
	if p.LatencyP50Ns != int64(time.Millisecond) {
		t.Fatalf("p50 = %d, want 1 ms", p.LatencyP50Ns)
	}
	if p.LatencyP99Ns != int64(2*time.Millisecond) {
		t.Fatalf("p99 = %d, want 2 ms", p.LatencyP99Ns)
	}
}

func TestPersistAndReload(t *testing.T) {
	dir := t.TempDir()

	s1 := NewStore(dir)
	r1 := install(s1, "m", "fpX", "auto")
	observe(r1)
	if err := s1.SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fpX"+FileSuffix)); err != nil {
		t.Fatalf("profile file not written: %v", err)
	}

	// Restart: a fresh store over the same directory seeds the baseline,
	// so totals continue instead of restarting from zero.
	s2 := NewStore(dir)
	r2 := install(s2, "m", "fpX", "auto")
	p := r2.Profile()
	if p.Jobs != 5 || p.Bytes != 1300 || p.Shuffles != 2600 {
		t.Fatalf("reloaded profile lost counts: %+v", p)
	}
	// No live jobs yet: quantiles fall back to the persisted ones.
	if p.LatencyP50Ns != int64(time.Millisecond) {
		t.Fatalf("reloaded p50 = %d, want persisted 1 ms", p.LatencyP50Ns)
	}
	// New observations accumulate on top of the baseline.
	observe(r2)
	if p := r2.Profile(); p.Jobs != 10 || p.Bytes != 2600 {
		t.Fatalf("post-restart accumulation: jobs=%d bytes=%d, want 10/2600", p.Jobs, p.Bytes)
	}
}

func TestCorruptAndSkewedFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad"+FileSuffix), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "skew"+FileSuffix),
		[]byte(`{"schema": 999, "fingerprint": "skew", "jobs": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(dir)
	if p := install(s, "a", "bad", "auto").Profile(); p.Jobs != 0 {
		t.Fatalf("corrupt file seeded a baseline: %+v", p)
	}
	if p := install(s, "b", "skew", "auto").Profile(); p.Jobs != 0 {
		t.Fatalf("version-skewed file seeded a baseline: %+v", p)
	}
}

func TestDetachPersists(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	r := install(s, "m", "fpD", "auto")
	observe(r)
	s.Detach("m")
	if _, ok := s.Profile("m"); ok {
		t.Fatal("detached machine still attached")
	}
	// The final profile was flushed on detach.
	s2 := NewStore(dir)
	if p := install(s2, "m", "fpD", "auto").Profile(); p.Jobs != 5 {
		t.Fatalf("detach did not persist: %+v", p)
	}
}

func TestProfilesSortedAndInstallSemantics(t *testing.T) {
	s := NewStore("")
	install(s, "zeta", "f1", "auto")
	install(s, "alpha", "f2", "auto")
	ps := s.Profiles()
	if len(ps) != 2 || ps[0].Machine != "alpha" || ps[1].Machine != "zeta" {
		t.Fatalf("profiles not sorted by machine: %+v", ps)
	}
	// NewRecorder without Install stays invisible.
	s.NewRecorder("ghost", "f3", "auto")
	if len(s.Profiles()) != 2 {
		t.Fatal("uninstalled recorder leaked into Profiles")
	}
}

// TestObserveAllocs pins the per-job cost of the profile: Observe only
// adds to counters and the latency window.
func TestObserveAllocs(t *testing.T) {
	r := install(NewStore(""), "m", "fpA", "auto")
	job := Job{Lane: LaneMulticore, Bytes: 1 << 20, Exec: time.Millisecond, QueueWait: time.Microsecond,
		Stats: core.DriveStats{Symbols: 1 << 20, Shuffles: 1 << 20, FactorCalls: 4, FactorWins: 3}}
	if n := testing.AllocsPerRun(100, func() { r.Observe(job) }); n != 0 {
		t.Fatalf("Observe allocates %v times per job, want 0", n)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Store
	r := s.NewRecorder("m", "fp", "auto")
	s.Install(r)
	if r != nil {
		t.Fatal("nil store returned non-nil recorder")
	}
	r.Observe(Job{Lane: LaneMulticore, Bytes: 1, Exec: time.Millisecond}) // must not panic
	_ = r.Profile()
	s.Detach("m")
	s.Install(nil)
	if err := s.SaveAll(); err != nil {
		t.Fatalf("nil SaveAll: %v", err)
	}
	if s.Profiles() != nil {
		t.Fatal("nil store returned profiles")
	}
}

// legacyProfile is a schema-1 profile file as earlier recorders wrote
// it: it still carries the speculative and cluster lanes' slots, the
// speculative counters and the hot-state histogram its start-state
// guess was drawn from.
const legacyProfile = `{
  "schema": 1,
  "fingerprint": "fpLegacy",
  "machine": "m",
  "strategy": "convergence",
  "updated_unix_ns": 1792249904839936375,
  "jobs": 7,
  "errors": 1,
  "bytes": 7444,
  "exec_ns": 7000000,
  "queue_wait_ns": 300000,
  "queue_wait_share": 0.0410958904109589,
  "throughput_bytes_per_sec": 1063428.5714285714,
  "lanes": {
    "cluster": {"jobs": 1, "bytes": 2048, "exec_ns": 1000000, "bytes_per_sec": 2048000},
    "multicore": {"jobs": 1, "bytes": 1000, "exec_ns": 2000000, "bytes_per_sec": 500000},
    "single": {"jobs": 3, "bytes": 300, "exec_ns": 3000000, "bytes_per_sec": 100000},
    "speculative": {"jobs": 1, "bytes": 4096, "exec_ns": 1000000, "bytes_per_sec": 4096000}
  },
  "latency_p50_ns": 1000000,
  "latency_p90_ns": 2000000,
  "latency_p99_ns": 2000000,
  "symbols": 1300,
  "shuffles": 2600,
  "factor_calls": 10,
  "factor_wins": 9,
  "shuffles_per_symbol": 2,
  "convergence_rate": 0.9,
  "active_final_mean": 4,
  "hot_states": {"3": 1},
  "spec_chunks": 8,
  "spec_mispredicts": 2,
  "spec_rerun_bytes": 1024,
  "mispredict_rate": 0.25
}
`

// TestLegacyProfileSeedsRecorder pins persistence compatibility: a
// profile file written by an earlier recorder (same schema, same field
// names) still seeds a recorder's baseline, and live observations add
// on top of it.
func TestLegacyProfileSeedsRecorder(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fpLegacy"+FileSuffix), []byte(legacyProfile), 0o644); err != nil {
		t.Fatal(err)
	}
	r := install(NewStore(dir), "m", "fpLegacy", "convergence")
	p := r.Profile()
	if p.Jobs != 7 || p.Errors != 1 || p.Symbols != 1300 || p.Shuffles != 2600 ||
		p.FactorCalls != 10 || p.FactorWins != 9 || p.ActiveFinalMean != 4 {
		t.Fatalf("baseline not seeded: %+v", p)
	}
	r.Observe(Job{Lane: LaneSingle, Bytes: 100, Exec: time.Millisecond,
		Stats: core.DriveStats{Symbols: 100, Shuffles: 100, ActiveFinalSum: 2, ActiveFinalChunks: 1}})
	p = r.Profile()
	if p.Jobs != 8 || p.Symbols != 1400 || p.Shuffles != 2700 || p.Lanes[LaneSingle].Jobs != 4 {
		t.Fatalf("live job not folded onto the baseline: %+v", p)
	}
	if p.ActiveFinalMean != 2 {
		t.Fatalf("active final mean = %g, want the live 2", p.ActiveFinalMean)
	}
}

// TestLegacySpeculativeFieldsDropped loads the same earlier file: its
// speculative and cluster lane slots, spec_* counters, mispredict rate
// and hot-state histogram are not errors, are not reported, and do not
// survive a save; the lanes that still exist merge as before.
func TestLegacySpeculativeFieldsDropped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fpLegacy"+FileSuffix), []byte(legacyProfile), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(dir)
	r := install(s, "m", "fpLegacy", "convergence")
	r.Observe(Job{Lane: LaneMulticore, Bytes: 1000, Exec: 2 * time.Millisecond})
	p := r.Profile()
	for _, gone := range []string{"speculative", "cluster"} {
		if _, ok := p.Lanes[gone]; ok {
			t.Fatalf("%s lane reported from the baseline: %+v", gone, p.Lanes)
		}
	}
	if multi := p.Lanes[LaneMulticore]; multi.Jobs != 2 || multi.Bytes != 2000 || multi.ExecNs != 4_000_000 {
		t.Fatalf("multicore lane = %+v, want the baseline's job plus the live one", multi)
	}
	if single := p.Lanes[LaneSingle]; single.Jobs != 3 || single.Bytes != 300 {
		t.Fatalf("single lane = %+v, want the baseline's", single)
	}
	if p.Bytes != 2300 || p.Jobs != 8 {
		t.Fatalf("bytes/jobs = %d/%d, want the surviving lanes' 2300 bytes and 8 jobs", p.Bytes, p.Jobs)
	}
	if err := s.SaveAll(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fpLegacy"+FileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"speculative"`, `"cluster"`, `"hot_states"`, `"spec_`, `"mispredict_rate"`} {
		if strings.Contains(string(data), key) {
			t.Errorf("saved profile still carries %s:\n%s", key, data)
		}
	}
}
