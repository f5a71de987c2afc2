package main

import (
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"dpfsm/internal/serverapi"
	"dpfsm/internal/telemetry"
)

// GET /v1/status: the one-page live view of the server. Everything in
// it exists elsewhere — /v1/snapshot has the raw counters, /v1/metrics
// the scrapeable series, the -profile-dir the persisted profiles —
// but an operator answering "is this server healthy and which machine
// is expensive" should not have to join three surfaces by hand.

// buildVersion resolves the main module's version from the embedded
// build info ("(devel)" on untagged builds, "" when no build info is
// compiled in, e.g. some test binaries).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.Main.Version
	}
	return ""
}

func (s *server) status() serverapi.Status {
	snap := s.metrics.Snapshot()
	st := serverapi.Status{
		Service:     "fsmserve",
		GoVersion:   runtime.Version(),
		Build:       buildVersion(),
		PID:         os.Getpid(),
		StartUnixNs: s.started.UnixNano(),
		UptimeNs:    int64(time.Since(s.started)),

		Workers:        s.engine.Workers(),
		Procs:          s.engine.Procs(),
		LargeInput:     s.engine.LargeInput(),
		QueueDepth:     s.engine.QueueDepth(),
		QueueCap:       s.engine.QueueCap(),
		QueueHighWater: snap.EngineQueueHighWater,
		ShedTotal:      snap.EngineQueueRejects,

		Profiles: s.profiles.Profiles(),
		Runtime:  telemetry.ReadRuntime(),
	}
	st.Machines = len(st.Profiles)
	// Shed rate over everything offered: executed + refused.
	if offered := snap.EngineJobs + snap.EngineQueueRejects; offered > 0 {
		st.ShedRate = float64(snap.EngineQueueRejects) / float64(offered)
	}
	// The export half of the observability stack, present only when
	// sampling or OTLP export is switched on.
	if s.sampler != nil || s.exporter != nil {
		st.Observability = &serverapi.Observability{}
		if s.sampler != nil {
			ss := s.sampler.Stats()
			st.Observability.Sampler = &ss
		}
		if s.exporter != nil {
			es := s.exporter.Stats()
			st.Observability.Exporter = &es
		}
	}
	return st
}

func (s *server) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/status")
		return
	}
	writeJSON(w, s.status())
}

// saveProfilesLoop persists the perf profiles every interval until ctx
// ends — the crash-resilience half of the persistence story (clean
// shutdowns flush via Close). No-op without a plan directory.
func (s *server) saveProfilesLoop(done <-chan struct{}, interval time.Duration) {
	if s.profiles.Dir() == "" || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if err := s.profiles.SaveAll(); err != nil {
				s.log.Warn("persisting perf profiles", "err", err)
			}
		}
	}
}
