package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Exposition. Three surfaces, per the repo's observability contract:
//
//   - Snapshot() for programmatic use,
//   - expvar-compatible JSON (Metrics implements expvar.Var, so
//     Publish drops it into /debug/vars alongside the runtime's
//     memstats), and
//   - Prometheus text format (WritePrometheus / Handler) for
//     scrape-based collection.

// String renders the current Snapshot as JSON, implementing
// expvar.Var. Errors cannot occur: Snapshot is plain data.
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Publish registers m with the process-wide expvar registry under
// name, making it visible at /debug/vars. Unlike expvar.Publish it is
// idempotent: republishing the same name replaces silently only if the
// existing var is this m, and otherwise reports an error instead of
// panicking.
func (m *Metrics) Publish(name string) error {
	if m == nil {
		return fmt.Errorf("telemetry: cannot publish nil Metrics")
	}
	if v := expvar.Get(name); v != nil {
		if v == expvar.Var(m) {
			return nil
		}
		return fmt.Errorf("telemetry: expvar name %q already taken", name)
	}
	expvar.Publish(name, m)
	return nil
}

// promName prefixes every exposed series; a fixed prefix keeps the
// exposition collision-free when the process exports other families.
const promPrefix = "dpfsm_"

// WritePrometheus writes the Prometheus text exposition (version
// 0.0.4) of every metric. Histograms are exposed with their log₂
// bucket upper edges as `le` labels plus the conventional _sum and
// _count series.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	pc := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s%s %s\n# TYPE %s%s counter\n%s%s %d\n",
			promPrefix, name, help, promPrefix, name, promPrefix, name, v)
	}
	pg := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s%s %s\n# TYPE %s%s gauge\n%s%s %d\n",
			promPrefix, name, help, promPrefix, name, promPrefix, name, v)
	}

	pc("runs_total", "Runner entry-point executions", m.Runs.Load())
	pc("symbols_total", "input symbols consumed", m.Symbols.Load())
	pc("gathers_total", "gather kernel invocations", m.Gathers.Load())
	pc("shuffles_total", "emulated 16-lane shuffles (section 4.2 cost model)", m.Shuffles.Load())
	pc("factor_calls_total", "convergence checks issued", m.FactorCalls.Load())
	pc("factor_wins_total", "convergence checks that shrank the active vector", m.FactorWins.Load())
	pg("active_high_water", "widest enumerative vector observed", m.ActiveHighWater.Load())

	if sym := m.Symbols.Load(); sym > 0 {
		fmt.Fprintf(w, "# HELP %sshuffles_per_symbol live section-6.1 figure of merit\n# TYPE %sshuffles_per_symbol gauge\n%sshuffles_per_symbol %g\n",
			promPrefix, promPrefix, promPrefix,
			float64(m.Shuffles.Load())/float64(sym))
	}

	writeLabelCounters(w, "strategy_selected_total", "Runner constructions by resolved strategy", &m.StrategySelected)
	writeLabelCounters(w, "strategy_runs_total", "executions by strategy", &m.StrategyRuns)

	pc("stream_blocks_total", "stream blocks flushed", m.StreamBlocks.Load())
	pc("stream_bytes_total", "stream bytes consumed", m.StreamBytes.Load())

	pc("multicore_runs_total", "multicore (Figure 5) executions", m.MulticoreRuns.Load())
	pc("chunks_total", "multicore chunks processed", m.Chunks.Load())
	pc("phase3_skips_total", "accept-only runs that skipped phase 3", m.Phase3Skips.Load())

	pc("engine_jobs_total", "batch-engine jobs executed", m.EngineJobs.Load())
	pc("engine_job_errors_total", "batch-engine jobs that returned an error", m.EngineJobErrors.Load())
	pc("engine_canceled_total", "batch-engine jobs canceled", m.EngineCanceled.Load())
	pc("engine_batches_total", "batch-engine batch submissions", m.EngineBatches.Load())
	pc("engine_single_core_total", "jobs dispatched to the single-core lane", m.EngineSingleCore.Load())
	pc("engine_multicore_total", "jobs dispatched to the multicore lane", m.EngineMulticore.Load())
	pc("engine_transduce_total", "output-bearing (transduce) jobs executed", m.EngineTransduce.Load())
	pc("transduce_spans_total", "spans emitted by transduce jobs", m.TransduceSpans.Load())
	pc("transduce_output_bytes_total", "input bytes covered by emitted spans", m.TransduceOutputBytes.Load())
	pg("engine_queue_depth", "current bounded-queue occupancy", m.EngineQueueDepth.Load())
	pg("engine_queue_high_water", "deepest bounded-queue backlog observed", m.EngineQueueHighWater.Load())
	pc("engine_queue_rejects_total", "TrySubmit jobs refused because the queue was full", m.EngineQueueRejects.Load())

	writeHistogram(w, "engine_job_bytes", "input sizes of executed engine jobs", &m.EngineJobBytes)
	writeHistogram(w, "active_final", "active-state width at end of run", &m.ActiveFinal)
	writeHistogram(w, "chunk_bytes", "multicore chunk sizes", &m.ChunkBytes)
	writeHistogram(w, "phase1_ns", "per-chunk phase-1 wall time", &m.Phase1Time.Histogram)
	writeHistogram(w, "phase2_ns", "per-run phase-2 scan wall time", &m.Phase2Time.Histogram)
	writeHistogram(w, "phase3_ns", "per-chunk phase-3 wall time", &m.Phase3Time.Histogram)
	writeHistogramExemplars(w, "engine_job_ns", "engine job wall time", &m.EngineJobTime.Histogram, &m.EngineJobExemplars)
	writeHistogram(w, "plan_compile_ns", "plan compilation wall time", &m.PlanCompileTime.Histogram)

	// Sliding-window latency quantiles, in the summary-style
	// quantile-label convention. Gauges, not a summary: the window
	// forgets, so the values can move in both directions.
	if m.EngineJobLatency.Count() > 0 {
		lat := m.EngineJobLatency.Quantiles(0.5, 0.9, 0.99)
		fmt.Fprintf(w, "# HELP %sengine_job_latency_ns sliding-window engine job latency\n# TYPE %sengine_job_latency_ns gauge\n",
			promPrefix, promPrefix)
		for i, q := range []string{"0.5", "0.9", "0.99"} {
			fmt.Fprintf(w, "%sengine_job_latency_ns{quantile=\"%s\"} %d\n", promPrefix, q, lat[i])
		}
	}
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote, and newline only. strconv.Quote is NOT
// correct here — it escapes non-ASCII as \uXXXX, which Prometheus
// parsers read literally.
func escapeLabel(v string) string {
	var b []byte
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return string(b)
}

func writeLabelCounters(w io.Writer, name, help string, lc *LabelCounters) {
	labels := lc.labels()
	if len(labels) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s%s %s\n# TYPE %s%s counter\n", promPrefix, name, help, promPrefix, name)
	for _, l := range labels {
		fmt.Fprintf(w, "%s%s{strategy=\"%s\"} %d\n", promPrefix, name, escapeLabel(l), lc.Get(l).Load())
	}
}

func writeHistogram(w io.Writer, name, help string, h *Histogram) {
	writeHistogramExemplars(w, name, help, h, nil)
}

// writeHistogramExemplars writes a histogram, appending an OpenMetrics
// exemplar (" # {trace_id=\"…\"} value timestamp") to each bucket line
// that has one. By construction the exemplar store shares the
// histogram's bucket layout, so the exemplar value always satisfies
// the bucket's `le` bound as the OpenMetrics spec requires.
func writeHistogramExemplars(w io.Writer, name, help string, h *Histogram, ex *Exemplars) {
	count := h.Count()
	fmt.Fprintf(w, "# HELP %s%s %s\n# TYPE %s%s histogram\n", promPrefix, name, help, promPrefix, name)
	for _, b := range h.Buckets() {
		fmt.Fprintf(w, "%s%s_bucket{le=\"%d\"} %d", promPrefix, name, b.UpperEdge, b.Cumulative)
		writeExemplar(w, ex.Bucket(b.UpperEdge))
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s%s_bucket{le=\"+Inf\"} %d\n", promPrefix, name, count)
	fmt.Fprintf(w, "%s%s_sum %d\n", promPrefix, name, h.Sum())
	fmt.Fprintf(w, "%s%s_count %d\n", promPrefix, name, count)
}

func writeExemplar(w io.Writer, e *Exemplar) {
	if e == nil {
		return
	}
	sec := e.UnixNano / 1e9
	frac := e.UnixNano % 1e9
	if frac < 0 {
		frac = 0
	}
	fmt.Fprintf(w, " # {trace_id=\"%s\"} %d %d.%09d", escapeLabel(e.TraceID), e.Value, sec, frac)
}

// Handler returns an http.Handler serving the Prometheus text
// exposition of m. Scrapers that negotiate OpenMetrics (Accept:
// application/openmetrics-text) get the matching content type; the
// body is the same either way, with exemplars on the histogram bucket
// lines that have them.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ct := "text/plain; version=0.0.4; charset=utf-8"
		if req != nil && strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			ct = "application/openmetrics-text; version=1.0.0; charset=utf-8"
		}
		w.Header().Set("Content-Type", ct)
		m.WritePrometheus(w)
	})
}
