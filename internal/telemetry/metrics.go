package telemetry

// Metrics aggregates every quantity the FSM runtime reports about
// itself. One Metrics may be shared by any number of Runners, Streams
// and goroutines; all fields are independently atomic. A nil *Metrics
// disables collection everywhere it is threaded (core.WithTelemetry).
//
// The fields mirror the paper's evaluation quantities: Shuffles/Symbols
// is §6.1's "shuffle operations per input symbol", ActiveFinal and
// ActiveHighWater are Figure 7's convergence trajectory endpoints, and
// the Phase1/2/3 timers decompose Figure 5's multicore schedule.
type Metrics struct {
	// Runner counters.
	Runs    Counter // entry-point executions (Final/Run/CompositionVector/…)
	Symbols Counter // input symbols consumed
	Gathers Counter // gather kernel invocations (vector transition applications)
	// Shuffles counts emulated ⊗16,16 operations under the §4.2
	// blocked-construction cost model — the unit core.ProfileInput
	// replays offline, now accounted live.
	Shuffles    Counter
	FactorCalls Counter // convergence checks issued (§5.2 heuristics)
	FactorWins  Counter // checks that actually shrank the active vector

	// ActiveHighWater is the widest enumerative vector observed (the
	// state count n for convergence, the first-symbol range for range
	// coalescing); ActiveFinal is the per-run active width at the end
	// of the input — the paper's "converges to ≤16" claim is
	// ActiveFinal's distribution (Figure 7).
	ActiveHighWater MaxGauge
	ActiveFinal     Histogram

	// StrategySelected counts Runner constructions per resolved
	// strategy; StrategyRuns counts executions per strategy.
	StrategySelected LabelCounters
	StrategyRuns     LabelCounters

	// Stream counters.
	StreamBlocks Counter // blocks flushed through the batch runner
	StreamBytes  Counter // bytes consumed by flushed blocks

	// Multicore (Figure 5) phase accounting. Phase1Time and Phase3Time
	// observe per-chunk wall time from the worker goroutines;
	// Phase2Time observes the short sequential scan per run.
	MulticoreRuns Counter
	Chunks        Counter
	ChunkBytes    Histogram
	Phase1Time    Timer
	Phase2Time    Timer
	Phase3Time    Timer
	Phase3Skips   Counter // accept-/final-only runs that skipped phase 3 (§3.4)

	// Batch engine (internal/engine) counters. The engine multiplexes
	// many (machine, input) jobs over a bounded worker pool; these
	// series expose its dispatch policy and health.
	// EngineJobs counts each job the engine accepted exactly once, when
	// it answers with a Result: ran, failed, or ErrClosed while queued.
	// A refused call — a Submit/TrySubmit error, Run/Transduce after
	// Close — is not a job; its caller answers and counts it.
	EngineJobs      Counter
	EngineJobErrors Counter // jobs whose result carried an error
	EngineCanceled  Counter // jobs canceled before or during execution
	EngineBatches   Counter // batch submissions (RunBatch calls)
	// Dispatch-policy split: EngineSingleCore counts jobs routed to a
	// pool worker running the single-core strategy (batch-level
	// parallelism); EngineMulticore counts jobs large enough for the
	// Figure 5 phase1/phase2 split (input-level parallelism);
	// EngineSpeculative counts jobs the adaptive selector routed to the
	// speculative chunk-guessing lane (§7 / arXiv 1210.5093).
	EngineSingleCore  Counter
	EngineMulticore   Counter
	EngineSpeculative Counter
	// Transduction series: EngineTransduce counts output-bearing jobs
	// (Transduce calls), TransduceSpans the spans they emitted, and
	// TransduceOutputBytes the input bytes those spans cover — the
	// tokenizer's useful-work throughput as opposed to raw scan rate.
	EngineTransduce      Counter
	TransduceSpans       Counter
	TransduceOutputBytes Counter
	// Speculative-lane efficacy: chunks executed from a guessed start
	// state, guesses that turned out wrong, and bytes re-run scalar
	// after a mispredict. Mispredicts/SpecChunks is the live mispredict
	// rate the adaptive selector feeds back on.
	SpecChunks      Counter
	SpecMispredicts Counter
	SpecReRunBytes  Counter
	// EngineQueueDepth is the current bounded-queue occupancy;
	// EngineQueueHighWater is the deepest backlog ever observed. Depth
	// is the live backpressure signal (how close to shedding right
	// now), high-water the historical one.
	EngineQueueDepth     Gauge
	EngineQueueHighWater MaxGauge
	// EngineQueueRejects counts TrySubmit calls refused with
	// ErrQueueFull — load actually shed, as opposed to the blocking
	// backpressure Submit applies.
	EngineQueueRejects Counter
	EngineJobBytes     Histogram // input sizes of executed jobs
	// EngineJobTime is the all-time log₂ histogram of job wall time;
	// EngineJobLatency is the exact sliding-window view of the same
	// series, answering "what is p50/p90/p99 right now" after traffic
	// shifts the histogram cannot forget.
	EngineJobTime    Timer
	EngineJobLatency Window
	// EngineJobExemplars links EngineJobTime's latency buckets to the
	// trace IDs of recent jobs that landed in them (OpenMetrics
	// exemplars): the join between the aggregate layer and the flight
	// recorder. Only traced jobs record exemplars.
	EngineJobExemplars Exemplars

	// PlanCompileTime times each plan compile: the compiler step
	// (§6.1) every registration pays once.
	PlanCompileTime Timer

	// Cluster counters (cluster.Coordinator): the networked §3.4
	// decomposition. EngineCluster counts jobs the engine routed
	// through the cluster lane; the rest account the coordinator's
	// protocol traffic and its degradation paths.
	EngineCluster         Counter
	ClusterTasks          Counter // chunk tasks answered remotely
	ClusterTaskErrors     Counter // failed remote attempts
	ClusterRetries        Counter // re-sent attempts (after backoff)
	ClusterPlanShips      Counter // plans shipped to peers
	ClusterLocalFallbacks Counter // chunks degraded to local execution
	ClusterBreakerOpens   Counter // breaker closed→open transitions
	ClusterBreakerSkips   Counter // chunks that skipped a peer on an open breaker
	ClusterDegraded       Counter // jobs with at least one degraded chunk
}

// PhaseSnapshot summarizes one timer.
type PhaseSnapshot struct {
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
	MaxNs   int64   `json:"max_ns"`
	P99Ns   int64   `json:"p99_ns"`
}

func phaseSnapshot(t *Timer) PhaseSnapshot {
	return PhaseSnapshot{
		Count:   t.Count(),
		TotalNs: t.Sum(),
		MeanNs:  t.Mean(),
		MaxNs:   t.Max(),
		P99Ns:   t.Quantile(0.99),
	}
}

// Snapshot is a consistent-enough point-in-time copy of a Metrics:
// each field is read atomically, so totals may straddle a concurrent
// run but never tear. It is plain data, JSON-encodable.
type Snapshot struct {
	Runs    int64 `json:"runs"`
	Symbols int64 `json:"symbols"`
	Gathers int64 `json:"gathers"`

	Shuffles int64 `json:"shuffles"`
	// ShufflesPerSymbol is the live §6.1 figure of merit.
	ShufflesPerSymbol float64 `json:"shuffles_per_symbol"`

	FactorCalls int64 `json:"factor_calls"`
	FactorWins  int64 `json:"factor_wins"`

	ActiveHighWater int64   `json:"active_high_water"`
	ActiveFinalMean float64 `json:"active_final_mean"`
	ActiveFinalMax  int64   `json:"active_final_max"`

	StrategySelected map[string]int64 `json:"strategy_selected,omitempty"`
	StrategyRuns     map[string]int64 `json:"strategy_runs,omitempty"`

	StreamBlocks int64 `json:"stream_blocks"`
	StreamBytes  int64 `json:"stream_bytes"`

	MulticoreRuns int64         `json:"multicore_runs"`
	Chunks        int64         `json:"chunks"`
	ChunkBytesP50 int64         `json:"chunk_bytes_p50"`
	Phase1        PhaseSnapshot `json:"phase1"`
	Phase2        PhaseSnapshot `json:"phase2"`
	Phase3        PhaseSnapshot `json:"phase3"`
	Phase3Skips   int64         `json:"phase3_skips"`

	EngineJobs        int64 `json:"engine_jobs"`
	EngineJobErrors   int64 `json:"engine_job_errors"`
	EngineCanceled    int64 `json:"engine_canceled"`
	EngineBatches     int64 `json:"engine_batches"`
	EngineSingleCore  int64 `json:"engine_single_core"`
	EngineMulticore   int64 `json:"engine_multicore"`
	EngineSpeculative int64 `json:"engine_speculative"`
	EngineTransduce   int64 `json:"engine_transduce"`
	TransduceSpans    int64 `json:"transduce_spans"`
	// TransduceOutputBytes is the input bytes covered by emitted spans.
	TransduceOutputBytes int64 `json:"transduce_output_bytes"`
	SpecChunks           int64 `json:"spec_chunks"`
	SpecMispredicts      int64 `json:"spec_mispredicts"`
	SpecReRunBytes       int64 `json:"spec_rerun_bytes"`
	// SpecMispredictRate is SpecMispredicts/SpecChunks; 0 before any
	// speculative chunk ran.
	SpecMispredictRate   float64 `json:"spec_mispredict_rate"`
	EngineQueueDepth     int64   `json:"engine_queue_depth"`
	EngineQueueHighWater int64   `json:"engine_queue_high_water"`
	EngineQueueRejects   int64   `json:"engine_queue_rejects"`
	EngineJobBytesP50    int64   `json:"engine_job_bytes_p50"`

	EngineJobTime PhaseSnapshot `json:"engine_job_time"`
	// Sliding-window job latency (exact order statistics over the most
	// recent window, nanoseconds).
	EngineJobLatencyP50 int64 `json:"engine_job_latency_p50_ns"`
	EngineJobLatencyP90 int64 `json:"engine_job_latency_p90_ns"`
	EngineJobLatencyP99 int64 `json:"engine_job_latency_p99_ns"`

	PlanCompile PhaseSnapshot `json:"plan_compile"`

	EngineCluster         int64 `json:"engine_cluster"`
	ClusterTasks          int64 `json:"cluster_tasks"`
	ClusterTaskErrors     int64 `json:"cluster_task_errors"`
	ClusterRetries        int64 `json:"cluster_retries"`
	ClusterPlanShips      int64 `json:"cluster_plan_ships"`
	ClusterLocalFallbacks int64 `json:"cluster_local_fallbacks"`
	ClusterBreakerOpens   int64 `json:"cluster_breaker_opens"`
	ClusterBreakerSkips   int64 `json:"cluster_breaker_skips"`
	ClusterDegraded       int64 `json:"cluster_degraded"`
}

// Snapshot captures the current values. Nil-safe: returns the zero
// Snapshot on a nil Metrics.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Runs:             m.Runs.Load(),
		Symbols:          m.Symbols.Load(),
		Gathers:          m.Gathers.Load(),
		Shuffles:         m.Shuffles.Load(),
		FactorCalls:      m.FactorCalls.Load(),
		FactorWins:       m.FactorWins.Load(),
		ActiveHighWater:  m.ActiveHighWater.Load(),
		ActiveFinalMean:  m.ActiveFinal.Mean(),
		ActiveFinalMax:   m.ActiveFinal.Max(),
		StrategySelected: m.StrategySelected.Snapshot(),
		StrategyRuns:     m.StrategyRuns.Snapshot(),
		StreamBlocks:     m.StreamBlocks.Load(),
		StreamBytes:      m.StreamBytes.Load(),
		MulticoreRuns:    m.MulticoreRuns.Load(),
		Chunks:           m.Chunks.Load(),
		ChunkBytesP50:    m.ChunkBytes.Quantile(0.5),
		Phase1:           phaseSnapshot(&m.Phase1Time),
		Phase2:           phaseSnapshot(&m.Phase2Time),
		Phase3:           phaseSnapshot(&m.Phase3Time),
		Phase3Skips:      m.Phase3Skips.Load(),

		EngineJobs:           m.EngineJobs.Load(),
		EngineJobErrors:      m.EngineJobErrors.Load(),
		EngineCanceled:       m.EngineCanceled.Load(),
		EngineBatches:        m.EngineBatches.Load(),
		EngineSingleCore:     m.EngineSingleCore.Load(),
		EngineMulticore:      m.EngineMulticore.Load(),
		EngineSpeculative:    m.EngineSpeculative.Load(),
		EngineTransduce:      m.EngineTransduce.Load(),
		TransduceSpans:       m.TransduceSpans.Load(),
		TransduceOutputBytes: m.TransduceOutputBytes.Load(),
		SpecChunks:           m.SpecChunks.Load(),
		SpecMispredicts:      m.SpecMispredicts.Load(),
		SpecReRunBytes:       m.SpecReRunBytes.Load(),
		EngineQueueDepth:     m.EngineQueueDepth.Load(),
		EngineQueueHighWater: m.EngineQueueHighWater.Load(),
		EngineQueueRejects:   m.EngineQueueRejects.Load(),
		EngineJobBytesP50:    m.EngineJobBytes.Quantile(0.5),
		EngineJobTime:        phaseSnapshot(&m.EngineJobTime),

		PlanCompile: phaseSnapshot(&m.PlanCompileTime),

		EngineCluster:         m.EngineCluster.Load(),
		ClusterTasks:          m.ClusterTasks.Load(),
		ClusterTaskErrors:     m.ClusterTaskErrors.Load(),
		ClusterRetries:        m.ClusterRetries.Load(),
		ClusterPlanShips:      m.ClusterPlanShips.Load(),
		ClusterLocalFallbacks: m.ClusterLocalFallbacks.Load(),
		ClusterBreakerOpens:   m.ClusterBreakerOpens.Load(),
		ClusterBreakerSkips:   m.ClusterBreakerSkips.Load(),
		ClusterDegraded:       m.ClusterDegraded.Load(),
	}
	lat := m.EngineJobLatency.Quantiles(0.5, 0.9, 0.99)
	s.EngineJobLatencyP50, s.EngineJobLatencyP90, s.EngineJobLatencyP99 = lat[0], lat[1], lat[2]
	if s.Symbols > 0 {
		s.ShufflesPerSymbol = float64(s.Shuffles) / float64(s.Symbols)
	}
	if s.SpecChunks > 0 {
		s.SpecMispredictRate = float64(s.SpecMispredicts) / float64(s.SpecChunks)
	}
	return s
}
