package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/regex"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/workload"
)

// The sustained experiment is the serving-path benchmark the figure
// experiments cannot be: instead of measuring one kernel in a tight
// loop, it offers an open-loop request stream — fixed rate, mixed
// machines, mixed input lengths — against the batch engine for a fixed
// wall-clock duration, exactly the shape fsmserve sees. Open loop
// matters: a closed loop slows its offered load down when the system
// slows down, hiding saturation; an open loop keeps offering, so
// queueing, shedding, and tail latency become visible. The result is a
// schema-versioned JSON report (BENCH_PR8.json at the repo root is the
// committed trajectory point) that `fsmbench -compare` diffs across
// commits, at -compare-threshold tolerance.

// benchSchemaVersion versions the sustained-report JSON; the
// comparator refuses to diff reports whose schemas it does not
// understand.
const benchSchemaVersion = 1

// regressionGate is the default throughput-drop fraction beyond which
// `fsmbench -compare` fails: 15%, wide enough to absorb shared-runner
// noise, tight enough to catch a real serving-path regression.
// -compare-threshold overrides it (CI's same-runner two-pass gate
// runs at 25%).
const regressionGate = 0.15

// sustainedMachine is one machine's row in the report: per-strategy
// observed kernel throughput and convergence behavior, from the
// per-machine perf profiles. The adaptive-selection fields (lane,
// reason, speculation counters) are additive: old reports simply omit
// them, so the schema version is unchanged.
type sustainedMachine struct {
	Name                  string  `json:"name"`
	Strategy              string  `json:"strategy"`
	Jobs                  int64   `json:"jobs"`
	ThroughputBytesPerSec float64 `json:"throughput_bytes_per_sec"`
	// SingleGBPerS / MulticoreGBPerS / SpeculativeGBPerS are the
	// per-lane kernel rates in GB/s (0 when the lane ran nothing).
	SingleGBPerS      float64 `json:"single_gb_per_s"`
	MulticoreGBPerS   float64 `json:"multicore_gb_per_s"`
	SpeculativeGBPerS float64 `json:"speculative_gb_per_s,omitempty"`
	ConvergenceRate   float64 `json:"convergence_rate"`
	LatencyP99Ns      int64   `json:"latency_p99_ns"`
	// Lane and SelectionReason record where the adaptive selector left
	// this machine's large-input dispatch at the end of the run.
	Lane            string `json:"lane,omitempty"`
	SelectionReason string `json:"selection_reason,omitempty"`
	// Speculation outcome counters, non-zero only when the speculative
	// lane ran.
	SpecChunks      int64   `json:"spec_chunks,omitempty"`
	SpecMispredicts int64   `json:"spec_mispredicts,omitempty"`
	MispredictRate  float64 `json:"mispredict_rate,omitempty"`
	// Transduce-experiment rates (also additive): how fast the lane
	// emits token spans and how many input bytes those spans cover per
	// second. Zero in sustained reports, which time acceptance only.
	SpansPerSec       float64 `json:"spans_per_sec,omitempty"`
	OutputBytesPerSec float64 `json:"output_bytes_per_sec,omitempty"`
}

// sustainedReport is the emitted JSON document.
type sustainedReport struct {
	Schema int `json:"schema"`
	// Config echoes the knobs so trajectory points are comparable.
	DurationSec float64 `json:"duration_sec"`
	TargetRPS   int     `json:"target_rps"`
	Seed        int64   `json:"seed"`
	Workers     int     `json:"workers"`
	Procs       int     `json:"procs"`

	// Open-loop accounting: Offered = Completed + Shed (+ still-queued
	// jobs drained at the end, which count as completed).
	Offered   int64   `json:"offered"`
	Completed int64   `json:"completed"`
	Errors    int64   `json:"errors"`
	Shed      int64   `json:"shed"`
	ShedRate  float64 `json:"shed_rate"`

	Bytes                 int64   `json:"bytes"`
	AchievedRPS           float64 `json:"achieved_rps"`
	ThroughputBytesPerSec float64 `json:"throughput_bytes_per_sec"`

	LatencyP50Ns   int64 `json:"latency_p50_ns"`
	LatencyP90Ns   int64 `json:"latency_p90_ns"`
	LatencyP99Ns   int64 `json:"latency_p99_ns"`
	QueueHighWater int64 `json:"queue_high_water"`

	Machines []sustainedMachine        `json:"machines"`
	Runtime  telemetry.RuntimeSnapshot `json:"runtime"`
}

// sustainedPatterns mixes machine sizes: the small IDS rules fsmserve
// defaults to plus a larger alternation whose DFA stresses the
// enumerative lanes harder.
var sustainedPatterns = []struct{ name, pat string }{
	{"sqli", `UNION\s+SELECT`},
	{"traversal", `\.\./\.\./`},
	{"cgi", `/cgi-bin/.*\.(pl|sh)`},
	{"exfil", `(passwd|shadow|secret|token|credential)s?\.(txt|db|key)`},
}

// sustained runs the open-loop load generator and writes the report to
// -bench-out.
func sustained(opt *options) {
	header(fmt.Sprintf("sustained — open-loop serving load (%v at %d req/s)", opt.duration, opt.rps))
	rep, err := runSustained(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sustained: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%-9s %9s %6s %6s %9s %10s %9s %10s %10s %10s\n",
		"offered", "completed", "err", "shed", "shed%", "MB", "MB/s", "p50(ms)", "p90(ms)", "p99(ms)")
	fmt.Printf("%-9d %9d %6d %6d %9.2f %10.1f %9.1f %10.3f %10.3f %10.3f\n",
		rep.Offered, rep.Completed, rep.Errors, rep.Shed, rep.ShedRate*100,
		float64(rep.Bytes)/1e6, rep.ThroughputBytesPerSec/1e6,
		float64(rep.LatencyP50Ns)/1e6, float64(rep.LatencyP90Ns)/1e6, float64(rep.LatencyP99Ns)/1e6)
	fmt.Printf("\n%-12s %-12s %-12s %8s %12s %12s %12s %8s\n",
		"machine", "strategy", "lane", "jobs", "single GB/s", "multi GB/s", "conv rate", "p99(ms)")
	for _, m := range rep.Machines {
		fmt.Printf("%-12s %-12s %-12s %8d %12.2f %12.2f %12.2f %8.3f\n",
			m.Name, m.Strategy, m.Lane, m.Jobs, m.SingleGBPerS, m.MulticoreGBPerS,
			m.ConvergenceRate, float64(m.LatencyP99Ns)/1e6)
		if m.SelectionReason != "" {
			fmt.Printf("%-12s   selection: %s\n", "", m.SelectionReason)
		}
	}

	if opt.benchOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sustained: encoding report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(opt.benchOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sustained: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote sustained bench report to %s\n", opt.benchOut)
	}
}

// runSustained drives the engine and assembles the report.
func runSustained(opt *options) (*sustainedReport, error) {
	if opt.rps <= 0 {
		return nil, fmt.Errorf("bad -rps %d", opt.rps)
	}
	if opt.duration <= 0 {
		return nil, fmt.Errorf("bad -duration %v", opt.duration)
	}
	met := new(telemetry.Metrics)
	profiles := perfprofile.NewStore("")
	eng := engine.New(
		engine.WithTelemetry(met),
		engine.WithProcs(opt.procs),
		engine.WithPerfProfiles(profiles),
	)
	defer eng.Close()
	// -strategy restricts the whole run to one strategy; "auto" (or
	// absence) lets compile-time selection and the adaptive layer pick.
	var regOpts []core.Option
	if opt.strategy != "" {
		s, _ := core.ParseStrategy(opt.strategy) // validated in main
		regOpts = append(regOpts, core.WithStrategy(s))
	}
	for _, p := range sustainedPatterns {
		d, err := regex.Compile(p.pat, regex.Options{})
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %v", p.name, err)
		}
		if _, err := eng.Register(p.name, d, regOpts...); err != nil {
			return nil, fmt.Errorf("register %q: %v", p.name, err)
		}
	}

	// Mixed input lengths: mostly small requests, a medium tier, and an
	// occasional large body that crosses the multicore threshold — the
	// size mix a front door actually sees. Generated once, reused
	// round-robin, so generation cost stays off the load path.
	inputs := [][]byte{
		workload.HTTPTraffic(opt.seed+80, 2<<10),
		workload.HTTPTraffic(opt.seed+81, 16<<10),
		workload.HTTPTraffic(opt.seed+82, 128<<10),
		workload.HTTPTraffic(opt.seed+83, eng.LargeInput()+(1<<20)),
	}
	// Weighted pick: index into this table by offered-count modulus.
	// 12 of 16 small, 2 medium, 1 large-ish, 1 multicore.
	mix := []int{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 1, 0, 3}

	var offered, shed int64
	var completed, errored int64
	var bytesDone int64
	out := make(chan engine.Result, 4*opt.rps+1024)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for r := range out {
			if r.Err != nil {
				errored++
				continue
			}
			completed++
			bytesDone += int64(r.Bytes)
		}
	}()

	interval := time.Second / time.Duration(opt.rps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	deadline := time.NewTimer(opt.duration)
	t0 := time.Now()
	ctx := context.Background()
loop:
	for {
		select {
		case <-deadline.C:
			break loop
		case <-ticker.C:
			job := engine.Job{
				Machine: sustainedPatterns[offered%int64(len(sustainedPatterns))].name,
				Input:   inputs[mix[offered%int64(len(mix))]],
			}
			offered++
			// Open loop: never block on backpressure. A full queue is a
			// shed request, which is itself a measurement.
			if err := eng.TrySubmit(ctx, job, int(offered), out); err != nil {
				shed++
			}
		}
	}
	ticker.Stop()
	elapsed := time.Since(t0)

	// Drain: finish everything still queued, then stop the collector.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = eng.Shutdown(sctx)
	close(out)
	<-collectorDone

	snap := met.Snapshot()
	rep := &sustainedReport{
		Schema:      benchSchemaVersion,
		DurationSec: elapsed.Seconds(),
		TargetRPS:   opt.rps,
		Seed:        opt.seed,
		Workers:     eng.Workers(),
		Procs:       eng.Procs(),

		Offered:   offered,
		Completed: completed,
		Errors:    errored,
		Shed:      shed,

		Bytes:          bytesDone,
		LatencyP50Ns:   snap.EngineJobLatencyP50,
		LatencyP90Ns:   snap.EngineJobLatencyP90,
		LatencyP99Ns:   snap.EngineJobLatencyP99,
		QueueHighWater: snap.EngineQueueHighWater,
		Runtime:        telemetry.ReadRuntime(),
	}
	if offered > 0 {
		rep.ShedRate = float64(shed) / float64(offered)
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(completed) / elapsed.Seconds()
		rep.ThroughputBytesPerSec = float64(bytesDone) / elapsed.Seconds()
	}
	for _, p := range profiles.Profiles() {
		m := sustainedMachine{
			Name:                  p.Machine,
			Strategy:              p.Strategy,
			Jobs:                  p.Jobs,
			ThroughputBytesPerSec: p.ThroughputBytesPerSec,
			ConvergenceRate:       p.ConvergenceRate,
			LatencyP99Ns:          p.LatencyP99Ns,
			SpecChunks:            p.SpecChunks,
			SpecMispredicts:       p.SpecMispredicts,
			MispredictRate:        p.MispredictRate,
		}
		if ls, ok := p.Lanes[engine.LaneSingle]; ok {
			m.SingleGBPerS = ls.BytesPerSec / 1e9
		}
		if ls, ok := p.Lanes[engine.LaneMulticore]; ok {
			m.MulticoreGBPerS = ls.BytesPerSec / 1e9
		}
		if ls, ok := p.Lanes[engine.LaneSpeculative]; ok {
			m.SpeculativeGBPerS = ls.BytesPerSec / 1e9
		}
		// Where the adaptive selector left this machine's dispatch.
		if em := eng.Machine(p.Machine); em != nil {
			sel := em.Selection()
			m.Lane, m.SelectionReason = sel.Lane, sel.Reason
		}
		rep.Machines = append(rep.Machines, m)
	}
	return rep, nil
}

// loadBenchReport reads and schema-checks one report.
func loadBenchReport(path string) (*sustainedReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep sustainedReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Schema != benchSchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this fsmbench speaks %d", path, rep.Schema, benchSchemaVersion)
	}
	return &rep, nil
}

// compareReports diffs two sustained reports and returns an error when
// the new one's throughput regressed by more than threshold (a
// fraction: 0.15 = 15%). Improvements and sub-threshold noise pass.
// The comparison is bytes/sec, the single number the whole benchmark
// exists to track; latency and shed rate are printed for the human but
// do not gate, since they move with machine load far more than the
// kernel does.
func compareReports(oldPath, newPath string, threshold float64) error {
	oldRep, err := loadBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadBenchReport(newPath)
	if err != nil {
		return err
	}
	o, n := oldRep.ThroughputBytesPerSec, newRep.ThroughputBytesPerSec
	fmt.Printf("throughput: %.1f MB/s -> %.1f MB/s", o/1e6, n/1e6)
	var delta float64
	if o > 0 {
		delta = (n - o) / o
		fmt.Printf(" (%+.1f%%)", delta*100)
	}
	fmt.Printf("\nlatency p99: %.3f ms -> %.3f ms\n",
		float64(oldRep.LatencyP99Ns)/1e6, float64(newRep.LatencyP99Ns)/1e6)
	fmt.Printf("shed rate: %.2f%% -> %.2f%%\n", oldRep.ShedRate*100, newRep.ShedRate*100)

	// Advisory per-machine diff: strategy/lane flips and kernel-rate
	// movement are printed for the human but never gate — the adaptive
	// selector is allowed to change its mind between commits.
	// Rows pair up by (name, lane): transduce reports carry one row per
	// lane under a single machine name. A name with exactly one old row
	// still matches across a lane flip, so sustained's lane advisories
	// keep firing.
	oldMachines := make(map[string][]sustainedMachine, len(oldRep.Machines))
	for _, m := range oldRep.Machines {
		oldMachines[m.Name] = append(oldMachines[m.Name], m)
	}
	for _, m := range newRep.Machines {
		var om sustainedMachine
		ok := false
		for _, c := range oldMachines[m.Name] {
			if c.Lane == m.Lane {
				om, ok = c, true
				break
			}
		}
		if !ok && len(oldMachines[m.Name]) == 1 {
			om, ok = oldMachines[m.Name][0], true
		}
		if !ok {
			continue
		}
		if om.Strategy != m.Strategy {
			fmt.Printf("advisory: %s strategy %s -> %s\n", m.Name, om.Strategy, m.Strategy)
		}
		if om.Lane != m.Lane && (om.Lane != "" || m.Lane != "") {
			fmt.Printf("advisory: %s lane %q -> %q\n", m.Name, om.Lane, m.Lane)
		}
		if om.ThroughputBytesPerSec > 0 && m.ThroughputBytesPerSec > 0 {
			d := (m.ThroughputBytesPerSec - om.ThroughputBytesPerSec) / om.ThroughputBytesPerSec
			if d < -threshold || d > threshold {
				fmt.Printf("advisory: %s throughput %+.1f%%\n", m.Name, d*100)
			}
		}
	}

	if o > 0 && delta < -threshold {
		return fmt.Errorf("throughput regression %.1f%% exceeds the %.0f%% gate", -delta*100, threshold*100)
	}
	return nil
}
