// Command perfbench is dpfsm's end-to-end benchmark. Each run starts a
// fresh fsmserve with default flags on a patterns file generated from
// the seed, drives its HTTP API over loopback with one workload, checks
// every answer against the scalar oracle, and prints one JSON result
// line. With -trace 1 it instead runs the traced pass: client-side
// spans on each request plus in-process replays of the same jobs
// through each layer's public functions, reported as per-layer
// metrics. See README.md for the workloads and metrics.
//
// Usage (normally through run.py, which builds both binaries):
//
//	perfbench -server PATH/fsmserve -workdir DIR -workload ids-run -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workload parameters. idsRate is the open-loop rate of ids-run,
// about a third of the closed-loop /v1/run capacity with two
// connections on a 2-core host.
const (
	idsRate     = 3000.0
	setupStarts = 5
)

// warmRounds large jobs per machine carry the adaptive selector past
// its cold start: the first re-selection (EvalEvery jobs), the 1-in-8
// speculative probes until MinSamples are observed, and the
// re-selection that weighs them.
const warmRounds = 96

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string
	workdir  string
	root     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the self-describing record written beside each run.
type report struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Server     []string  `json:"server_flags"`
	Rules      int       `json:"rules"`
	Conns      int       `json:"connections"`
	Loop       string    `json:"loop"`
	Offered    int64     `json:"offered"`
	Completed  int64     `json:"completed"`
	Failed     int64     `json:"failed"`
	Shed       int64     `json:"shed"`
	Wrong      int64     `json:"wrong"`
	FirstError string    `json:"first_error,omitempty"`
	Setups     []float64 `json:"setup_s"`
	// The latency percentiles timed from the due time on the open loop
	// (from the send elsewhere). They are reported but not bound: on a
	// shared 2-core host a stall of the host backs up every request due
	// during it, so these follow the host's scheduling more than the
	// code under test.
	LatencyP50 float64 `json:"latency_from_due_p50_ms,omitempty"`
	LatencyP99 float64 `json:"latency_p99_ms,omitempty"`
	// GenLateP99 is how late the open-loop generator woke for the ops
	// it slept for.
	GenLateP99 float64           `json:"gen_late_p99_ms,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass with per-layer metrics")
	flag.StringVar(&o.server, "server", "", "fsmserve binary")
	flag.StringVar(&o.workdir, "workdir", "", "directory for generated files and reports")
	flag.StringVar(&o.root, "root", ".", "repository checkout (for the commit id)")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.server == "" || o.workdir == "" || o.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -server, -workdir, -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spec describes how one workload loads the server.
type spec struct {
	conns int
	rate  float64 // open-loop rate; 0 = closed loop
	// build makes the timed ops and the warm-up ops; nil warm-up ops
	// mean one second of the timed load.
	build func(b *bench) (ops, warm []op, err error)
}

var workloads = map[string]spec{
	"ids-run": {conns: 2, rate: idsRate, build: func(b *bench) ([]op, []op, error) {
		return runOps(b.pool()), nil, nil
	}},
	"bulk-scan": {conns: 1, build: func(b *bench) ([]op, []op, error) {
		s := b.bulk()
		var warm []op
		for r := 0; r < warmRounds; r++ {
			warm = append(warm, runOps(s.Warm)...)
		}
		return runOps(s.Cycle), warm, nil
	}},
	"tokenize": {conns: 1, build: func(b *bench) ([]op, []op, error) {
		s := b.tok()
		warm := make([]tokJob, warmRounds)
		for i := range warm {
			warm[i] = s.Warm
		}
		return tokOps(s.Cycle), tokOps(warm), nil
	}},
	"ids-batch": {conns: 2, build: func(b *bench) ([]op, []op, error) {
		bs, err := idsBatches(b.pool())
		if err != nil {
			return nil, nil, err
		}
		return batchOps(bs), nil, nil
	}},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench holds one run's generated inputs, built lazily so a workload
// generates only what it (and, when traced, the layer probes) uses.
type bench struct {
	seed    int64
	workdir string
	rules   []rule
	ids     []runJob
	bulkS   *bulkSet
	bulkM   []*rule
	tokS    *tokSet
	report  *report
}

func (b *bench) pool() []runJob {
	if b.ids == nil {
		b.ids = idsPool(b.seed, b.rules)
	}
	return b.ids
}

func (b *bench) machines() []*rule {
	if b.bulkM == nil {
		b.bulkM = bulkMachines(b.rules)
	}
	return b.bulkM
}

func (b *bench) bulk() *bulkSet {
	if b.bulkS == nil {
		s := bulkInputs(b.seed, b.machines())
		b.bulkS = &s
	}
	return b.bulkS
}

func (b *bench) tok() *tokSet {
	if b.tokS == nil {
		s := tokInputs(b.seed)
		b.tokS = &s
	}
	return b.tokS
}

func run(ctx context.Context, o options) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	rules, err := genRules(o.seed)
	if err != nil {
		return nil, err
	}
	patterns := filepath.Join(o.workdir, fmt.Sprintf("patterns-seed%d.txt", o.seed))
	if err := writePatterns(patterns, rules); err != nil {
		return nil, err
	}
	w := workloads[o.workload]
	b := &bench{seed: o.seed, workdir: o.workdir, rules: rules}
	ops, warm, err := w.build(b)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID(o.root), Server: serverArgs("127.0.0.1:PORT", filepath.Base(patterns)),
		Rules: len(rules), Conns: w.conns, Loop: "closed",
	}
	if w.rate > 0 {
		rep.Loop = fmt.Sprintf("open, %.0f req/s", w.rate)
	}
	b.report = rep

	// Set-up time: spawn → /readyz 200, median over several starts; the
	// last server started carries the run.
	var srv *server
	defer func() { srv.stop() }()
	for i := 0; i < setupStarts; i++ {
		s, setup, err := startServer(ctx, o.server, patterns)
		if err != nil {
			return nil, err
		}
		rep.Setups = append(rep.Setups, setup.Seconds())
		if i < setupStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}

	c := newClient(srv.base, w.conns)
	defer c.close()
	if err := warmUp(ctx, c, w, ops, warm); err != nil {
		return nil, err
	}
	// Collect the set-up's garbage (inputs, oracle runs) now, so the
	// generator does not do it on the cores it shares with fsmserve
	// while the window is timed.
	runtime.GC()

	dur := time.Duration(o.seconds * float64(time.Second))
	var metrics map[string]metric
	var st *loadStats
	if o.trace {
		metrics, st, err = tracedPass(ctx, b, srv, c, w, ops, dur)
	} else {
		metrics, st, err = untracedPass(ctx, srv, c, w, ops, dur, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Offered, rep.Failed, rep.Shed, rep.Wrong = st.offered, st.failed, st.shed, st.wrong
	rep.Completed = st.offered - st.failed - st.shed
	if st.firstErr != nil {
		rep.FirstError = st.firstErr.Error()
	}
	rep.Metrics = metrics
	writeReport(o, rep)
	return &result{
		Correct:   st.wrong == 0,
		Attempted: st.offered,
		Failed:    st.failed + st.shed,
		Metrics:   metrics,
	}, nil
}

// warmUp runs the warm-up ops (checked like timed ones) and, for the
// steady-state workloads, one second of the timed load itself.
func warmUp(ctx context.Context, c *client, w spec, ops, warm []op) error {
	if warm != nil {
		return sequential(ctx, c, warm)
	}
	if st := measure(ctx, c, w, ops, time.Second, false); st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %v", st.failed, st.offered, st.firstErr)
	}
	return nil
}

// measure runs the workload's load for dur.
func measure(ctx context.Context, c *client, w spec, ops []op, dur time.Duration, traced bool) *loadStats {
	if w.rate > 0 {
		return openLoop(ctx, c, ops, w.rate, dur, traced)
	}
	return closedLoop(ctx, c, ops, dur, traced)
}

// untracedPass measures the end-to-end metrics.
func untracedPass(ctx context.Context, srv *server, c *client, w spec, ops []op, dur time.Duration, rep *report) (map[string]metric, *loadStats, error) {
	cpu0, err := srv.procCPU()
	if err != nil {
		return nil, nil, err
	}
	st := measure(ctx, c, w, ops, dur, false)
	cpu1, err := srv.procCPU()
	if err != nil {
		return nil, nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, nil, err
	}
	var okBytes, okJobs int64
	for i := range st.samples {
		if st.samples[i].ok {
			okBytes += int64(st.samples[i].inBytes)
			okJobs += int64(st.samples[i].jobs)
		}
	}
	if okBytes == 0 {
		return nil, nil, fmt.Errorf("no op completed: %v", st.firstErr)
	}
	mb := float64(okBytes) / 1e6
	lat := latencies(st, func(s *sample) time.Duration { return s.latency })
	rtt := latencies(st, (*sample).roundTrip)
	ttfb := latencies(st, func(s *sample) time.Duration { return s.ttfb })
	rep.LatencyP50, rep.LatencyP99 = quantile(lat, 0.50), quantile(lat, 0.99)
	var late []float64
	for _, d := range st.late {
		late = append(late, ms(d))
	}
	rep.GenLateP99 = quantile(late, 0.99)
	m := map[string]metric{
		"setup_s":         {median(rep.Setups), "s"},
		"latency_p50_ms":  {quantile(rtt, 0.50), "ms"},
		"ttfb_p50_ms":     {quantile(ttfb, 0.50), "ms"},
		"throughput_mb_s": {mb / st.elapsed.Seconds(), "MB/s"},
		"jobs_s":          {float64(okJobs) / st.elapsed.Seconds(), "jobs/s"},
		"cpu_ms_per_mb":   {ms(cpu1-cpu0) / mb, "ms/MB"},
		"rss_peak_mb":     {rss, "MB"},
	}
	return m, st, nil
}

// commitID names the checkout's commit when it is a git repository.
func commitID(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// writeReport stores the run's self-describing report in the work
// directory and prints it, metric by metric, to standard output ahead
// of the result line.
func writeReport(o options, rep *report) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		name := fmt.Sprintf("report-%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)
		err = os.WriteFile(filepath.Join(o.workdir, name), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	fmt.Fprintf(os.Stdout, "%s seed=%d trace=%v nproc=%d gomaxprocs=%d %s commit=%s server=%q\n",
		rep.Workload, rep.Seed, rep.Trace, rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Commit, rep.Server)
	fmt.Fprintf(os.Stdout, "ops: offered=%d completed=%d failed=%d shed=%d wrong=%d\n",
		rep.Offered, rep.Completed, rep.Failed, rep.Shed, rep.Wrong)
	if rep.LatencyP99 > 0 {
		from := "send"
		if strings.HasPrefix(rep.Loop, "open") {
			from = "due time"
		}
		fmt.Fprintf(os.Stdout, "latency from the %s (reported, not bound): p50 %.4f ms, p99 %.4f ms\n", from, rep.LatencyP50, rep.LatencyP99)
	}
	if rep.GenLateP99 > 0 {
		fmt.Fprintf(os.Stdout, "generator lateness p99: %.4f ms\n", rep.GenLateP99)
	}
	if rep.FirstError != "" {
		fmt.Fprintln(os.Stdout, "first error:", rep.FirstError)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stdout, "  %-44s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}
