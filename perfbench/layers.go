package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/regex"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/speculative"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/workload"
)

// The traced pass. It serves half the window untraced and half with
// client-side spans on every request (request written, first response
// byte, last response byte), then stops the server
// and replays the same generated jobs in-process through each layer's
// public functions, timing every call. Spans stay in memory and are
// written to the work directory when the pass ends.

// probeTime bounds each in-process timing loop.
const probeTime = 250 * time.Millisecond

// span is one recorded interval of a traced request; spans of one
// request share Req, and Parent names the enclosing span.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"` // reported by the server, placed at the end of its parent
}

// probe accumulates per-layer metrics and fails on any answer that
// differs from the oracle.
type probe struct {
	m     map[string]metric
	wrong int64
	err   error
}

func (p *probe) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

func (p *probe) check(what string, got, want fsm.State) {
	if got != want {
		p.fail(fmt.Errorf("%w: %s: got final %d, want %d", errWrong, what, got, want))
	}
}

func (p *probe) checkSpans(what string, got, want []core.Span) {
	if !slices.Equal(got, want) {
		p.fail(fmt.Errorf("%w: %s: got %d spans, want %d", errWrong, what, len(got), len(want)))
	}
}

func (p *probe) fail(err error) {
	p.wrong++
	if p.err == nil {
		p.err = err
	}
}

// tracedPass measures half of dur untraced and half traced, stops the
// server, and returns the per-layer metrics.
func tracedPass(ctx context.Context, b *bench, srv *server, c *client, w spec, ops []op, dur time.Duration) (map[string]metric, *loadStats, error) {
	cpu0 := selfCPU()
	t0 := time.Now()
	plain := measure(ctx, c, w, ops, dur/2, false)
	traced := measure(ctx, c, w, ops, dur/2, true)
	clientShare := (selfCPU() - cpu0).Seconds() / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	srv.stop()

	p := &probe{m: map[string]metric{}}
	p.set("client.cpu_share", clientShare, "ratio")
	var late []float64
	for _, d := range append(plain.late, traced.late...) {
		late = append(late, ms(d))
	}
	p.set("client.gen_late_p99_ms", quantile(late, 0.99), "ms")

	plainP50 := median(latencies(plain, (*sample).roundTrip))
	tracedP50 := median(latencies(traced, (*sample).roundTrip))
	p.set("trace.overhead", tracedP50/plainP50-1, "ratio")
	p.set("fsmserve.upload_ms", median(durations(traced.samples, func(s *sample) time.Duration { return s.upload })), "ms")
	p.set("fsmserve.wait_ms", median(durations(traced.samples, func(s *sample) time.Duration { return s.wait })), "ms")
	p.set("fsmserve.download_ms", median(durations(traced.samples, func(s *sample) time.Duration { return s.download })), "ms")
	all := append(append([]sample(nil), plain.samples...), traced.samples...)
	var in, out int64
	for _, s := range all {
		in += int64(s.inBytes)
		out += int64(s.resp)
	}
	p.set("fsmserve.resp_bytes_per_in_byte", float64(out)/float64(in), "ratio")
	laneMetrics(p, all)

	// In-process replays of the workload's own requests.
	replay, err := engineReplay(b, ops, p)
	if err != nil {
		return nil, nil, err
	}
	var edge []float64
	for _, s := range plain.samples {
		if s.ok {
			edge = append(edge, us(s.roundTrip()-replay[s.key].wall))
		}
	}
	p.set("fsmserve.edge_us", median(edge), "us")
	layerShares(p, traced, replay)
	if err := writeSpans(b, traced); err != nil {
		return nil, nil, err
	}

	if err := layerProbes(b, p); err != nil {
		return nil, nil, err
	}
	st := &loadStats{
		samples:  all,
		offered:  plain.offered + traced.offered,
		failed:   plain.failed + traced.failed,
		shed:     plain.shed + traced.shed,
		wrong:    plain.wrong + traced.wrong + p.wrong,
		elapsed:  plain.elapsed + traced.elapsed,
		firstErr: cmp.Or(plain.firstErr, traced.firstErr, p.err),
	}
	return p.m, st, nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// laneMetrics reports the served lane mix and how often a machine's
// parallel-lane choice flipped between consecutive large requests.
func laneMetrics(p *probe, ss []sample) {
	var lanes [3]int
	total, flips := 0, 0
	last := map[string]string{}
	for _, s := range ss {
		if !s.ok {
			continue
		}
		for i, n := range s.lanes {
			lanes[i] += n
			total += n
		}
		if s.lane == engine.LaneMulticore || s.lane == engine.LaneSpeculative {
			if prev, ok := last[s.machine]; ok && prev != s.lane {
				flips++
			}
			last[s.machine] = s.lane
		}
	}
	for i, name := range []string{"single", "multicore", "speculative"} {
		p.set("engine.lane_share."+name, float64(lanes[i])/float64(max(total, 1)), "ratio")
	}
	p.set("engine.lane_flips", float64(flips), "count")
}

// replayTime is one request's in-process engine cost: wall time of
// the engine call(s) and the part of it outside the kernel.
type replayTime struct{ wall, overhead time.Duration }

// layerShares splits each traced request into layer self times —
// client queueing, the kernel time the server reported, engine
// dispatch outside the kernel (from the in-process replay of the same
// request), and the HTTP edge (upload, download, and the server time
// left) — and reports the breakdown of the typical request: the mean
// over requests between the 40th and 60th latency percentiles, as
// milliseconds and as shares of their end-to-end latency.
func layerShares(p *probe, st *loadStats, replay map[int]replayTime) {
	layers := []string{"client", "fsmserve", "engine", "core"}
	var all []float64
	for _, s := range st.samples {
		if s.ok {
			all = append(all, ms(s.latency))
		}
	}
	lo, hi := quantile(all, 0.4), quantile(all, 0.6)
	sums := make([]float64, len(layers))
	var n, e2e, rest float64
	for _, s := range st.samples {
		if !s.ok || ms(s.latency) < lo || ms(s.latency) > hi {
			continue
		}
		kernel := s.kernel
		if s.jobs > 1 {
			// A batch's jobs run on the engine's workers in parallel.
			kernel /= time.Duration(runtime.NumCPU())
		}
		eng := replay[s.key].overhead
		parts := []time.Duration{
			s.queue,
			s.upload + s.download + max(s.wait-kernel-eng, 0),
			eng,
			kernel,
		}
		left := s.latency
		for i, d := range parts {
			sums[i] += ms(d)
			left -= d
		}
		n++
		e2e += ms(s.latency)
		rest += ms(left)
	}
	n = max(n, 1)
	for i, name := range layers {
		p.set("layer."+name+".self_ms", sums[i]/n, "ms")
		p.set("layer."+name+".share", sums[i]/max(e2e, 1e-9), "ratio")
	}
	p.set("layer.unattributed_ms", rest/n, "ms")
	p.set("layer.unattributed_share", rest/max(e2e, 1e-9), "ratio")
}

// writeSpans writes the traced window's spans as JSON lines.
func writeSpans(b *bench, st *loadStats) error {
	f, err := os.Create(filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.report.Workload, b.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range st.samples {
		if !s.ok {
			continue
		}
		t := s.start.UnixNano()
		q := t + int64(s.queue)
		u := q + int64(s.upload)
		wt := u + int64(s.wait)
		end := t + int64(s.latency)
		for _, sp := range []span{
			{Req: i, Name: "request", StartNs: t, EndNs: end},
			{Req: i, Name: "client.queue", Parent: "request", StartNs: t, EndNs: q},
			{Req: i, Name: "fsmserve.upload", Parent: "request", StartNs: q, EndNs: u},
			{Req: i, Name: "fsmserve.wait", Parent: "request", StartNs: u, EndNs: wt},
			{Req: i, Name: "core.kernel", Parent: "fsmserve.wait", StartNs: wt - int64(s.kernel), EndNs: wt, Derived: true},
			{Req: i, Name: "fsmserve.download", Parent: "request", StartNs: wt, EndNs: end},
		} {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// newEngine builds an engine registered like fsmserve's: every rule
// under -strategy auto plus the htmltok transducer, with or without
// fsmserve's observability (telemetry + per-machine perf profiles).
func newEngine(rules []rule, obs bool) (*engine.Engine, error) {
	var opts []engine.Option
	if obs {
		opts = append(opts, engine.WithTelemetry(new(telemetry.Metrics)), engine.WithPerfProfiles(perfprofile.NewStore("")))
	}
	e := engine.New(opts...)
	for _, r := range rules {
		if _, err := e.Register(r.Name, r.DFA, core.WithStrategy(core.Auto)); err != nil {
			e.Close()
			return nil, err
		}
	}
	if _, err := e.RegisterTransducer(tokMachine, htmltok.NewTransducer(), core.WithStrategy(core.Auto)); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// engineReplay runs the workload's requests in-process on engines built
// like fsmserve's and returns each request key's engine time, the
// median of three replays. It also reports the engine-layer metrics
// over the workload's jobs.
func engineReplay(b *bench, ops []op, p *probe) (map[int]replayTime, error) {
	withObs, err := newEngine(b.rules, true)
	if err != nil {
		return nil, err
	}
	defer withObs.Close()
	bare, err := newEngine(b.rules, false)
	if err != nil {
		return nil, err
	}
	defer bare.Close()
	ctx := context.Background()

	// Each request key's in-process engine times over three replays.
	walls := map[int][]float64{}
	overheads := map[int][]float64{}
	var run, overhead, obsCost []float64
	note := func(key int, wall, kernel time.Duration) {
		walls[key] = append(walls[key], float64(wall))
		overheads[key] = append(overheads[key], float64(max(wall-kernel, 0)))
	}
	var jobs []runJob // acceptor jobs behind the workload's requests
	switch b.report.Workload {
	case "tokenize":
		for rep := 0; rep < 3; rep++ {
			for i, j := range b.tok().Cycle {
				t0 := time.Now()
				r := withObs.Transduce(ctx, engine.Job{Machine: tokMachine, Input: j.Input})
				d := time.Since(t0)
				p.check("engine.Transduce", r.Final, j.Final)
				p.checkSpans("engine.Transduce", r.Spans, j.Spans)
				note(i, d, r.Duration)
				run = append(run, us(d))
				overhead = append(overhead, us(d-r.Duration))
			}
		}
		jobs = b.pool()
	case "ids-batch":
		bs, err := idsBatches(b.pool())
		if err != nil {
			return nil, err
		}
		for rep := 0; rep < 3; rep++ {
			for i, bt := range bs {
				ej := make([]engine.Job, len(bt.Jobs))
				for k, j := range bt.Jobs {
					ej[k] = engine.Job{Machine: j.Rule.Name, Input: j.Input}
				}
				t0 := time.Now()
				rs, _ := withObs.RunBatch(ctx, ej)
				d := time.Since(t0)
				var kernel time.Duration
				for k, r := range rs {
					p.check("engine.RunBatch", r.Final, bt.Jobs[k].Final)
					kernel += r.Duration
				}
				note(i, d, kernel/time.Duration(withObs.Workers()))
			}
		}
		jobs = b.pool()
	default:
		for _, o := range ops {
			jobs = append(jobs, jobOf(b, o))
		}
		for rep := 0; rep < 3; rep++ {
			for i, o := range ops {
				j := jobs[i]
				t0 := time.Now()
				r := withObs.Run(ctx, engine.Job{Machine: j.Rule.Name, Input: j.Input})
				note(o.key, time.Since(t0), r.Duration)
				p.check("engine.Run", r.Final, j.Final)
			}
		}
	}

	// Per-job engine cost, with and without observability, interleaved
	// job by job so drift hits both sides alike.
	limit := len(jobs)
	if b.report.Workload == "bulk-scan" {
		limit = len(jobs) / 4 // one pass over the cycle's large jobs is seconds
	}
	for rep := 0; rep < 3; rep++ {
		for _, j := range jobs[:limit] {
			job := engine.Job{Machine: j.Rule.Name, Input: j.Input}
			t0 := time.Now()
			r := withObs.Run(ctx, job)
			d := time.Since(t0)
			t1 := time.Now()
			rb := bare.Run(ctx, job)
			db := time.Since(t1)
			p.check("engine.Run", r.Final, j.Final)
			p.check("engine.Run", rb.Final, j.Final)
			if b.report.Workload != "tokenize" {
				run = append(run, us(d))
				overhead = append(overhead, us(d-r.Duration))
			}
			obsCost = append(obsCost, us(d-db))
		}
	}
	p.set("engine.run_us", median(run), "us")
	p.set("engine.overhead_us", median(overhead), "us")
	p.set("engine.obs_us", median(obsCost), "us")

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, j := range jobs[:limit] {
		withObs.Run(ctx, engine.Job{Machine: j.Rule.Name, Input: j.Input})
	}
	runtime.ReadMemStats(&ms1)
	p.set("engine.allocs_per_job", float64(ms1.Mallocs-ms0.Mallocs)/float64(limit), "count")
	p.set("engine.alloc_bytes_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(limit), "B")

	// Queue wait: Submit → result, minus execution, for up to four
	// rounds of batchJobs jobs submitted at once as /v1/batch does.
	var qwait []float64
	for start := 0; start < len(jobs) && len(qwait) < 4*batchJobs; start += batchJobs {
		chunk := jobs[start:min(start+batchJobs, len(jobs))]
		out := make(chan engine.Result, len(chunk))
		sent := make([]time.Time, len(chunk))
		for i, j := range chunk {
			sent[i] = time.Now()
			if err := withObs.Submit(ctx, engine.Job{Machine: j.Rule.Name, Input: j.Input}, i, out); err != nil {
				return nil, err
			}
		}
		for range chunk {
			r := <-out
			qwait = append(qwait, us(time.Since(sent[r.Index])-r.Duration))
			p.check("engine.Submit", r.Final, chunk[r.Index].Final)
		}
	}
	p.set("engine.queue_wait_us.p50", quantile(qwait, 0.5), "us")
	p.set("engine.queue_wait_us.p99", quantile(qwait, 0.99), "us")
	replay := map[int]replayTime{}
	for key, ws := range walls {
		replay[key] = replayTime{time.Duration(median(ws)), time.Duration(median(overheads[key]))}
	}
	return replay, nil
}

// jobOf returns the acceptor job behind a /v1/run op.
func jobOf(b *bench, o op) runJob {
	if b.report.Workload == "bulk-scan" {
		return b.bulk().Cycle[o.key]
	}
	return b.pool()[o.key]
}

// timeLoop calls fn until probeTime has passed (at least once) and
// returns the mean time per call.
func timeLoop(fn func()) time.Duration {
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < probeTime {
		fn()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

// layerProbes times the kernel layers in-process on the seed's bulk
// machines, its HTTP and HTML inputs, and its rule set.
func layerProbes(b *bench, p *probe) error {
	nproc := runtime.NumCPU()
	machines := b.machines()
	body := workload.HTTPTraffic(b.seed+1, bulkSmall)
	want := make([]fsm.State, len(machines))
	for i, m := range machines {
		want[i] = newRunJob(m, body).Final
	}

	// core: single-core and multicore throughput per strategy.
	rate := func(procs int, strategy core.Strategy) (float64, error) {
		var bytes float64
		var dur time.Duration
		for i, m := range machines {
			if m.Strategy != strategy {
				continue
			}
			r, err := core.New(m.DFA, core.WithProcs(procs))
			if err != nil {
				return 0, err
			}
			var got fsm.State
			dur += timeLoop(func() { got = r.Final(body, m.DFA.Start()) })
			p.check("core.Final", got, want[i])
			bytes += float64(len(body))
		}
		return bytes / 1e6 / dur.Seconds(), nil
	}
	eff := 0.0
	for _, st := range []struct {
		name string
		s    core.Strategy
	}{{"range", core.RangeCoalesced}, {"convergence", core.Convergence}} {
		single, err := rate(1, st.s)
		if err != nil {
			return err
		}
		multi, err := rate(nproc, st.s)
		if err != nil {
			return err
		}
		p.set("core.single_mb_s."+st.name, single, "MB/s")
		p.set("core.multicore_mb_s."+st.name, multi, "MB/s")
		eff += multi / (float64(nproc) * single) / 2
	}
	p.set("core.parallel_efficiency", eff, "ratio")

	// core: small ids-run bodies on single-core runners.
	runners := map[string]*core.Runner{}
	var small []float64
	for _, j := range b.pool() {
		r := runners[j.Rule.Name]
		if r == nil {
			var err error
			if r, err = core.New(j.Rule.DFA, core.WithProcs(1)); err != nil {
				return err
			}
			runners[j.Rule.Name] = r
		}
		t0 := time.Now()
		got := r.Final(j.Input, j.Rule.DFA.Start())
		small = append(small, us(time.Since(t0)))
		p.check("core.Final small", got, j.Final)
	}
	p.set("core.small_us", median(small), "us")

	// core: transduction, and the replay's share of it, on the
	// tokenize workload's 4 MiB page.
	t := htmltok.NewTransducer()
	page := b.tok().Cycle[largePerMach]
	plan, err := core.CompileTransducer(t, core.WithStrategy(core.Auto))
	if err != nil {
		return err
	}
	tr, err := core.NewFromPlan(plan, core.WithProcs(nproc))
	if err != nil {
		return err
	}
	var spans []core.Span
	tSpans := timeLoop(func() { spans, _, err = tr.TransduceSpans(page.Input, t.DFA().Start()) })
	if err != nil {
		return err
	}
	p.checkSpans("core.TransduceSpans", spans, page.Spans)
	var final fsm.State
	tFinal := timeLoop(func() { final = tr.Final(page.Input, t.DFA().Start()) })
	p.check("core.Final page", final, page.Final)
	p.set("core.transduce_mb_s", float64(len(page.Input))/1e6/tSpans.Seconds(), "MB/s")
	p.set("core.replay_share", 1-tFinal.Seconds()/tSpans.Seconds(), "ratio")
	enc := json.NewEncoder(io.Discard)
	tEnc := timeLoop(func() {
		for _, sp := range spans {
			_ = enc.Encode(serverapi.TransduceSpan{Start: sp.Start, End: sp.End, Out: int(sp.Out)})
		}
	})
	p.set("fsmserve.encode_ns_per_span", float64(tEnc)/float64(max(len(spans), 1)), "ns")

	// §4.2 figures of merit per bulk machine: measured shuffles/symbol
	// from a telemetry runner beside the cost model's prediction.
	prefix := body[:warmBytes]
	var shuf, syms, pred, wins, calls float64
	for i, m := range machines {
		tel := new(telemetry.Metrics)
		r, err := core.New(m.DFA, core.WithProcs(1), core.WithTelemetry(tel))
		if err != nil {
			return err
		}
		r.Final(prefix, m.DFA.Start())
		snap := tel.Snapshot()
		prof := core.ProfileInput(m.DFA, prefix)
		predicted := prof.ConvPerSymbol()
		if m.Strategy == core.RangeCoalesced {
			predicted = prof.RangePerSymbol()
		}
		label := fmt.Sprintf("core.conv%d", i%2)
		if m.Strategy == core.RangeCoalesced {
			label = fmt.Sprintf("core.range%d", i%2)
		}
		p.set(label+".shuffles_per_symbol", snap.ShufflesPerSymbol, "count")
		p.set(label+".predicted_shuffles_per_symbol", predicted, "count")
		p.set(label+".convergence_rate", ratio(snap.FactorWins, snap.FactorCalls), "ratio")
		shuf += float64(snap.Shuffles)
		syms += float64(snap.Symbols)
		pred += predicted * float64(len(prefix))
		wins += float64(snap.FactorWins)
		calls += float64(snap.FactorCalls)
	}
	p.set("core.shuffles_per_symbol", shuf/syms, "count")
	p.set("core.predicted_shuffles_per_symbol", pred/float64(len(prefix)*len(machines)), "count")
	p.set("core.convergence_rate", wins/max(calls, 1), "ratio")

	// gather: one ⊗16,16 shuffle, and a blocked ⊗64,64 gather.
	var reg, tbl gather.Reg
	for i := range reg {
		reg[i], tbl[i] = byte(i), byte((i*7+3)%gather.Width)
	}
	const shuffles = 1 << 16
	p.set("gather.shuffle_ns", float64(timeLoop(func() {
		for k := 0; k < shuffles; k++ {
			reg = gather.Shuffle(reg, tbl)
		}
	}))/shuffles, "ns")
	s64, t64, dst := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	for i := range s64 {
		s64[i], t64[i] = byte((i*13)%64), byte((i*29+5)%64)
	}
	p.set("gather.simd_ns_per_elem", float64(timeLoop(func() { gather.SIMDInto(dst, s64, t64) }))/64, "ns")

	// speculative: throughput and useful work on the bulk machines.
	var specBytes float64
	var specDur time.Duration
	var chunks, mispredicts int
	for i, m := range machines {
		sr := speculative.New(m.DFA, nproc, body[:64<<10])
		var got fsm.State
		var stats speculative.Stats
		specDur += timeLoop(func() { got, stats = sr.Final(body, m.DFA.Start()) })
		p.check("speculative.Final", got, want[i])
		specBytes += float64(len(body))
		chunks += stats.Chunks
		mispredicts += stats.Misspeculated
	}
	p.set("speculative.mb_s", specBytes/1e6/specDur.Seconds(), "MB/s")
	p.set("speculative.useful_ratio", 1-float64(mispredicts)/float64(max(chunks, 1)), "ratio")

	// Compile path: what fsmserve does per patterns-file line.
	var tRegex, tPlan, tRound time.Duration
	for _, r := range b.rules {
		t0 := time.Now()
		d, err := regex.Compile(r.Pattern, regex.Options{})
		if err != nil {
			return err
		}
		t1 := time.Now()
		pl, err := core.CompilePlan(d, core.WithStrategy(core.Auto))
		if err != nil {
			return err
		}
		t2 := time.Now()
		data, err := pl.MarshalBinary()
		if err != nil {
			return err
		}
		back, err := core.UnmarshalPlan(data)
		if err != nil {
			return err
		}
		t3 := time.Now()
		if back.Fingerprint() != pl.Fingerprint() {
			return fmt.Errorf("plan round trip changed %s's fingerprint", r.Name)
		}
		tRegex += t1.Sub(t0)
		tPlan += t2.Sub(t1)
		tRound += t3.Sub(t2)
	}
	p.set("regex.compile_ms", ms(tRegex), "ms")
	p.set("core.compile_plan_ms", ms(tPlan), "ms")
	p.set("plan.roundtrip_ms", ms(tRound), "ms")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
