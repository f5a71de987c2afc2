package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dpfsm/internal/adaptive"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/telemetry"
)

// TestCloseMidBatchCountsEveryAnswer pins the job-counting rule: every
// Result the engine answers a submitted job with — run by a worker or
// failed with ErrClosed while still queued — is counted exactly once,
// in the telemetry and in the machine's profile, and a refused
// submission is not counted at all.
func TestCloseMidBatchCountsEveryAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := fsm.RandomConverging(rng, 32, 8, 6, 0.3)
	met := new(telemetry.Metrics)
	store := perfprofile.NewStore("")
	e := New(WithWorkers(1), WithQueueDepth(64), WithTelemetry(met), WithPerfProfiles(store))
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}

	// The one worker takes job 0 and blocks delivering it on out0, so
	// the rest stay queued until Close.
	ctx := context.Background()
	out0 := make(chan Result)
	if err := e.Submit(ctx, Job{Machine: "m", Input: d.RandomInput(rng, 64)}, 0, out0); err != nil {
		t.Fatal(err)
	}
	const queued = 32
	out := make(chan Result, queued)
	for i := 1; i <= queued; i++ {
		if err := e.Submit(ctx, Job{Machine: "m", Input: d.RandomInput(rng, 64)}, i, out); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	<-e.done // Close has stopped the pool; the worker is still delivering job 0
	results := []Result{<-out0}
	<-closed
	for i := 0; i < queued; i++ {
		results = append(results, <-out)
	}

	var failed, closedErrs int64
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
		if errors.Is(r.Err, ErrClosed) {
			closedErrs++
		}
	}
	if closedErrs == 0 {
		t.Fatal("Close failed no queued job; the test did not exercise the queue drain")
	}
	snap := met.Snapshot()
	if snap.EngineJobs != int64(len(results)) || snap.EngineJobErrors != failed {
		t.Errorf("telemetry counted %d jobs / %d errors, %d Results delivered with %d errors",
			snap.EngineJobs, snap.EngineJobErrors, len(results), failed)
	}
	p, _ := store.Profile("m")
	if p.Jobs != int64(len(results)) || p.Errors != failed {
		t.Errorf("profile counted %d jobs / %d errors, %d Results delivered with %d errors",
			p.Jobs, p.Errors, len(results), failed)
	}

	// Refusals are answered by the caller and are not engine jobs.
	if err := e.Submit(ctx, Job{Machine: "m"}, 0, out); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if _, st := e.RunBatch(ctx, []Job{{Machine: "m"}, {Machine: "m"}}); st.Jobs != 2 || st.Errors != 2 {
		t.Errorf("refused batch stats %+v", st)
	}
	if r := e.Run(ctx, Job{Machine: "m"}); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("Run after Close: %v", r.Err)
	}
	if got := met.Snapshot().EngineJobs; got != snap.EngineJobs {
		t.Errorf("refusals counted: EngineJobs %d -> %d", snap.EngineJobs, got)
	}
}

// TestSubmitRefusesDoneContext: a done context never enqueues, so a
// canceled batch is all refusals and no engine jobs.
func TestSubmitRefusesDoneContext(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	d := fsm.RandomConverging(rng, 16, 4, 4, 0.3)
	met := new(telemetry.Metrics)
	e := New(WithWorkers(2), WithTelemetry(met))
	defer e.Close()
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Machine: "m", Input: d.RandomInput(rng, 32)}
	}
	results, st := e.RunBatch(ctx, jobs)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if st.Jobs != len(jobs) || st.Canceled != len(jobs) || st.OK != 0 {
		t.Errorf("batch stats %+v", st)
	}
	if snap := met.Snapshot(); snap.EngineJobs != 0 || snap.EngineJobErrors != 0 {
		t.Errorf("refused submissions counted: jobs %d errors %d", snap.EngineJobs, snap.EngineJobErrors)
	}
}

// TestRecordViewsAgree runs single, multicore, speculative and
// transduce jobs and checks that the paper's figures of merit agree
// across the views folded from the job records: the per-machine
// profiles, the process-wide telemetry, and the Results themselves.
func TestRecordViewsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	met := new(telemetry.Metrics)
	store := perfprofile.NewStore("")
	e := New(WithWorkers(4), WithProcs(4), WithLargeInput(4096), WithTelemetry(met), WithPerfProfiles(store))
	defer e.Close()

	conv := fsm.RandomConverging(rng, 60, 8, 6, 0.3)
	if _, err := e.Register("conv", conv, core.WithStrategy(core.Convergence), core.WithMinChunk(512)); err != nil {
		t.Fatal(err)
	}
	rangeM := fsm.RandomConverging(rng, 40, 8, 4, 0.3)
	if _, err := e.Register("range", rangeM, core.WithStrategy(core.RangeCoalesced), core.WithMinChunk(512)); err != nil {
		t.Fatal(err)
	}
	spec, err := e.Register("spec", conv, core.WithMinChunk(512))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < adaptive.MinSamples; i++ {
		spec.Recorder().Observe(perfprofile.Job{Lane: LaneSpeculative, Bytes: 1 << 20, Exec: time.Millisecond})
	}
	if sel := spec.Reselect(); sel.Lane != adaptive.LaneSpeculative {
		t.Fatalf("could not force the speculative lane: %+v", sel)
	}
	tok := testTransducer(t, fsm.RandomPermutation(rng, 16, 4, 0.3))
	if _, err := e.RegisterTransducer("tok", tok, core.WithMinChunk(512)); err != nil {
		t.Fatal(err)
	}

	// The injected samples carry no core accounting; start from here.
	before := met.Snapshot()
	base := map[string]perfprofile.Profile{}
	for _, p := range store.Profiles() {
		base[p.Machine] = p
	}
	var sum core.DriveStats
	lanes := map[string]int{}
	note := func(r Result) {
		if r.Err != nil {
			t.Fatalf("%s job: %v", r.Machine, r.Err)
		}
		lanes[r.Lane]++
		sum.Symbols += r.Stats.Symbols
		sum.Shuffles += r.Stats.Shuffles
		sum.FactorCalls += r.Stats.FactorCalls
		sum.FactorWins += r.Stats.FactorWins
	}
	ctx := context.Background()
	cancelable, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, c := range []context.Context{ctx, cancelable} {
		for _, n := range []int{300, 40 << 10} {
			note(e.Run(c, Job{Machine: "conv", Input: conv.RandomInput(rng, n)}))
			note(e.Run(c, Job{Machine: "range", Input: rangeM.RandomInput(rng, n)}))
			note(e.Run(c, Job{Machine: "spec", Input: conv.RandomInput(rng, n)}))
			note(e.Transduce(c, Job{Machine: "tok", Input: tok.DFA().RandomInput(rng, n)}).Result)
		}
	}
	results, _ := e.RunBatch(ctx, []Job{
		{Machine: "conv", Input: conv.RandomInput(rng, 1000)},
		{Machine: "range", Input: rangeM.RandomInput(rng, 9000)},
	})
	for _, r := range results {
		note(r)
	}
	for _, lane := range []string{LaneSingle, LaneMulticore, LaneSpeculative} {
		if lanes[lane] == 0 {
			t.Fatalf("no job took the %s lane: %v", lane, lanes)
		}
	}
	if sum.Shuffles == 0 || sum.FactorCalls == 0 {
		t.Fatalf("no accounting in the Results: %+v", sum)
	}

	after := met.Snapshot()
	var prof core.DriveStats
	for _, p := range store.Profiles() {
		b := base[p.Machine]
		prof.Symbols += p.Symbols - b.Symbols
		prof.Shuffles += p.Shuffles - b.Shuffles
		prof.FactorCalls += p.FactorCalls - b.FactorCalls
		prof.FactorWins += p.FactorWins - b.FactorWins
	}
	tel := core.DriveStats{
		Symbols:     after.Symbols - before.Symbols,
		Shuffles:    after.Shuffles - before.Shuffles,
		FactorCalls: after.FactorCalls - before.FactorCalls,
		FactorWins:  after.FactorWins - before.FactorWins,
	}
	if prof != sum || tel != sum {
		t.Errorf("views disagree:\n results   %+v\n profiles  %+v\n telemetry %+v", sum, prof, tel)
	}
}
