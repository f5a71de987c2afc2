package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/telemetry"
)

// matrixStrategies is the full single-core strategy matrix the batch
// results must be bit-identical across.
var matrixStrategies = []core.Strategy{
	core.Sequential, core.Base, core.BaseILP,
	core.Convergence, core.RangeCoalesced, core.RangeConvergence,
}

// TestBatchMatchesSequentialReference runs a mixed-size batch through
// the engine under every strategy and checks every result against the
// sequential oracle — including inputs above the large-input threshold
// that take the multicore lane.
func TestBatchMatchesSequentialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	machines := map[string]*fsm.DFA{
		"small": fsm.RandomConverging(rng, 40, 8, 6, 0.3),
		"big":   fsm.RandomConverging(rng, 400, 8, 10, 0.3),
	}

	// Mixed sizes straddling the 4 KiB threshold set below, so both
	// dispatch lanes are exercised.
	sizes := []int{0, 1, 37, 512, 4096, 4097, 64 << 10}

	for _, strat := range matrixStrategies {
		met := new(telemetry.Metrics)
		e := New(
			WithWorkers(4),
			WithProcs(4),
			WithLargeInput(4096),
			WithTelemetry(met),
		)
		var jobs []Job
		type ref struct {
			final   fsm.State
			accepts bool
		}
		var want []ref
		for name, d := range machines {
			if _, err := e.Register(name, d, core.WithStrategy(strat), core.WithMinChunk(1<<10)); err != nil {
				t.Fatalf("%v: register %s: %v", strat, name, err)
			}
			for _, n := range sizes {
				input := d.RandomInput(rng, n)
				jobs = append(jobs, Job{Machine: name, Input: input})
				final := d.Run(input, d.Start())
				want = append(want, ref{final: final, accepts: d.Accepting(final)})
			}
		}
		results, stats := e.RunBatch(context.Background(), jobs)
		if len(results) != len(jobs) {
			t.Fatalf("%v: %d results for %d jobs", strat, len(results), len(jobs))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("%v job %d: %v", strat, i, r.Err)
				continue
			}
			if r.Final != want[i].final || r.Accepts != want[i].accepts {
				t.Errorf("%v job %d (%s, %d bytes): got (%d,%v) want (%d,%v)",
					strat, i, r.Machine, r.Bytes, r.Final, r.Accepts, want[i].final, want[i].accepts)
			}
		}
		if stats.OK != len(jobs) || stats.Errors != 0 {
			t.Errorf("%v: stats %+v", strat, stats)
		}
		if stats.Multicore == 0 || stats.SingleCore == 0 {
			t.Errorf("%v: dispatch policy never split: %+v", strat, stats)
		}
		snap := met.Snapshot()
		if snap.EngineJobs != int64(len(jobs)) {
			t.Errorf("%v: telemetry EngineJobs = %d, want %d", strat, snap.EngineJobs, len(jobs))
		}
		if snap.EngineSingleCore == 0 || snap.EngineMulticore == 0 {
			t.Errorf("%v: telemetry lanes: single=%d multi=%d", strat, snap.EngineSingleCore, snap.EngineMulticore)
		}
		e.Close()
	}
}

// TestBatchCancellation proves a mid-batch cancel stops the workers
// promptly and returns partial results with per-job errors: early tiny
// jobs complete, the rest fail with context.Canceled, and the whole
// batch returns well before the uncanceled batch would have.
func TestBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.2)
	e := New(WithWorkers(2), WithProcs(1), WithTelemetry(new(telemetry.Metrics)))
	defer e.Close()
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}

	big := d.RandomInput(rng, 48<<20) // shared across jobs: ~50 ms each
	jobs := make([]Job, 0, 20)
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{Machine: "m", Input: d.RandomInput(rng, 64)})
	}
	for i := 0; i < 16; i++ {
		jobs = append(jobs, Job{Machine: "m", Input: big})
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	results, stats := e.RunBatch(ctx, jobs)
	elapsed := time.Since(t0)

	// Prompt: in-flight jobs stop at the next 64 KiB block, queued jobs
	// fail fast. The uncanceled batch is ~16 × tens of ms on 2 workers.
	if elapsed > 5*time.Second {
		t.Errorf("cancelled batch took %v", elapsed)
	}
	var ok, canceled int
	for _, r := range results {
		switch {
		case r.Err == nil:
			ok++
		case errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Errorf("job %d: unexpected error %v", r.Index, r.Err)
		}
	}
	if ok == 0 {
		t.Error("no jobs completed before the cancel — want partial results")
	}
	if canceled == 0 {
		t.Error("no jobs were canceled")
	}
	if stats.OK != ok || stats.Canceled != canceled {
		t.Errorf("stats %+v disagree with results (ok=%d canceled=%d)", stats, ok, canceled)
	}
	snap := e.Telemetry().Snapshot()
	if snap.EngineCanceled == 0 {
		t.Error("telemetry EngineCanceled still zero")
	}
}

// TestJobTimeout bounds one job without touching its batch siblings.
func TestJobTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.2)
	tr := testTransducer(t, d)
	big := d.RandomInput(rng, 64<<20)
	small := d.RandomInput(rng, 128)
	for _, procs := range []int{1, 2} {
		e := New(WithWorkers(2), WithProcs(procs))
		defer e.Close()
		// A transducer serves both job kinds.
		if _, err := e.RegisterTransducer("m", tr); err != nil {
			t.Fatal(err)
		}
		kinds := []struct {
			name string
			run  func(Job) Result
		}{
			{"run", func(j Job) Result { return e.Run(context.Background(), j) }},
			{"transduce", func(j Job) Result { return e.Transduce(context.Background(), j).Result }},
		}
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%s/procs=%d", k.name, procs), func(t *testing.T) {
				res := k.run(Job{Machine: "m", Input: big, Timeout: time.Microsecond})
				if !errors.Is(res.Err, context.DeadlineExceeded) {
					t.Errorf("timed-out job: lane %s err = %v", res.Lane, res.Err)
				}
				if res := k.run(Job{Machine: "m", Input: small}); res.Err != nil {
					t.Errorf("untimed job err = %v", res.Err)
				}
			})
		}

		// The worker path: a timed-out job fails alone in its batch.
		results, stats := e.RunBatch(context.Background(), []Job{
			{Machine: "m", Input: big, Timeout: time.Microsecond},
			{Machine: "m", Input: small},
		})
		if !errors.Is(results[0].Err, context.DeadlineExceeded) {
			t.Errorf("procs=%d: timed-out batch job err = %v", procs, results[0].Err)
		}
		if results[1].Err != nil {
			t.Errorf("procs=%d: sibling job err = %v", procs, results[1].Err)
		}
		if stats.Canceled != 1 || stats.OK != 1 {
			t.Errorf("procs=%d: stats %+v", procs, stats)
		}
	}
}

// A taken name is ErrDuplicateMachine from every Register call, and
// only a taken name is: a compile failure for a machine whose name reads
// "duplicate machine" is not.
func TestDuplicateMachineIsTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	d := fsm.RandomConverging(rng, 10, 4, 3, 0.3)
	tr := testTransducer(t, d)
	e := New(WithWorkers(1), WithProcs(1))
	defer e.Close()
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterTransducer("tok", tr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m", "tok"} {
		if _, err := e.Register(name, d); !errors.Is(err, ErrDuplicateMachine) {
			t.Errorf("Register(%q) err = %v, want ErrDuplicateMachine", name, err)
		}
		if _, err := e.RegisterTransducer(name, tr); !errors.Is(err, ErrDuplicateMachine) {
			t.Errorf("RegisterTransducer(%q) err = %v, want ErrDuplicateMachine", name, err)
		}
	}
	wide := fsm.RandomPermutation(rng, 300, 4, 0.3) // max range 300 > 256: no range plan
	_, err := e.Register("duplicate machine", wide, core.WithStrategy(core.RangeCoalesced))
	if err == nil || errors.Is(err, ErrDuplicateMachine) {
		t.Errorf("compile failure err = %v, want a non-duplicate error", err)
	}
}

// TestJobValidation covers the per-job failure modes.
func TestJobValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := fsm.RandomConverging(rng, 10, 4, 3, 0.3)
	e := New(WithWorkers(1), WithProcs(1))
	defer e.Close()
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("m", d); err == nil {
		t.Error("duplicate registration should fail")
	}
	if _, err := e.Register("", d); err == nil {
		t.Error("empty name should fail")
	}

	r := e.Run(context.Background(), Job{Machine: "nope", Input: []byte("x")})
	if !errors.Is(r.Err, ErrUnknownMachine) {
		t.Errorf("unknown machine err = %v", r.Err)
	}
	r = e.Run(context.Background(), Job{Machine: "m", Input: []byte("x"), Start: 99, HasStart: true})
	if !errors.Is(r.Err, ErrBadStart) {
		t.Errorf("bad start err = %v", r.Err)
	}
	// Empty machine name falls back to the first registration.
	r = e.Run(context.Background(), Job{Input: []byte{0, 1, 2}})
	if r.Err != nil || r.Machine != "m" {
		t.Errorf("default machine: %+v", r)
	}
	// Explicit start state agrees with the direct runner.
	r = e.Run(context.Background(), Job{Machine: "m", Input: []byte{1, 2, 3}, Start: 4, HasStart: true})
	if r.Err != nil || r.Final != d.Run([]byte{1, 2, 3}, 4) {
		t.Errorf("explicit start: %+v", r)
	}
}

// TestClose verifies Close fails queued work and rejects later
// submissions.
func TestClose(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	d := fsm.RandomConverging(rng, 10, 4, 3, 0.3)
	for _, stop := range []string{"close", "shutdown"} {
		e := New(WithWorkers(1), WithProcs(1))
		if _, err := e.RegisterTransducer("m", testTransducer(t, d)); err != nil {
			t.Fatal(err)
		}
		if stop == "close" {
			e.Close()
			e.Close() // idempotent
		} else if err := e.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := make(chan Result, 1)
		if err := e.Submit(context.Background(), Job{Machine: "m"}, 0, out); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Submit: %v", stop, err)
		}
		job := Job{Machine: "m", Input: []byte("abc")}
		if res := e.Run(context.Background(), job); !errors.Is(res.Err, ErrClosed) {
			t.Errorf("%s: Run: %v", stop, res.Err)
		}
		if res := e.Transduce(context.Background(), job); !errors.Is(res.Err, ErrClosed) {
			t.Errorf("%s: Transduce: %v", stop, res.Err)
		}
		e.Close()
	}
}
