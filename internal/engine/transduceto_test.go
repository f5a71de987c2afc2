package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/telemetry"
)

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	var b [64]byte
	n := runtime.Stack(b[:], false)
	return string(bytes.Fields(b[:n])[1])
}

// checkTransduceTo runs job through TransduceTo under ctx and checks
// the streaming contract: emit only on this goroutine with no fan-out
// slot held, the concatenated batches in order, maximal, and equal to
// the scalar oracle and to Transduce's list, on the expected lane.
func checkTransduceTo(t *testing.T, e *Engine, ctx context.Context, tr *fsm.Transducer, job Job, wantLane string) {
	t.Helper()
	caller := goid()
	var got []core.Span
	res := e.TransduceTo(ctx, job, func(batch []core.Span) error {
		if id := goid(); id != caller {
			t.Errorf("emit on goroutine %s, caller is %s", id, caller)
		}
		if n := len(e.multiGate); n != 0 {
			t.Errorf("emit with %d fan-out slots held", n)
		}
		got = append(got, batch...)
		return nil
	})
	if res.Err != nil {
		t.Fatalf("%s lane: %v", wantLane, res.Err)
	}
	if res.Lane != wantLane {
		t.Fatalf("lane %q (%s), want %s", res.Lane, res.Reason, wantLane)
	}
	want, wantFinal := scalarSpans(tr, job.Input, tr.DFA().Start())
	if res.Final != wantFinal || !spansEqual(got, want) {
		t.Fatalf("%s lane: final %d want %d, %d spans want %d", wantLane, res.Final, wantFinal, len(got), len(want))
	}
	var covered int64
	for i, sp := range got {
		covered += int64(sp.End - sp.Start)
		if i > 0 && (sp.Start <= got[i-1].Start || (sp.Start == got[i-1].End && sp.Out == got[i-1].Out)) {
			t.Fatalf("%s lane: span %d %+v after %+v: out of order or not maximal", wantLane, i, sp, got[i-1])
		}
	}
	if res.Stats.Spans != len(got) || res.Stats.SpanBytes != covered {
		t.Errorf("%s lane: Stats.Spans %d SpanBytes %d, emitted %d over %d bytes",
			wantLane, res.Stats.Spans, res.Stats.SpanBytes, len(got), covered)
	}
	if list := e.Transduce(ctx, job); list.Err != nil || !spansEqual(list.Spans, got) {
		t.Errorf("%s lane: Transduce gave %d spans (err %v), TransduceTo emitted %d", wantLane, len(list.Spans), list.Err, len(got))
	}
}

// TestEngineTransduceToEveryLane streams through every dispatch lane —
// single (an engine at procs=1) and multicore on a machine that never
// converges — under a plain context (whole-input blocks) and a cancelable one (64 KiB blocks).
func TestEngineTransduceToEveryLane(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	d := fsm.RandomPermutation(rng, 16, 4, 0.3)
	tr := testTransducer(t, d)

	e := New(WithWorkers(4), WithProcs(4), WithLargeInput(4096),
		WithTelemetry(new(telemetry.Metrics)), WithPerfProfiles(perfprofile.NewStore("")))
	defer e.Close()
	if _, err := e.RegisterTransducer("tok", tr, core.WithMinChunk(512)); err != nil {
		t.Fatal(err)
	}
	single := New(WithWorkers(1), WithProcs(1))
	defer single.Close()
	if _, err := single.RegisterTransducer("tok", tr, core.WithMinChunk(512)); err != nil {
		t.Fatal(err)
	}

	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	big := d.RandomInput(rng, 200<<10)
	for _, ctx := range []context.Context{context.Background(), cancelable} {
		checkTransduceTo(t, single, ctx, tr, Job{Machine: "tok", Input: big}, LaneSingle)
		checkTransduceTo(t, e, ctx, tr, Job{Machine: "tok", Input: big}, LaneMulticore)
	}

}

// TestEngineTransduceToEmitErrorStops: a failing sink (a failed write)
// stops the run, its error is the result's, the sink is not called
// again, and no fan-out slot stays held.
func TestEngineTransduceToEmitErrorStops(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	d := fsm.RandomConverging(rng, 60, 8, 6, 0.3)
	tr := testTransducer(t, d)
	met := new(telemetry.Metrics)
	// The single lane (procs=1) streams; the multicore lane (procs=4)
	// releases its slot after the fan-out.
	single := New(WithWorkers(1), WithProcs(1), WithTelemetry(met))
	defer single.Close()
	multi := New(WithWorkers(4), WithProcs(4), WithLargeInput(4096), WithTelemetry(met))
	defer multi.Close()
	errWrite := errors.New("write failed")
	input := d.RandomInput(rng, 200<<10)
	for _, e := range []*Engine{single, multi} {
		if _, err := e.RegisterTransducer("tok", tr, core.WithMinChunk(512)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		res := e.TransduceTo(ctx, Job{Machine: "tok", Input: input}, func([]core.Span) error {
			calls++
			return errWrite
		})
		cancel()
		if !errors.Is(res.Err, errWrite) {
			t.Errorf("lane %s: err %v, want the sink's", res.Lane, res.Err)
		}
		if calls != 1 {
			t.Errorf("lane %s: sink called %d times", res.Lane, calls)
		}
		if n := len(e.multiGate); n != 0 {
			t.Errorf("lane %s: %d fan-out slots still held", res.Lane, n)
		}
	}
	if got := met.EngineJobErrors.Load(); got != 2 {
		t.Errorf("EngineJobErrors = %d, want 2", got)
	}
}

// TestEngineTransduceToClosedMidStream: Close while a single-lane
// stream is between blocks ends it with ErrClosed at the next batch.
func TestEngineTransduceToClosedMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	d := fsm.RandomConverging(rng, 60, 8, 6, 0.3)
	tr := testTransducer(t, d)
	e := New(WithWorkers(2), WithProcs(1))
	defer e.Close()
	if _, err := e.RegisterTransducer("tok", tr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	res := e.TransduceTo(ctx, Job{Machine: "tok", Input: d.RandomInput(rng, 256<<10)}, func([]core.Span) error {
		calls++
		e.Close()
		return nil
	})
	if !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("err %v, want ErrClosed", res.Err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after Close", calls)
	}
}
