package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/telemetry"
)

// testTransducer attaches a derived Mealy λ(q,a) = (q+a) mod 3 to d.
func testTransducer(t *testing.T, d *fsm.DFA) *fsm.Transducer {
	t.Helper()
	tr, err := fsm.NewMealy(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < d.NumSymbols(); a++ {
		for q := 0; q < d.NumStates(); q++ {
			tr.SetMealyOutput(fsm.State(q), byte(a), fsm.Output((q+a)%3))
		}
	}
	return tr
}

// scalarSpans is the oracle: a one-symbol-at-a-time replay folded into
// maximal non-None runs, sharing no code with the engine lanes.
func scalarSpans(tr *fsm.Transducer, input []byte, start fsm.State) ([]core.Span, fsm.State) {
	d := tr.DFA()
	var spans []core.Span
	q := start
	cur, curStart := fsm.OutputNone, 0
	for i, b := range input {
		out := tr.OutputAt(q, b)
		q = d.Next(q, b)
		if out != cur {
			if cur != fsm.OutputNone {
				spans = append(spans, core.Span{Start: curStart, End: i, Out: cur})
			}
			cur, curStart = out, i
		}
	}
	if cur != fsm.OutputNone {
		spans = append(spans, core.Span{Start: curStart, End: len(input), Out: cur})
	}
	return spans, q
}

func spansEqual(a, b []core.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineTransduceAllLanes pushes inputs through every dispatch
// lane — single, multicore, and the single lane of a machine registered
// under a Base plan — and checks each span list against the scalar
// oracle.
func TestEngineTransduceAllLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := fsm.RandomConverging(rng, 60, 8, 6, 0.3)
	tr := testTransducer(t, d)

	met := new(telemetry.Metrics)
	e := New(WithWorkers(4), WithProcs(4), WithLargeInput(4096), WithTelemetry(met))
	defer e.Close()
	m, err := e.RegisterTransducer("tok", tr, core.WithMinChunk(512))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != fsm.KindMealy {
		t.Fatalf("Kind() = %v, want mealy", m.Kind())
	}
	if m.Transducer() == nil {
		t.Fatal("Transducer() = nil on a transducer machine")
	}
	if _, err := e.RegisterTransducer("tok-base", tr, core.WithStrategy(core.Base)); err != nil {
		t.Fatal(err)
	}

	jobs := []Job{
		{Machine: "tok", Input: d.RandomInput(rng, 100)},      // single lane
		{Machine: "tok", Input: d.RandomInput(rng, 64<<10)},   // multicore lane
		{Machine: "tok-base", Input: d.RandomInput(rng, 200)}, // Base plan
		{Machine: "tok", Input: nil},                          // empty input
	}
	for i, job := range jobs {
		want, wantFinal := scalarSpans(tr, job.Input, d.Start())
		res := e.Transduce(context.Background(), job)
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Final != wantFinal {
			t.Errorf("job %d: final %d want %d", i, res.Final, wantFinal)
		}
		if !spansEqual(res.Spans, want) {
			t.Errorf("job %d (lane %s): %d spans, oracle %d", i, res.Lane, len(res.Spans), len(want))
		}
	}

	// The 64 KiB job must have left the single lane.
	big := e.Transduce(context.Background(), jobs[1])
	if big.Lane == LaneSingle {
		t.Errorf("large transduce stayed on the single lane: %+v", big.Reason)
	}
	base := e.Transduce(context.Background(), jobs[2])
	if base.Strategy != core.Base.String() {
		t.Errorf("Base plan recorded strategy %q", base.Strategy)
	}

	snap := met.Snapshot()
	if snap.EngineTransduce == 0 || snap.TransduceSpans == 0 || snap.TransduceOutputBytes == 0 {
		t.Errorf("transduce telemetry not recorded: %+v", snap)
	}
}

// TestEngineTransduceErrors covers the rejection paths: acceptor
// machines, unknown machines, bad start states.
func TestEngineTransduceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := fsm.RandomConverging(rng, 20, 4, 3, 0.3)

	e := New(WithWorkers(2), WithProcs(1))
	defer e.Close()
	if _, err := e.Register("acc", d); err != nil {
		t.Fatal(err)
	}
	res := e.Transduce(context.Background(), Job{Machine: "acc", Input: []byte("abc")})
	if !errors.Is(res.Err, ErrNotTransducer) {
		t.Fatalf("acceptor transduce: err = %v, want ErrNotTransducer", res.Err)
	}
	res = e.Transduce(context.Background(), Job{Machine: "nope"})
	if !errors.Is(res.Err, ErrUnknownMachine) {
		t.Fatalf("unknown machine: err = %v", res.Err)
	}
	tr := testTransducer(t, d)
	if _, err := e.RegisterTransducer("tok", tr); err != nil {
		t.Fatal(err)
	}
	res = e.Transduce(context.Background(), Job{Machine: "tok", Input: []byte("x"), Start: 999, HasStart: true})
	if !errors.Is(res.Err, ErrBadStart) {
		t.Fatalf("bad start: err = %v", res.Err)
	}
	// Acceptor Run on the transducer machine still works — outputs are
	// simply unused.
	rr := e.Run(context.Background(), Job{Machine: "tok", Input: d.RandomInput(rng, 50)})
	if rr.Err != nil {
		t.Fatalf("Run on transducer machine: %v", rr.Err)
	}
}
