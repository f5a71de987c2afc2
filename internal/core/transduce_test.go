package core

import (
	"math/rand"
	"testing"

	"dpfsm/internal/fsm"
)

// randomTransducer derives a deterministic λ over d: Mealy machines
// get λ(q, a) = (q + a) mod γ, Moore machines λ(q) = q mod γ, with a
// γ chosen small so OutputNone gaps actually occur.
func randomTransducer(t testing.TB, d *fsm.DFA, kind fsm.Kind, gamma int) *fsm.Transducer {
	t.Helper()
	var (
		tr  *fsm.Transducer
		err error
	)
	switch kind {
	case fsm.KindMoore:
		tr, err = fsm.NewMoore(d, gamma)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < d.NumStates(); q++ {
			tr.SetMooreOutput(fsm.State(q), fsm.Output(q%gamma))
		}
	case fsm.KindMealy:
		tr, err = fsm.NewMealy(d, gamma)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < d.NumSymbols(); a++ {
			for q := 0; q < d.NumStates(); q++ {
				tr.SetMealyOutput(fsm.State(q), byte(a), fsm.Output((q+a)%gamma))
			}
		}
	default:
		t.Fatalf("bad kind %v", kind)
	}
	return tr
}

// oracleTape is the scalar reference: the sequential one-state walk
// emitting through OutputAt, sharing no code with the runners.
func oracleTape(tr *fsm.Transducer, input []byte, start fsm.State) ([]fsm.Output, fsm.State) {
	d := tr.DFA()
	tape := make([]fsm.Output, len(input))
	q := start
	for i, b := range input {
		tape[i] = tr.OutputAt(q, b)
		q = d.Next(q, b)
	}
	return tape, q
}

// oracleSpans folds a tape into maximal non-OutputNone runs.
func oracleSpans(tape []fsm.Output) []Span {
	var spans []Span
	for i := 0; i < len(tape); {
		if tape[i] == fsm.OutputNone {
			i++
			continue
		}
		j := i + 1
		for j < len(tape) && tape[j] == tape[i] {
			j++
		}
		spans = append(spans, Span{Start: i, End: j, Out: tape[i]})
		i = j
	}
	return spans
}

func newTransducerRunner(t testing.TB, tr *fsm.Transducer, s Strategy, opts ...Option) *Runner {
	t.Helper()
	p, err := CompileTransducer(tr, WithStrategy(s))
	if err != nil {
		t.Fatalf("CompileTransducer(%v): %v", s, err)
	}
	r, err := NewFromPlan(p, opts...)
	if err != nil {
		t.Fatalf("NewFromPlan: %v", err)
	}
	return r
}

func TestTransduceMatchesOracleAllLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for mi, d := range machines(t, rng) {
		for _, kind := range []fsm.Kind{fsm.KindMoore, fsm.KindMealy} {
			tr := randomTransducer(t, d, kind, 3)
			for _, strat := range []Strategy{Base, Convergence, RangeCoalesced} {
				if (strat == RangeCoalesced) && d.MaxRangeSize() > 256 {
					continue
				}
				for _, procs := range []int{1, 4} {
					r := newTransducerRunner(t, tr, strat, WithProcs(procs), WithMinChunk(16))
					in := d.RandomInput(rng, 400)
					st := fsm.State(rng.Intn(d.NumStates()))
					wantTape, wantFinal := oracleTape(tr, in, st)

					tape, final, err := r.TransduceOutputs(in, st)
					if err != nil {
						t.Fatal(err)
					}
					if final != wantFinal {
						t.Fatalf("m%d %v %v procs=%d: final %d want %d", mi, kind, strat, procs, final, wantFinal)
					}
					for i := range tape {
						if tape[i] != wantTape[i] {
							t.Fatalf("m%d %v %v procs=%d: tape[%d] = %d want %d", mi, kind, strat, procs, i, tape[i], wantTape[i])
						}
					}

					spans, final2, err := r.TransduceSpans(in, st)
					if err != nil {
						t.Fatal(err)
					}
					if final2 != wantFinal {
						t.Fatalf("spans final %d want %d", final2, wantFinal)
					}
					want := oracleSpans(wantTape)
					if len(spans) != len(want) {
						t.Fatalf("m%d %v %v procs=%d: %d spans want %d", mi, kind, strat, procs, len(spans), len(want))
					}
					for i := range spans {
						if spans[i] != want[i] {
							t.Fatalf("m%d %v %v procs=%d: span[%d] = %+v want %+v", mi, kind, strat, procs, i, spans[i], want[i])
						}
					}
				}
			}
		}
	}
}

// A span that crosses every chunk boundary: constant output over the
// whole input must come back as exactly one span however many chunks
// the runner used.
func TestTransduceSpanStraddlesAllBoundaries(t *testing.T) {
	d := fsm.MustNew(2, 2) // default δ ≡ 0: the walk never leaves state 0
	tr, err := fsm.NewMoore(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetMooreOutput(0, 1)
	tr.SetMooreOutput(1, 1)
	r := newTransducerRunner(t, tr, Base, WithProcs(8), WithMinChunk(4))
	in := make([]byte, 512)
	spans, _, err := r.TransduceSpans(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0] != (Span{Start: 0, End: 512, Out: 1}) {
		t.Fatalf("got %+v, want one span [0,512) out 1", spans)
	}
}

func TestTransduceEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	d := fsm.RandomConverging(rng, 16, 4, 4, 0.3)
	tr := randomTransducer(t, d, fsm.KindMealy, 3)
	r := newTransducerRunner(t, tr, Convergence, WithProcs(4), WithMinChunk(16))
	tape, final, err := r.TransduceOutputs(nil, 5)
	if err != nil || len(tape) != 0 || final != 5 {
		t.Fatalf("tape=%v final=%d err=%v", tape, final, err)
	}
	spans, final, err := r.TransduceSpans(nil, 5)
	if err != nil || len(spans) != 0 || final != 5 {
		t.Fatalf("spans=%v final=%d err=%v", spans, final, err)
	}
}

func TestTransduceOnAcceptorFails(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	d := fsm.RandomConverging(rng, 16, 4, 4, 0.3)
	r := newRunner(t, d, Convergence)
	if _, _, err := r.TransduceOutputs([]byte("abc"), 0); err == nil {
		t.Fatal("TransduceOutputs on acceptor plan: want error")
	}
	if _, _, err := r.TransduceSpans([]byte("abc"), 0); err == nil {
		t.Fatal("TransduceSpans on acceptor plan: want error")
	}
}

func TestTransducerPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, kind := range []fsm.Kind{fsm.KindMoore, fsm.KindMealy} {
		d := fsm.RandomConverging(rng, 40, 6, 5, 0.3)
		tr := randomTransducer(t, d, kind, 4)
		p, err := CompileTransducer(tr)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		q, err := UnmarshalPlan(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !p.equivalent(q) {
			t.Fatalf("%v: round-tripped plan not equivalent", kind)
		}
		if q.Kind() != kind {
			t.Fatalf("Kind = %v want %v", q.Kind(), kind)
		}
		if p.Fingerprint() != q.Fingerprint() {
			t.Fatalf("fingerprint changed across round trip")
		}

		// Decoded plans transduce identically.
		r1, err := NewFromPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := NewFromPlan(q, WithProcs(4), WithMinChunk(16))
		if err != nil {
			t.Fatal(err)
		}
		in := d.RandomInput(rng, 300)
		t1, f1, err1 := r1.TransduceOutputs(in, d.Start())
		t2, f2, err2 := r2.TransduceOutputs(in, d.Start())
		if err1 != nil || err2 != nil || f1 != f2 {
			t.Fatalf("err1=%v err2=%v f1=%d f2=%d", err1, err2, f1, f2)
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("decoded plan tape diverges at %d", i)
			}
		}
	}
}

// λ changes the fingerprint: transducer plans that differ only in
// their output tables, and a transducer and the acceptor over its δ,
// get distinct identities.
func TestTransducerFingerprintCoversLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	d := fsm.RandomConverging(rng, 16, 4, 4, 0.3)
	a := randomTransducer(t, d, fsm.KindMoore, 3)
	b := a.Clone()
	b.SetMooreOutput(1, 2)
	pa, err := CompileTransducer(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := CompileTransducer(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Fingerprint() == pb.Fingerprint() {
		t.Fatal("plans with different λ share a fingerprint")
	}
	pAcc, err := CompilePlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if pAcc.Fingerprint() == pa.Fingerprint() {
		t.Fatal("acceptor and transducer plans share a fingerprint")
	}
}
