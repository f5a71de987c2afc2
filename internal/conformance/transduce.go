package conformance

// Transduction conformance: every machine in the matrix also runs as a
// Moore and a Mealy transducer with a deterministically derived λ, and
// every transduce lane — single-core, multicore, plan round-trip, and
// the speculative chunked replay (with both a default and a poisoned
// guess) — must reproduce the scalar oracle's output tape byte for
// byte, and its span folding exactly.

import (
	"context"
	"fmt"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/speculative"
)

// transGamma is the derived transducers' output-alphabet size. Small
// and coprime-ish with nothing in particular: outputs cycle through
// 0..2, so OutputNone gaps and multi-symbol spans both occur.
const transGamma = 3

// OracleTransduce is the scalar transducer reference: one symbol, one
// OutputAt lookup, one Next lookup. Like OracleFinal it shares no code
// with the transducing runners, so a replay bug cannot cancel out.
func OracleTransduce(t *fsm.Transducer, input []byte, start fsm.State) ([]fsm.Output, fsm.State) {
	d := t.DFA()
	tape := make([]fsm.Output, len(input))
	q := start
	for i, a := range input {
		tape[i] = t.OutputAt(q, a)
		q = d.Next(q, a)
	}
	return tape, q
}

// deriveTransducer attaches a deterministic λ to d: Moore machines get
// λ(q) = q mod γ, Mealy machines λ(q, a) = (q + a) mod γ. Derived, not
// random, so a failure reproduces from the machine alone.
func deriveTransducer(d *fsm.DFA, kind fsm.Kind) (*fsm.Transducer, error) {
	switch kind {
	case fsm.KindMoore:
		t, err := fsm.NewMoore(d, transGamma)
		if err != nil {
			return nil, err
		}
		for q := 0; q < d.NumStates(); q++ {
			t.SetMooreOutput(fsm.State(q), fsm.Output(q%transGamma))
		}
		return t, nil
	case fsm.KindMealy:
		t, err := fsm.NewMealy(d, transGamma)
		if err != nil {
			return nil, err
		}
		for a := 0; a < d.NumSymbols(); a++ {
			for q := 0; q < d.NumStates(); q++ {
				t.SetMealyOutput(fsm.State(q), byte(a), fsm.Output((q+a)%transGamma))
			}
		}
		return t, nil
	}
	return nil, fmt.Errorf("conformance: cannot derive a %s transducer", kind)
}

// transProbe is one derived transducer with its transducing runner
// matrix: single-core, multicore, and a runner rebuilt from a
// marshal → unmarshal round trip of the transducer plan.
type transProbe struct {
	kind   fsm.Kind
	t      *fsm.Transducer
	single *core.Runner
	multi  *core.Runner
	reload *core.Runner
}

// buildTransProbes compiles the Moore and Mealy probes for c's machine
// (Auto strategy resolution, as a service would compile them).
func (c *checker) buildTransProbes() *Divergence {
	fail := func(kind fsm.Kind, err error) *Divergence {
		return &Divergence{
			Check: "transduce-compile", Strategy: kind.String(),
			Machine: c.d, MachineLabel: c.label, Detail: err.Error(),
		}
	}
	for _, kind := range []fsm.Kind{fsm.KindMoore, fsm.KindMealy} {
		t, err := deriveTransducer(c.d, kind)
		if err != nil {
			return fail(kind, err)
		}
		p, err := core.CompileTransducer(t, core.WithMinChunk(c.cfg.MinChunk))
		if err != nil {
			return fail(kind, err)
		}
		single, err := core.NewFromPlan(p, core.WithMinChunk(c.cfg.MinChunk))
		if err != nil {
			return fail(kind, err)
		}
		multi, err := core.NewFromPlan(p,
			core.WithMinChunk(c.cfg.MinChunk), core.WithProcs(c.cfg.Procs))
		if err != nil {
			return fail(kind, err)
		}
		probe := &transProbe{kind: kind, t: t, single: single, multi: multi}
		if !c.cfg.SkipPlanRoundTrip {
			data, err := p.MarshalBinary()
			if err != nil {
				return fail(kind, fmt.Errorf("marshal: %w", err))
			}
			rp, err := core.UnmarshalPlan(data)
			if err != nil {
				return fail(kind, fmt.Errorf("unmarshal: %w", err))
			}
			if rp.Fingerprint() != p.Fingerprint() {
				return fail(kind, fmt.Errorf("fingerprint drift: %s -> %s", p.Fingerprint(), rp.Fingerprint()))
			}
			if rp.Kind() != kind {
				return fail(kind, fmt.Errorf("kind drift: decoded plan is %s", rp.Kind()))
			}
			probe.reload, err = core.NewFromPlan(rp,
				core.WithMinChunk(c.cfg.MinChunk), core.WithProcs(c.cfg.Procs))
			if err != nil {
				return fail(kind, fmt.Errorf("runner from decoded plan: %w", err))
			}
		}
		c.trans = append(c.trans, probe)
	}
	return nil
}

// tapesEqual locates the first disagreement, or -1.
func tapesEqual(a, b []fsm.Output) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// oracleSpans folds a tape into maximal non-OutputNone runs — the
// specification TransduceSpans must meet.
func oracleSpans(tape []fsm.Output) []core.Span {
	var spans []core.Span
	for i := 0; i < len(tape); {
		if tape[i] == fsm.OutputNone {
			i++
			continue
		}
		j := i + 1
		for j < len(tape) && tape[j] == tape[i] {
			j++
		}
		spans = append(spans, core.Span{Start: i, End: j, Out: tape[i]})
		i = j
	}
	return spans
}

// checkTransduce compares every transduce lane of every probe against
// the scalar oracle for one (input, start) pair.
func (c *checker) checkTransduce(input []byte, start fsm.State) *Divergence {
	for _, probe := range c.trans {
		wantTape, wantFinal := OracleTransduce(probe.t, input, start)
		kind := probe.kind.String()
		lanes := []struct {
			name string
			r    *core.Runner
		}{
			{"transduce-single", probe.single},
			{"transduce-multicore", probe.multi},
		}
		if probe.reload != nil {
			lanes = append(lanes, struct {
				name string
				r    *core.Runner
			}{"transduce-roundtrip", probe.reload})
		}
		for _, lane := range lanes {
			tape, final, err := lane.r.TransduceOutputs(input, start)
			if err != nil {
				return c.divergence(lane.name, kind, input, start, wantFinal, final, "error: "+err.Error())
			}
			if final != wantFinal {
				return c.divergence(lane.name, kind, input, start, wantFinal, final, "final state")
			}
			if i := tapesEqual(tape, wantTape); i >= 0 {
				return c.divergence(lane.name, kind, input, start, wantFinal, final,
					fmt.Sprintf("output tape diverges at %d: got %d want %d (procs=%d)",
						i, tape[i], wantTape[i], lane.r.Procs()))
			}
			spans, final2, err := lane.r.TransduceSpans(input, start)
			if err != nil {
				return c.divergence(lane.name, kind, input, start, wantFinal, final2, "spans error: "+err.Error())
			}
			if final2 != wantFinal {
				return c.divergence(lane.name, kind, input, start, wantFinal, final2, "spans final state")
			}
			wantSpans := oracleSpans(wantTape)
			if len(spans) != len(wantSpans) {
				return c.divergence(lane.name, kind, input, start, wantFinal, final2,
					fmt.Sprintf("%d spans, oracle folds %d", len(spans), len(wantSpans)))
			}
			for i := range spans {
				if spans[i] != wantSpans[i] {
					return c.divergence(lane.name, kind, input, start, wantFinal, final2,
						fmt.Sprintf("span %d = %+v, oracle %+v", i, spans[i], wantSpans[i]))
				}
			}
		}
		if dv := c.checkSpecTransduce(probe, input, start, wantTape, wantFinal); dv != nil {
			return dv
		}
	}
	return nil
}

// checkSpecTransduce replays the transducer over the speculative
// source (Ko et al.'s baseline) with both the default and a poisoned
// guess, once as a tape-filling phase 3 and once as the ordered span
// scan (DriveSpans). The verified starts must make the replayed tape
// and the streamed spans exact either way.
func (c *checker) checkSpecTransduce(probe *transProbe, input []byte, start fsm.State, wantTape []fsm.Output, wantFinal fsm.State) *Divergence {
	kind := probe.kind.String()
	d := probe.t.DFA()
	for _, sr := range []*speculative.Runner{c.spec, c.specBad} {
		tape := make([]fsm.Output, len(input))
		final, stats, err := probe.multi.Drive(context.Background(), input, start, sr.Source(),
			func(off int, chunk []byte, st fsm.State) fsm.State {
				q := st
				for i, b := range chunk {
					tape[off+i] = probe.t.OutputAt(q, b)
					q = d.Next(q, b)
				}
				return q
			})
		if err != nil {
			return c.divergence("transduce-speculative", kind, input, start, wantFinal, final,
				"error: "+err.Error())
		}
		if final != wantFinal {
			return c.divergence("transduce-speculative", kind, input, start, wantFinal, final,
				fmt.Sprintf("guess=%d chunks=%d misspeculated=%d", sr.Guess(), stats.Chunks, stats.Misses))
		}
		if i := tapesEqual(tape, wantTape); i >= 0 {
			return c.divergence("transduce-speculative", kind, input, start, wantFinal, final,
				fmt.Sprintf("output tape diverges at %d: got %d want %d (guess=%d misspeculated=%d)",
					i, tape[i], wantTape[i], sr.Guess(), stats.Misses))
		}
		var spans []core.Span
		final, stats, err = probe.multi.DriveSpans(context.Background(), input, start, sr.Source(), nil, func(batch []core.Span) error {
			spans = append(spans, batch...)
			return nil
		})
		if err != nil || final != wantFinal {
			return c.divergence("transduce-speculative-spans", kind, input, start, wantFinal, final,
				fmt.Sprintf("err=%v guess=%d misspeculated=%d", err, sr.Guess(), stats.Misses))
		}
		wantSpans := oracleSpans(wantTape)
		if len(spans) != len(wantSpans) {
			return c.divergence("transduce-speculative-spans", kind, input, start, wantFinal, final,
				fmt.Sprintf("%d spans, oracle folds %d (guess=%d)", len(spans), len(wantSpans), sr.Guess()))
		}
		for i := range spans {
			if spans[i] != wantSpans[i] {
				return c.divergence("transduce-speculative-spans", kind, input, start, wantFinal, final,
					fmt.Sprintf("span %d = %+v, oracle %+v (guess=%d)", i, spans[i], wantSpans[i], sr.Guess()))
			}
		}
	}
	return nil
}
