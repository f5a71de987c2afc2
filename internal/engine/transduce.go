package engine

// Transduction through the engine: output-bearing machines register
// like acceptors (same compile, same lane runners, same perf profile)
// and Transduce goes through the same dispatch as Run, with core's span
// scan as the schedule's phase 3. Both lanes — single-core and
// multicore — produce the exact sequential span list: phase 3 replays
// chunks from start states the schedule resolved and verified (see
// internal/core/schedule.go), and the spans leave in input order
// through the caller's sink (TransduceTo).

import (
	"context"
	"errors"
	"fmt"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
)

// ErrNotTransducer reports a Transduce call on a machine registered
// without an output table.
var ErrNotTransducer = errors.New("engine: machine is an acceptor (no output table)")

// Transducer returns the machine's output table, nil for acceptors.
func (m *Machine) Transducer() *fsm.Transducer { return m.plan.Outputs() }

// Kind classifies the machine: acceptor, moore, or mealy.
func (m *Machine) Kind() fsm.Kind { return m.plan.Kind() }

// RegisterTransducer registers an output-bearing machine under name.
// The compiled plan carries the λ table (its fingerprint covers λ, so
// transducers over a shared δ never collide with each other or with
// the acceptor plan), and the machine serves both Run — outputs simply
// unused — and Transduce.
func (e *Engine) RegisterTransducer(name string, t *fsm.Transducer, opts ...core.Option) (*Machine, error) {
	if name == "" {
		return nil, errors.New("engine: empty machine name")
	}
	if t == nil {
		return nil, errors.New("engine: nil transducer")
	}
	e.mu.RLock()
	_, dup := e.machines[name]
	e.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w %q", ErrDuplicateMachine, name)
	}
	sp := e.compileSpan()
	p, err := core.CompileTransducer(t, opts...)
	sp.Stop()
	if err != nil {
		return nil, fmt.Errorf("engine: machine %q: %w", name, err)
	}
	return e.registerPlan(name, t.DFA(), p, opts...)
}

// TransduceResult is what Transduce returns: the job's Result, whose
// Stats.Spans and Stats.SpanBytes count the spans handed out and the
// input bytes they cover, plus the spans themselves.
type TransduceResult struct {
	Result
	Spans []core.Span `json:"spans"`
}

// Transduce runs job through its machine's output table and returns
// the span list a sequential replay would produce, exactly, whichever
// lane the dispatch policy picks: TransduceTo with a sink that
// collects.
func (e *Engine) Transduce(ctx context.Context, job Job) TransduceResult {
	var spans []core.Span
	res := TransduceResult{Result: e.TransduceTo(ctx, job, func(batch []core.Span) error {
		spans = append(spans, batch...)
		return nil
	})}
	if res.Err == nil {
		res.Spans = spans
	}
	return res
}

// TransduceTo runs job through its machine's output table and hands
// the spans to emit (non-nil) in input order, stitched and maximal, as
// core.Runner.DriveSpans produces them. It executes on the caller's
// goroutine (transduction is a streaming surface, not a batch one)
// through the same dispatch as Run: same lanes, same fan-out gate,
// same cancellation. emit runs only on this goroutine and never while
// a fan-out slot is held: the single-core lane streams as phase 3
// replays, the multi-chunk lanes release their spans in order once the
// slot is free. An error from emit stops the run and becomes the
// result's Err, as does Close or Shutdown mid-stream (ErrClosed); a
// failed job may have emitted a prefix of its spans. After Close or
// Shutdown it fails with ErrClosed before running.
func (e *Engine) TransduceTo(ctx context.Context, job Job, emit core.SpanSink) Result {
	if e.closed() {
		return Result{Machine: job.Machine, Bytes: len(job.Input), Err: ErrClosed}
	}
	return e.dispatch(ctx, 0, job, 0, func(batch []core.Span) error {
		if e.closed() {
			return ErrClosed
		}
		return emit(batch)
	})
}
