package engine

// Transduction through the engine: output-bearing machines register
// like acceptors (same plan cache, same lane runners, same perf
// profile) and Transduce goes through the same dispatch as Run, with
// core's span scan as the schedule's phase 3. Every lane — single-core,
// multicore, speculative, cluster — produces the exact sequential span
// list: phase 3 replays chunks from start states the schedule resolved
// and verified (see internal/core/schedule.go).

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
// The compiled plan carries the λ table (its cache key covers λ, so
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
		return nil, fmt.Errorf("engine: duplicate machine %q", name)
	}
	p, hit, err := e.planCache.GetOrCompileTransducer(t, opts...)
	if err != nil {
		return nil, fmt.Errorf("engine: machine %q: %w", name, err)
	}
	return e.registerPlan(name, t.DFA(), p, hit, opts...)
}

// TransduceResult is the outcome of one Transduce job: the dispatch
// record of a Result plus the emitted spans. OutputBytes is the input
// bytes the spans cover — the "useful work" companion to Bytes.
type TransduceResult struct {
	Result
	Spans       []core.Span `json:"spans"`
	OutputBytes int64       `json:"output_bytes"`
}

// Transduce runs job through its machine's output table and returns
// the span list a sequential replay would produce, exactly, whichever
// lane the dispatch policy picks. It executes on the caller's
// goroutine (transduction is a streaming surface, not a batch one)
// through the same dispatch as Run: same lanes, same fan-out gate,
// same cancellation. After Close or Shutdown it fails with ErrClosed.
func (e *Engine) Transduce(ctx context.Context, job Job) TransduceResult {
	if e.closed() {
		return TransduceResult{Result: Result{Machine: job.Machine, Bytes: len(job.Input), Err: ErrClosed}}
	}
	return e.dispatch(ctx, 0, job, 0, true)
}
