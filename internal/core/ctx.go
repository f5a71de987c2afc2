package core

import (
	"context"

	"dpfsm/internal/fsm"
	"dpfsm/internal/trace"
)

// Cooperative cancellation. The enumerative strategies are pure
// compute loops with no blocking points, so cancellation is
// cooperative: the schedule (schedule.go) folds every chunk through the
// runner in blocks of ctxCheckBytes and polls ctx.Err() between blocks,
// in phase 1 and phase 3 alike. A context that can never be canceled
// (context.Background, context.TODO) and carries no trace gets
// whole-chunk blocks, so the Ctx variants cost nothing when neither
// cancellation nor tracing is in play.
//
// Folding is exact, not approximate: transition-function composition
// is associative, so running block-by-block from the carried state or
// gather-merging per-block composition vectors produces bit-identical
// results to the one-shot loops. The only cost is that the convergence
// strategies restart from the n-wide identity at each block boundary;
// with 64 KiB blocks and machines that converge within a few hundred
// symbols (§5.2) the re-widening overhead is well under a percent.
const ctxCheckBytes = 64 << 10

// ctxIsPlain reports whether ctx carries neither a cancellation
// signal nor a trace, i.e. the Ctx entry points may route to the
// uninstrumented fast paths.
func ctxIsPlain(ctx context.Context) bool {
	if ctx == nil {
		return true
	}
	return ctx.Done() == nil && trace.FromContext(ctx) == nil
}

// FinalCtx is Final with deadline/cancellation support: it returns
// ctx.Err() when ctx is canceled before the run completes, polling
// between input blocks. If ctx carries a trace (trace.NewContext),
// per-phase spans with the run's convergence and shuffle accounting are
// attached to it.
func (r *Runner) FinalCtx(ctx context.Context, input []byte, start fsm.State) (fsm.State, error) {
	st, _, err := r.Drive(ctx, input, start, nil, nil)
	return st, err
}

// AcceptsCtx is Accepts with cancellation; ok is meaningless when err
// is non-nil.
func (r *Runner) AcceptsCtx(ctx context.Context, input []byte) (bool, error) {
	final, err := r.FinalCtx(ctx, input, r.d.Start())
	if err != nil {
		return false, err
	}
	return r.d.Accepting(final), nil
}

// RunChunkedCtx is RunChunked with deadline/cancellation: every block of
// phases 1 and 3 polls ctx. On cancellation some chunks may already
// have run f (in particular chunk 0, whose phase 3 overlaps phase 1),
// so callers must treat f's side effects as partial when err is
// non-nil; the returned state is then unspecified. A trace on ctx
// receives the full Figure 5 span decomposition.
func (r *Runner) RunChunkedCtx(ctx context.Context, input []byte, start fsm.State, f ChunkFunc) (fsm.State, error) {
	st, _, err := r.Drive(ctx, input, start, nil, f)
	return st, err
}
