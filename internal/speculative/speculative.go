// Package speculative implements the speculative parallelization the
// paper positions itself against (§7, citing Luchaup et al. and Klein
// & Wiseman): instead of enumerating all start states for a chunk,
// *guess* one, run the chunk sequentially, and verify the guess
// against the true end state of the previous chunk; on a mismatch,
// re-run the chunk from the correct state. The verification step is
// the degenerate form of the paper's composition vectors — a vector of
// width one, carrying only the guessed entry.
//
// The paper's two criticisms are reproduced here as measurable
// behavior:
//
//  1. efficacy is input-dependent — the guess is only right when the
//     machine converges onto the guessed state, and "the probability
//     of such cascading misspeculations increases with the number of
//     processors"; and
//  2. even when speculation succeeds, per-chunk work is the plain
//     sequential loop, so a single core gains nothing.
//
// The chunk schedule itself is core's (Runner.Drive): Source plugs
// the guess in as a phase-1 source of width-one entries, and the
// schedule's phase 2 verifies them left to right, replaying a
// misspeculated chunk from the corrected state on the spot. Final runs
// that schedule for fsmbench and perfbench; fsmbench's lane ablation
// and the conformance suite drive Source on a runner of their own.
// Verification is exact either way, so results always match the
// sequential run. No served lane speculates.
//
// Guessing policy: New seeds the guess with the most frequently
// reached state in a short warmup prefix (a common heuristic in the
// literature); NewWithGuess takes the guess from its caller and keeps
// it for the runner's life.
package speculative

import (
	"context"
	"sync"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
)

// Stats reports what speculation did on one input.
type Stats struct {
	Chunks        int
	Misspeculated int // chunks whose guess was wrong and were re-run
	ReRunBytes    int // bytes processed a second time
}

// Runner executes a machine speculatively across chunks from one fixed
// guess.
type Runner struct {
	d     *fsm.DFA
	procs int
	guess fsm.State

	// core drives Final; built on first use, since callers that drive
	// Source on their own runner never need it.
	once sync.Once
	core *core.Runner
}

// New builds a speculative runner. warmup bytes of representative
// input seed the guess (the state most often occupied); an empty
// warmup guesses the start state.
func New(d *fsm.DFA, procs int, warmup []byte) *Runner {
	guess := d.Start()
	if len(warmup) > 0 {
		counts := make([]int, d.NumStates())
		q := d.Start()
		for _, b := range warmup {
			q = d.Next(q, b)
			counts[q]++
		}
		best := 0
		for s, c := range counts {
			if c > counts[best] {
				best = s
			}
		}
		guess = fsm.State(best)
	}
	return NewWithGuess(d, procs, guess)
}

// NewWithGuess builds a speculative runner that guesses every chunk
// starts in state g.
func NewWithGuess(d *fsm.DFA, procs int, g fsm.State) *Runner {
	if procs < 1 {
		procs = 1
	}
	return &Runner{d: d, procs: procs, guess: g}
}

// Guess reports the state the runner speculates chunks start in.
func (r *Runner) Guess() fsm.State { return r.guess }

// Source is the guess as a phase-1 source for core's schedule: every
// chunk walks sequentially from the guess (chunk 0 from its known
// start) and answers with a width-one entry, which the schedule
// verifies in phase 2.
func (r *Runner) Source() core.Source { return guess{d: r.d, from: r.guess} }

type guess struct {
	d    *fsm.DFA
	from fsm.State
}

func (guess) ChunkBytes() int { return 0 }

func (g guess) Compose(ctx context.Context, ch core.Chunk) core.Comp {
	from := g.from
	if ch.Known {
		from = ch.Start
	}
	return core.Comp{From: from, To: ch.Walk(ctx, g.d, from)}
}

// Final runs the machine from start over input, speculating chunk
// start states, and returns the exact final state plus speculation
// statistics. It panics if the machine fails validation.
func (r *Runner) Final(input []byte, start fsm.State) (fsm.State, Stats) {
	r.once.Do(func() {
		cr, err := core.New(r.d, core.WithStrategy(core.Sequential), core.WithProcs(r.procs))
		if err != nil {
			panic("speculative: " + err.Error())
		}
		r.core = cr
	})
	st, ds, _ := r.core.Drive(context.Background(), input, start, r.Source(), nil)
	return st, Stats{Chunks: ds.Chunks, Misspeculated: ds.Misses, ReRunBytes: ds.ReplayBytes}
}

// HitRate reports the fraction of speculated chunks whose guess held.
func (s Stats) HitRate() float64 {
	spec := s.Chunks - 1
	if spec <= 0 {
		return 1
	}
	return float64(spec-s.Misspeculated) / float64(spec)
}
