package speculative

import (
	"context"
	"math/rand"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
)

func TestFinalAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(190))
	for iter := 0; iter < 40; iter++ {
		d := fsm.Random(rng, 1+rng.Intn(40), 1+rng.Intn(6), 0.3)
		in := d.RandomInput(rng, 100+rng.Intn(4000))
		warm := d.RandomInput(rng, 200)
		for _, procs := range []int{1, 2, 4, 8} {
			r := New(d, procs, warm)
			got, stats := r.Final(in, d.Start())
			if want := d.Run(in, d.Start()); got != want {
				t.Fatalf("iter %d procs %d: %d want %d", iter, procs, got, want)
			}
			if stats.Misspeculated > stats.Chunks-1 {
				t.Fatalf("impossible stats %+v", stats)
			}
		}
	}
}

func TestSpeculationHitsOnConvergingMachine(t *testing.T) {
	// A machine that funnels into one state makes speculation succeed:
	// exactly the inputs where the technique looks good.
	d := fsm.MustNew(4, 2)
	d.SetColumn(0, []fsm.State{1, 2, 3, 3})
	d.SetColumn(1, []fsm.State{3, 3, 3, 3})
	rng := rand.New(rand.NewSource(191))
	in := d.RandomInput(rng, 20000)
	r := New(d, 8, in[:500])
	if r.Guess() != 3 {
		t.Fatalf("warmup should guess the absorbing state, got %d", r.Guess())
	}
	_, stats := r.Final(in, d.Start())
	if stats.HitRate() < 0.99 {
		t.Errorf("hit rate %.2f on an absorbing machine", stats.HitRate())
	}
}

func TestSpeculationCascadesOnPermutation(t *testing.T) {
	// Permutation machines never converge, so the guess is almost
	// always wrong and every chunk re-runs — the paper's §7 argument.
	rng := rand.New(rand.NewSource(192))
	d := fsm.RandomPermutation(rng, 16, 4, 0.3)
	in := d.RandomInput(rng, 40000)
	r := New(d, 8, in[:500])
	_, stats := r.Final(in, d.Start())
	if stats.HitRate() > 0.5 {
		t.Errorf("hit rate %.2f on a permutation machine; expected mostly misses", stats.HitRate())
	}
	if stats.ReRunBytes == 0 {
		t.Error("expected re-run work")
	}
}

func TestTinyInputFallsBack(t *testing.T) {
	d := fsm.MustNew(2, 2)
	r := New(d, 8, nil)
	_, stats := r.Final([]byte{0, 1, 0}, 0)
	if stats.Chunks != 1 {
		t.Errorf("tiny input should run in one chunk, got %d", stats.Chunks)
	}
}

func TestHitRateEdge(t *testing.T) {
	if (Stats{Chunks: 1}).HitRate() != 1 {
		t.Error("single chunk has trivial hit rate 1")
	}
	s := Stats{Chunks: 5, Misspeculated: 2}
	if s.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

func TestEmptyWarmupGuessesStart(t *testing.T) {
	d := fsm.MustNew(3, 2)
	d.SetStart(2)
	r := New(d, 4, nil)
	if r.Guess() != 2 {
		t.Errorf("guess = %d, want start state", r.Guess())
	}
}

func TestNewWithGuessDecidesHitRate(t *testing.T) {
	// The absorbing machine from the convergence test: guessing the
	// absorbing state hits, guessing anywhere else misses every chunk.
	d := fsm.MustNew(4, 2)
	d.SetColumn(0, []fsm.State{1, 2, 3, 3})
	d.SetColumn(1, []fsm.State{3, 3, 3, 3})
	rng := rand.New(rand.NewSource(193))
	in := d.RandomInput(rng, 20000)

	r := NewWithGuess(d, 8, 0) // state 0 is never revisited → forced mispredicts
	got, stats := r.Final(in, d.Start())
	if want := d.Run(in, d.Start()); got != want {
		t.Fatalf("wrong guess changed the answer: %d want %d", got, want)
	}
	if stats.HitRate() > 0.2 {
		t.Errorf("hit rate %.2f with a poisoned guess; expected near-total misses", stats.HitRate())
	}
	r = NewWithGuess(d, 8, 3)
	if r.Guess() != 3 {
		t.Fatalf("Guess() = %d, want 3", r.Guess())
	}
	if _, stats := r.Final(in, d.Start()); stats.HitRate() < 0.99 {
		t.Errorf("hit rate %.2f guessing the absorbing state", stats.HitRate())
	}
}

// TestFinalCtxMatchesFinalAndCancels drives Source through a
// multicore core runner under a context, the way fsmbench's lane
// ablation does.
func TestFinalCtxMatchesFinalAndCancels(t *testing.T) {
	rng := rand.New(rand.NewSource(195))
	d := fsm.Random(rng, 12, 3, 0.3)
	in := d.RandomInput(rng, 30000)
	r := New(d, 4, in[:500])
	cr, err := core.New(d, core.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}

	st, stats, err := cr.Drive(context.Background(), in, d.Start(), r.Source(), nil)
	if err != nil {
		t.Fatalf("background ctx errored: %v", err)
	}
	if want := d.Run(in, d.Start()); st != want {
		t.Fatalf("Drive = %d, want %d", st, want)
	}
	if stats.Chunks != 4 {
		t.Fatalf("chunks = %d, want 4", stats.Chunks)
	}
	if final, fs := r.Final(in, d.Start()); final != st || fs.Chunks != stats.Chunks || fs.Misspeculated != stats.Misses {
		t.Fatalf("Final = (%d, %+v), Drive = (%d, %+v)", final, fs, st, stats)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cr.Drive(canceled, in, d.Start(), r.Source(), nil); err != context.Canceled {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
	// Cancellation reaches the one-chunk path too.
	if _, _, err := cr.Drive(canceled, in[:3], d.Start(), r.Source(), nil); err != context.Canceled {
		t.Fatalf("canceled ctx on tiny input: err = %v, want context.Canceled", err)
	}
}
