package core

import (
	"math/rand"
	"runtime"
	"testing"

	"dpfsm/internal/fsm"
)

// allStrategies are the single-core strategies under differential test.
var allStrategies = []Strategy{Sequential, Base, BaseILP, Convergence, RangeCoalesced, RangeConvergence}

// machines returns a varied set of machines stressing every code path:
// tiny, converging, permutation (adversarial), byte-boundary sizes, and
// >256-state machines for the uint16 path.
func machines(t testing.TB, rng *rand.Rand) []*fsm.DFA {
	t.Helper()
	var ms []*fsm.DFA
	ms = append(ms,
		fsm.Random(rng, 1, 2, 0.5),
		fsm.Random(rng, 4, 3, 0.5),
		fsm.Random(rng, 16, 8, 0.5),
		fsm.Random(rng, 17, 4, 0.5),
		fsm.Random(rng, 255, 4, 0.5),
		fsm.Random(rng, 256, 4, 0.5),
		fsm.RandomConverging(rng, 64, 8, 5, 0.3),
		fsm.RandomConverging(rng, 300, 6, 12, 0.3), // n>256, range≤256: byte names
		fsm.RandomPermutation(rng, 24, 4, 0.5),
		fsm.Random(rng, 400, 3, 0.5), // n>256, big range: uint16 path
		// The byte/uint16 boundary: 256 states with a full byte of
		// range (every lane and name value in use), then the first
		// uint16 machine.
		fsm.RandomPermutation(rng, 256, 4, 0.5),
		fsm.Random(rng, 257, 4, 0.5),
	)
	return ms
}

func newRunner(t testing.TB, d *fsm.DFA, s Strategy, opts ...Option) *Runner {
	t.Helper()
	r, err := New(d, append([]Option{WithStrategy(s)}, opts...)...)
	if err != nil {
		t.Fatalf("New(%v): %v", s, err)
	}
	return r
}

func TestFinalMatchesSequentialAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for mi, d := range machines(t, rng) {
		for _, strat := range allStrategies {
			if (strat == RangeCoalesced || strat == RangeConvergence) && d.MaxRangeSize() > 256 {
				continue
			}
			r := newRunner(t, d, strat)
			for trial := 0; trial < 10; trial++ {
				in := d.RandomInput(rng, rng.Intn(200))
				st := fsm.State(rng.Intn(d.NumStates()))
				want := d.Run(in, st)
				if got := r.Final(in, st); got != want {
					t.Fatalf("machine %d strategy %v: Final=%d want %d (len %d)",
						mi, strat, got, want, len(in))
				}
			}
		}
	}
}

func TestCompositionVectorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for mi, d := range machines(t, rng) {
		if d.NumStates() > 64 {
			continue // brute force cost
		}
		in := d.RandomInput(rng, 150)
		for _, strat := range allStrategies {
			if (strat == RangeCoalesced || strat == RangeConvergence) && d.MaxRangeSize() > 256 {
				continue
			}
			r := newRunner(t, d, strat)
			vec := r.CompositionVector(in)
			if len(vec) != d.NumStates() {
				t.Fatalf("machine %d strategy %v: vector length %d", mi, strat, len(vec))
			}
			for q := 0; q < d.NumStates(); q++ {
				if want := d.Run(in, fsm.State(q)); vec[q] != want {
					t.Fatalf("machine %d strategy %v: vec[%d]=%d want %d", mi, strat, q, vec[q], want)
				}
			}
		}
	}
}

func TestRunPhiMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for mi, d := range machines(t, rng) {
		in := d.RandomInput(rng, 120)
		st := fsm.State(rng.Intn(d.NumStates()))

		type event struct {
			sym byte
			q   fsm.State
		}
		ref := make([]event, len(in))
		d.RunMealy(in, st, func(pos int, sym byte, q fsm.State) {
			ref[pos] = event{sym, q}
		})

		for _, strat := range allStrategies {
			if (strat == RangeCoalesced || strat == RangeConvergence) && d.MaxRangeSize() > 256 {
				continue
			}
			r := newRunner(t, d, strat)
			got := make([]event, len(in))
			seen := make([]bool, len(in))
			final := r.Run(in, st, func(pos int, sym byte, q fsm.State) {
				if pos < 0 || pos >= len(in) || seen[pos] {
					t.Errorf("machine %d strategy %v: bad/duplicate pos %d", mi, strat, pos)
					return
				}
				seen[pos] = true
				got[pos] = event{sym, q}
			})
			if want := d.Run(in, st); final != want {
				t.Fatalf("machine %d strategy %v: final %d want %d", mi, strat, final, want)
			}
			for i := range ref {
				if !seen[i] {
					t.Fatalf("machine %d strategy %v: φ missing pos %d", mi, strat, i)
				}
				if got[i] != ref[i] {
					t.Fatalf("machine %d strategy %v: φ(%d) = %+v want %+v", mi, strat, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestAcceptsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, d := range machines(t, rng) {
		for _, strat := range allStrategies {
			if (strat == RangeCoalesced || strat == RangeConvergence) && d.MaxRangeSize() > 256 {
				continue
			}
			r := newRunner(t, d, strat)
			for trial := 0; trial < 5; trial++ {
				in := d.RandomInput(rng, rng.Intn(100))
				if r.Accepts(in) != d.Accepts(in) {
					t.Fatalf("strategy %v: Accepts mismatch", strat)
				}
			}
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	d := fsm.RandomConverging(rng, 40, 4, 6, 0.3)
	for _, strat := range allStrategies {
		r := newRunner(t, d, strat)
		for _, n := range []int{0, 1, 2, 3} {
			in := d.RandomInput(rng, n)
			st := fsm.State(rng.Intn(40))
			if got, want := r.Final(in, st), d.Run(in, st); got != want {
				t.Fatalf("strategy %v len %d: %d want %d", strat, n, got, want)
			}
			calls := 0
			r.Run(in, st, func(int, byte, fsm.State) { calls++ })
			if calls != n {
				t.Fatalf("strategy %v len %d: %d φ calls", strat, n, calls)
			}
		}
	}
}

func TestAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	small := fsm.RandomConverging(rng, 100, 4, 8, 0.3) // range ≤ 16 → RangeCoalesced
	r, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy() != RangeCoalesced {
		t.Errorf("auto picked %v for range-%d machine, want range", r.Strategy(), small.MaxRangeSize())
	}

	wide := fsm.Random(rng, 100, 4, 0.3) // random: range ~ n(1-1/e) ≫ 16
	if wide.MaxRangeSize() <= 16 {
		t.Skip("unexpectedly small range in random machine")
	}
	r2, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Strategy() != Convergence {
		t.Errorf("auto picked %v for wide-range machine, want convergence", r2.Strategy())
	}
}

func TestRangeCoalescedRejectsHugeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d := fsm.Random(rng, 400, 4, 0.3) // range > 256 with overwhelming probability
	if d.MaxRangeSize() <= 256 {
		t.Skip("range unexpectedly small")
	}
	if _, err := New(d, WithStrategy(RangeCoalesced)); err == nil {
		t.Error("expected error for range > 256")
	}
}

func TestNewValidatesMachine(t *testing.T) {
	d := fsm.MustNew(2, 2)
	// Corrupt via the only exported mutators is impossible; instead use
	// a machine wrapper: simplest corruption is a bad start via Clone
	// internals — not reachable. So just confirm a valid machine works.
	if _, err := New(d); err != nil {
		t.Fatalf("New on valid machine: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		Auto: "auto", Sequential: "sequential", Base: "base",
		BaseILP: "base-ilp", Convergence: "convergence", RangeCoalesced: "range",
		RangeConvergence: "range+conv",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

func TestWithProcsZeroMeansNumCPU(t *testing.T) {
	d := fsm.MustNew(2, 2)
	r, err := New(d, WithProcs(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Procs() != runtime.NumCPU() {
		t.Errorf("Procs = %d, want NumCPU %d", r.Procs(), runtime.NumCPU())
	}
}

func TestRCEntryCountMatchesDFAAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	d := fsm.RandomConverging(rng, 60, 6, 10, 0.3)
	r := newRunner(t, d, RangeCoalesced)
	if got, want := r.rc.EntryCount(), d.CoalescedEntryCount(); got != want {
		t.Errorf("rc entries %d, DFA accounting %d", got, want)
	}
}

func TestConvCheckEveryExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	d := fsm.RandomConverging(rng, 80, 4, 6, 0.3)
	in := d.RandomInput(rng, 300)
	st := fsm.State(3)
	want := d.Run(in, st)
	for _, k := range []int{1, 2, 7, 1000} {
		r := newRunner(t, d, Convergence, WithConvCheckEvery(k))
		if got := r.Final(in, st); got != want {
			t.Fatalf("convEvery=%d: %d want %d", k, got, want)
		}
	}
}

func TestMachineAccessor(t *testing.T) {
	d := fsm.MustNew(3, 2)
	r, _ := New(d)
	if r.Machine() != d {
		t.Error("Machine() should return the underlying DFA")
	}
}
