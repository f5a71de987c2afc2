package core

import (
	"math/rand"
	"testing"

	"dpfsm/internal/fsm"
)

func TestProfileBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(250))
	d := fsm.RandomConverging(rng, 40, 4, 5, 0.3)
	in := d.RandomInput(rng, 500)
	p := ProfileInput(d, in)
	if p.Symbols != 500 {
		t.Fatalf("Symbols = %d", p.Symbols)
	}
	if !p.RangeOK {
		t.Fatal("small-range machine should be range-codable")
	}
	if p.FinalActive < 1 || p.FinalActive > p.MaxActive {
		t.Fatalf("active accounting: final %d max %d", p.FinalActive, p.MaxActive)
	}
	// Converging machine with range ≤ 5: both models should be at or
	// near one shuffle per symbol once converged.
	if p.RangePerSymbol() > 1.01 {
		t.Errorf("range shuffles/symbol = %v, want ≈1", p.RangePerSymbol())
	}
	best, winner := p.BestPerSymbol()
	if best > p.ConvPerSymbol()+1e-9 {
		t.Error("best must not exceed conv")
	}
	if winner != Convergence && winner != RangeCoalesced {
		t.Errorf("winner = %v, want a real optimization label", winner)
	}
	// On a range-5 machine the range model should win (≈1 shuffle per
	// symbol from the first input byte) over convergence's wide start.
	if p.RangePerSymbol() < p.ConvPerSymbol() && winner != RangeCoalesced {
		t.Errorf("winner = %v, want range (range %v < conv %v)",
			winner, p.RangePerSymbol(), p.ConvPerSymbol())
	}
}

func TestProfileFinalActiveMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	for iter := 0; iter < 20; iter++ {
		d := fsm.Random(rng, 1+rng.Intn(30), 1+rng.Intn(4), 0.3)
		in := d.RandomInput(rng, 100)
		p := ProfileInput(d, in)
		// Distinct final states by brute force.
		distinct := map[fsm.State]bool{}
		for q := 0; q < d.NumStates(); q++ {
			distinct[d.Run(in, fsm.State(q))] = true
		}
		if p.FinalActive != len(distinct) {
			t.Fatalf("FinalActive %d, brute force %d", p.FinalActive, len(distinct))
		}
	}
}

func TestProfilePermutationNeverCheap(t *testing.T) {
	rng := rand.New(rand.NewSource(252))
	d := fsm.RandomPermutation(rng, 64, 4, 0.3)
	in := d.RandomInput(rng, 200)
	p := ProfileInput(d, in)
	// 64 states never converge: 4 blocks × 4 blocks = 16 shuffles/symbol.
	if got := p.ConvPerSymbol(); got < 15.9 {
		t.Errorf("permutation machine conv shuffles/symbol = %v, want 16", got)
	}
	if p.FinalActive != 64 {
		t.Errorf("FinalActive = %d, want 64", p.FinalActive)
	}
}

func TestProfileEmptyInput(t *testing.T) {
	d := fsm.MustNew(4, 2)
	p := ProfileInput(d, nil)
	best, _ := p.BestPerSymbol()
	if p.ConvPerSymbol() != 0 || p.RangePerSymbol() != 0 || best != 0 {
		t.Error("empty input should have zero per-symbol costs")
	}
}

func TestProfileHugeRangeDisablesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(253))
	d := fsm.Random(rng, 400, 3, 0.3)
	if d.MaxRangeSize() <= 256 {
		t.Skip("range unexpectedly small")
	}
	p := ProfileInput(d, d.RandomInput(rng, 50))
	if p.RangeOK || p.RangePerSymbol() != 0 {
		t.Error("range model should be disabled for >256 ranges")
	}
	best, winner := p.BestPerSymbol()
	if best != p.ConvPerSymbol() || winner != Convergence {
		t.Error("best should fall back to conv, labelled Convergence")
	}
}

// TestProfilePinned pins ProfileInput's counts on a few machines to
// the values the allocating gather.Factor replay produced, so the
// in-place factor changes how the model runs but not what it reports.
func TestProfilePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(260))
	ds := []*fsm.DFA{
		fsm.RandomConverging(rng, 300, 6, 12, 0.3),
		fsm.RandomPermutation(rng, 40, 4, 0.3),
		fsm.Random(rng, 50, 8, 0.3),
		fsm.RandomConverging(rng, 200, 16, 40, 0.3),
	}
	want := []Profile{
		{Symbols: 4096, ConvShuffles: 78166, RangeShuffles: 4096, RangeOK: true, MaxActive: 8, FinalActive: 1, FactorCalls: 5},
		{Symbols: 4096, ConvShuffles: 36864, RangeShuffles: 36858, RangeOK: true, MaxActive: 40, FinalActive: 40, FactorCalls: 0},
		{Symbols: 4096, ConvShuffles: 16404, RangeShuffles: 17408, RangeOK: true, MaxActive: 31, FinalActive: 1, FactorCalls: 13},
		{Symbols: 4096, ConvShuffles: 53417, RangeShuffles: 15964, RangeOK: true, MaxActive: 26, FinalActive: 1, FactorCalls: 9},
	}
	for i, d := range ds {
		if got := ProfileInput(d, d.RandomInput(rng, 4096)); got != want[i] {
			t.Errorf("machine %d: ProfileInput = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestProfileAllocsFlat: ProfileInput allocates its scratch once per
// call, not per symbol, so the count does not grow with the input.
func TestProfileAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	d := fsm.RandomConverging(rng, 300, 6, 12, 0.3)
	short, long := d.RandomInput(rng, 1<<10), d.RandomInput(rng, 64<<10)
	a := testing.AllocsPerRun(5, func() { ProfileInput(d, short) })
	b := testing.AllocsPerRun(5, func() { ProfileInput(d, long) })
	if a != b || b > 16 {
		t.Fatalf("ProfileInput allocates %v times on 1 KiB and %v on 64 KiB; want one small constant", a, b)
	}
}
