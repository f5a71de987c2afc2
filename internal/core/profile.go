package core

import (
	"slices"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
)

// Shuffle-count profiling. §6.1 reports that "for more than 80% of
// these FSMs, our implementation performs one or two shuffle operations
// per input symbol". Profile replays an input under both optimizations'
// cost models — counting emulated ⊗W,W invocations per symbol exactly
// as the blocked construction of §4.2 would issue them — so that claim
// is measurable on any corpus (fsmbench -experiment shuffles).

// Profile summarizes the per-symbol gather work of one machine on one
// input.
type Profile struct {
	// Symbols is the input length.
	Symbols int
	// ConvShuffles is the total ⊗16,16 count under the convergence
	// strategy: per symbol, ⌈m/W⌉·⌈n/W⌉ with m the current active
	// count and n the machine size.
	ConvShuffles int
	// RangeShuffles is the total under range coalescing: per symbol,
	// ⌈w0/W⌉·⌈range(prev)/W⌉ with w0 the first symbol's range (the
	// compact name-vector width). Zero when the machine's range
	// exceeds byte encoding (range coalescing inapplicable).
	RangeShuffles int
	// RangeOK reports whether range coalescing applies (max range ≤ 256).
	RangeOK bool
	// MaxActive and FinalActive track the enumerative vector.
	MaxActive, FinalActive int
	// FactorCalls counts convergence checks that actually shrank the
	// vector (the Factor invocations §5.1 says to use sparingly).
	FactorCalls int
}

// ConvPerSymbol returns the mean shuffles per symbol under convergence.
func (p Profile) ConvPerSymbol() float64 {
	if p.Symbols == 0 {
		return 0
	}
	return float64(p.ConvShuffles) / float64(p.Symbols)
}

// RangePerSymbol returns the mean shuffles per symbol under range
// coalescing (0 when inapplicable).
func (p Profile) RangePerSymbol() float64 {
	if p.Symbols == 0 || !p.RangeOK {
		return 0
	}
	return float64(p.RangeShuffles) / float64(p.Symbols)
}

// BestPerSymbol returns the mean shuffles per symbol under whichever
// optimization is cheaper — what an FSM compiler (§6.1) would pick —
// and labels the winner: RangeCoalesced when the range model won,
// Convergence otherwise (including ties and machines whose range
// exceeds byte encoding, where range coalescing is inapplicable).
func (p Profile) BestPerSymbol() (perSymbol float64, winner Strategy) {
	c := p.ConvPerSymbol()
	if !p.RangeOK {
		return c, Convergence
	}
	if r := p.RangePerSymbol(); r < c {
		return r, RangeCoalesced
	}
	return c, Convergence
}

// ProfileInput replays input through the machine's enumerative
// execution and returns the shuffle accounting. The convergence model
// factors eagerly (every step), so ConvShuffles is the optimum the
// check heuristics approach; the range model follows Figure 11
// exactly.
func ProfileInput(d *fsm.DFA, input []byte) Profile {
	n := d.NumStates()
	p := Profile{Symbols: len(input)}
	ranges := d.RangeSizes()
	p.RangeOK = slices.Max(ranges) <= 256
	blocks := func(w int) int { return (w + gather.Width - 1) / gather.Width }

	// Convergence accounting: track the exact active set, stepping and
	// factoring it in place in one scratch for the whole input.
	var sc scratch
	_, s, l, pos := vecs[fsm.State](&sc, n)
	m := n
	nBlocks := blocks(n)
	for i, a := range input {
		p.ConvShuffles += blocks(m) * nBlocks
		col := d.Column(a)
		for j, q := range s[:m] {
			s[j] = col[q]
		}
		if nu := factor(s[:m], l, pos); nu < m {
			p.FactorCalls++
			m = nu
		}
		p.MaxActive = max(p.MaxActive, m)

		// Range accounting for the same step.
		if p.RangeOK {
			if i == 0 {
				// First symbol: the L_a lookup seeds the name vector.
				// The paper amortizes this as setup; to stay
				// conservative we charge ⌈|range(a)|/W⌉ — one shuffle
				// row per block of the seeded name vector.
				p.RangeShuffles += blocks(ranges[a])
			} else {
				p.RangeShuffles += blocks(ranges[input[0]]) * blocks(ranges[input[i-1]])
			}
		}
	}
	p.FinalActive = m
	return p
}
