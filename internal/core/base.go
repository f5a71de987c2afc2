package core

import (
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
)

// Base enumerative algorithm (Figure 3) and its ILP-unrolled variant
// (Figure 4). These carry the full n-wide state vector on every symbol;
// they exist as the unoptimized reference point the convergence and
// range-coalescing strategies are measured against, and as the
// fallback for machines whose structure defeats both optimizations
// (e.g. permutation transition functions).

// noteBase notes an unoptimized enumerative pass: every one of the
// gathers moved the full n-wide vector through an n-entry table, so the
// §4.2 model charges ⌈n/W⌉² shuffles each, and the active width never
// shrinks.
func (r *Runner) noteBase(rs *runStats, gathers int) {
	nb := int64(r.nBlocks)
	rs.note(int64(gathers), int64(gathers)*nb*nb, 0, 0, r.n, r.n)
}

// baseVec runs Figure 3 and returns the composition vector. T is byte
// when n ≤ 256 (cols = Plan.colsB) and fsm.State above: the paper's
// byte shuffle cannot encode wider states, which is exactly why range
// coalescing's byte renaming matters (§5.3).
func baseVec[T gather.Elem](r *Runner, cols [][]T, input []byte, rs *runStats) []T {
	s := gather.Identity[T](r.n)
	for _, a := range input {
		gather.Into(s, s, cols[a])
	}
	r.noteBase(rs, len(input))
	return s
}

// baseILPVec is Figure 4: the loop is unrolled 3× and rewritten with
// the associativity of gather so that two gathers per round have no
// dependence on each other — S·T[a] alongside T[b]·T[c] — exposing
// instruction-level parallelism.
func baseILPVec[T gather.Elem](r *Runner, cols [][]T, input []byte, rs *runStats) []T {
	s := gather.Identity[T](r.n)
	tbc := make([]T, r.n)
	i := 0
	for ; i+3 <= len(input); i += 3 {
		a, b, c := input[i], input[i+1], input[i+2]
		// Independent pair: Sa = S ⊗ T[a] and Tbc = T[b] ⊗ T[c].
		gather.Into(s, s, cols[a])
		gather.Into(tbc, cols[b], cols[c])
		// S = Sa ⊗ Tbc.
		gather.Into(s, s, tbc)
	}
	for ; i < len(input); i++ {
		gather.Into(s, s, cols[input[i]])
	}
	// Each unrolled round issues 3 gathers for 3 symbols, and the tail
	// one per symbol, so the gather count equals the input length.
	r.noteBase(rs, len(input))
	return s
}

// baseRun is Figure 3 with the φ callback: the actual FSM state is
// S[start] at every step.
func baseRun[T gather.Elem](r *Runner, cols [][]T, input []byte, off int, start fsm.State, phi fsm.Phi, rs *runStats) fsm.State {
	s := gather.Identity[T](r.n)
	for i, a := range input {
		gather.Into(s, s, cols[a])
		phi(off+i, a, fsm.State(s[start]))
	}
	r.noteBase(rs, len(input))
	return fsm.State(s[start])
}
