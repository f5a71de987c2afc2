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

// baseVecBytes runs Figure 3 over byte-encoded states (n ≤ 256) and
// returns the composition vector.
func (r *Runner) baseVecBytes(input []byte, rs *runStats) []byte {
	s := gather.Identity[byte](r.n)
	for _, a := range input {
		r.gatherB(s, s, r.colsB[a])
	}
	r.noteBase(rs, len(input))
	return s
}

// baseVec16 is Figure 3 over uint16 states (n > 256), using the scalar
// gather: the paper's byte shuffle cannot encode these states, which is
// exactly why range coalescing's byte renaming matters (§5.3).
func (r *Runner) baseVec16(input []byte, rs *runStats) []fsm.State {
	s := gather.Identity[fsm.State](r.n)
	for _, a := range input {
		gather.Into(s, s, r.cols16[a])
	}
	r.noteBase(rs, len(input))
	return s
}

// baseILPVecBytes is Figure 4: the loop is unrolled 3× and rewritten
// with the associativity of gather so that two gathers per round have
// no dependence on each other — S·T[a] alongside T[b]·T[c] — exposing
// instruction-level parallelism.
func (r *Runner) baseILPVecBytes(input []byte, rs *runStats) []byte {
	s := gather.Identity[byte](r.n)
	tbc := make([]byte, r.n)
	i := 0
	for ; i+3 <= len(input); i += 3 {
		a, b, c := input[i], input[i+1], input[i+2]
		// Independent pair: Sa = S ⊗ T[a] and Tbc = T[b] ⊗ T[c].
		r.gatherB(s, s, r.colsB[a])
		r.gatherB(tbc, r.colsB[b], r.colsB[c])
		// S = Sa ⊗ Tbc.
		r.gatherB(s, s, tbc)
	}
	for ; i < len(input); i++ {
		r.gatherB(s, s, r.colsB[input[i]])
	}
	// Each unrolled round issues 3 gathers for 3 symbols, and the tail
	// one per symbol, so the gather count equals the input length.
	r.noteBase(rs, len(input))
	return s
}

// baseILPVec16 is Figure 4 over uint16 states.
func (r *Runner) baseILPVec16(input []byte, rs *runStats) []fsm.State {
	s := gather.Identity[fsm.State](r.n)
	tbc := make([]fsm.State, r.n)
	i := 0
	for ; i+3 <= len(input); i += 3 {
		a, b, c := input[i], input[i+1], input[i+2]
		gather.Into(s, s, r.cols16[a])
		gather.Into(tbc, r.cols16[b], r.cols16[c])
		gather.Into(s, s, tbc)
	}
	for ; i < len(input); i++ {
		gather.Into(s, s, r.cols16[input[i]])
	}
	r.noteBase(rs, len(input))
	return s
}

// baseRunBytes is Figure 3 with the φ callback: the actual FSM state is
// S[st] at every step.
func (r *Runner) baseRunBytes(input []byte, off int, start fsm.State, phi fsm.Phi, rs *runStats) fsm.State {
	s := gather.Identity[byte](r.n)
	for i, a := range input {
		r.gatherB(s, s, r.colsB[a])
		phi(off+i, a, fsm.State(s[start]))
	}
	r.noteBase(rs, len(input))
	return fsm.State(s[start])
}

func (r *Runner) baseRun16(input []byte, off int, start fsm.State, phi fsm.Phi, rs *runStats) fsm.State {
	s := gather.Identity[fsm.State](r.n)
	for i, a := range input {
		gather.Into(s, s, r.cols16[a])
		phi(off+i, a, s[start])
	}
	r.noteBase(rs, len(input))
	if len(input) == 0 {
		return start
	}
	return s[start]
}
