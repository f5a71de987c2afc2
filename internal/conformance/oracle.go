package conformance

import "dpfsm/internal/fsm"

// The oracle. Deliberately the dumbest possible interpreter: one
// symbol, one table lookup, via the bounds-checked DFA.Next accessor.
// It shares no code with the unrolled sequential baseline (fsm.
// RunUnrolled), the enumerative kernels, or the multicore scheduler,
// so a bug in any of those cannot cancel out of a comparison.

// OracleFinal returns the state the machine reaches from start after
// consuming input, computed one transition at a time.
func OracleFinal(d *fsm.DFA, input []byte, start fsm.State) fsm.State {
	q := start
	for _, a := range input {
		q = d.Next(q, a)
	}
	return q
}

// OracleVector returns the composed transition function of the whole
// input: element q is OracleFinal(d, input, q). This is the quantity
// phase 1 of the multicore algorithm computes per chunk, derived here
// by |Q| independent scalar runs.
func OracleVector(d *fsm.DFA, input []byte) []fsm.State {
	vec := make([]fsm.State, d.NumStates())
	for q := range vec {
		vec[q] = OracleFinal(d, input, fsm.State(q))
	}
	return vec
}

// OracleFirstAccept returns the index of the symbol after which the
// machine, run from start, first sits in an accepting state, or -1
// when it never does (core.FirstAccept's contract).
func OracleFirstAccept(d *fsm.DFA, input []byte, start fsm.State) int {
	q := start
	for i, a := range input {
		q = d.Next(q, a)
		if d.Accepting(q) {
			return i
		}
	}
	return -1
}
