package core

import (
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
)

// Convergence optimization (§5.2, Figure 7). The enumerative vector S
// is kept in factored form: a lookup vector Acc of length n (updated
// only at convergence checks) and a compact active vector S holding one
// entry per distinct reachable state. The loop invariant is
//
//	S_base = Acc ⊗ S
//
// where S_base is what Figure 3's unfactored vector would hold. Gathers
// between checks touch only len(S) = m lanes, so once the machine
// converges to ≤ gather.Width active states every step costs a single
// ⊗16 shuffle under the §4.2 model, regardless of n.
//
// One loop serves both state widths: T is byte when n ≤ 256 (lanes
// over Plan.colsB) and fsm.State above (lanes over Plan.cols16).
// Convergence checks cost a linear-time Factor (factor, scratch.go; no
// hardware support, §5.1), so they are issued by the paper's two
// heuristics:
//
//  1. statically, the range of the just-consumed symbol bounds the
//     number of active states, so a check fires whenever that bound
//     promises a drop of at least gather.Width; and
//  2. a fallback cadence of one check every convEvery symbols.

// convShouldCheck reports whether a convergence check is worthwhile
// after consuming symbol a with m currently active states. The two
// heuristics of §5.2: the static range of the just-consumed symbol
// (an immediate check when it promises a large drop, a rate-limited
// one for any promised drop), plus a fallback cadence.
func (r *Runner) convShouldCheck(a byte, m, sinceCheck int) bool {
	if m <= 1 {
		return false // cannot shrink further
	}
	bound := r.ranges[a]
	if bound+gather.Width <= m {
		return true
	}
	if bound < m && sinceCheck >= 4 {
		return true
	}
	return sinceCheck >= r.convEvery
}

// convVec runs Figure 7 and returns the full composition vector
// Acc ⊗ S.
func convVec[T gather.Elem](r *Runner, cols [][]T, input []byte, rs *runStats) []fsm.State {
	sc := r.getScratch()
	acc, s := convLoop(r, cols, input, nil, 0, 0, sc, rs)
	out := make([]fsm.State, r.n)
	for q := range out {
		out[q] = fsm.State(s[acc[q]])
	}
	r.putScratch(sc)
	return out
}

// convFinal runs Figure 7 and reads the single entry for start. A
// non-nil φ is invoked at every step, off being the global position of
// input[0]; only the entry for start is materialized per step (§5.2:
// "it is not necessary to compute all elements of S_base").
func convFinal[T gather.Elem](r *Runner, cols [][]T, input []byte, off int, start fsm.State, phi fsm.Phi, rs *runStats) fsm.State {
	sc := r.getScratch()
	acc, s := convLoop(r, cols, input, phi, off, start, sc, rs)
	final := fsm.State(s[acc[start]])
	r.putScratch(sc)
	return final
}

// convLoop is the Figure 7 loop. If phi is non-nil it is invoked after
// every symbol with the state reached from start. Returns the final
// (Acc, S) pair satisfying S_base = Acc ⊗ S; both are views into sc,
// valid until the scratch is pooled again.
func convLoop[T gather.Elem](r *Runner, cols [][]T, input []byte, phi fsm.Phi, off int, start fsm.State, sc *scratch, rs *runStats) (acc, s []T) {
	acc, s, l, pos := vecs[T](sc, r.n)
	m := r.n // active states
	sinceCheck := 0
	// Telemetry accounting stays in stack locals so the disabled path
	// costs two register adds per symbol, flushed once at exit.
	// shufBlocks accumulates ⌈m/W⌉ per symbol; the §4.2 shuffle count
	// is shufBlocks·⌈n/W⌉ since the table block count is constant.
	var gathers, shufBlocks, fCalls, fWins int64
	mBlocks := int64((m + gather.Width - 1) / gather.Width)
	for i, a := range input {
		if phi == nil && m <= 8 {
			// The register tail advances m ≤ 8 lanes per symbol:
			// ⌈m/W⌉ = 1 shuffle-row per remaining symbol.
			shufBlocks += int64(len(input) - i)
			if rs != nil {
				rs.noteConverged(off + i)
			}
			rs.note(gathers, shufBlocks*int64(r.nBlocks), fCalls, fWins, r.n, m)
			// No further convergence checks — the residual win of
			// shrinking 8 → 2 lanes is below the cost of checking,
			// matching §5.2's advice to check only for dramatic
			// decreases.
			convTail(cols, input[i:], s[:m])
			return acc, s[:m]
		}
		tab := cols[a]
		ss := s[:m]
		for j, v := range ss {
			ss[j] = tab[v]
		}
		gathers++
		shufBlocks += mBlocks
		sinceCheck++
		if r.convShouldCheck(a, m, sinceCheck) {
			fCalls++
			if nu := factor(s[:m], l, pos); nu < m {
				gather.Into(acc, acc, l[:m])
				m = nu
				fWins++
				gathers++
				mBlocks = int64((m + gather.Width - 1) / gather.Width)
				if rs != nil {
					rs.noteWidth(off+i, m)
				}
			}
			sinceCheck = 0
		}
		if phi != nil {
			phi(off+i, a, fsm.State(s[acc[start]]))
		}
	}
	rs.note(gathers, shufBlocks*int64(r.nBlocks), fCalls, fWins, r.n, m)
	return acc, s[:m]
}

// convTail finishes a run that has converged into the register regime:
// the m = len(s) ≤ 8 active states advance as independent loads held in
// registers (m == 1 degenerates to the sequential chase), so per-symbol
// cost is proportional to the active states and not to n (§5.2). s is
// updated in place.
func convTail[T gather.Elem](cols [][]T, input []byte, s []T) {
	switch m := len(s); {
	case m == 1:
		q := s[0]
		for _, b := range input {
			q = cols[b][q]
		}
		s[0] = q
	case m <= 4:
		// Pad to 4 lanes with duplicates of lane 0; pads are discarded
		// at writeback.
		c0, c1, c2, c3 := s[0], s[0], s[0], s[0]
		if m > 1 {
			c1 = s[1]
		}
		if m > 2 {
			c2 = s[2]
		}
		if m > 3 {
			c3 = s[3]
		}
		for _, b := range input {
			tab := cols[b]
			c0, c1, c2, c3 = tab[c0], tab[c1], tab[c2], tab[c3]
		}
		out := [4]T{c0, c1, c2, c3}
		copy(s, out[:m])
	default:
		var lane [8]T
		for j := range lane {
			if j < m {
				lane[j] = s[j]
			} else {
				lane[j] = s[0]
			}
		}
		for _, b := range input {
			tab := cols[b]
			lane[0], lane[1], lane[2], lane[3] = tab[lane[0]], tab[lane[1]], tab[lane[2]], tab[lane[3]]
			lane[4], lane[5], lane[6], lane[7] = tab[lane[4]], tab[lane[5]], tab[lane[6]], tab[lane[7]]
		}
		copy(s, lane[:m])
	}
}
