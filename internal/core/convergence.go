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
// converges to ≤ gather.Width active states every step is a single
// emulated shuffle regardless of n.
//
// Convergence checks cost a linear-time Factor (no hardware support,
// §5.1), so they are issued by the paper's two heuristics:
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

// convCompVecBytes runs Figure 7 over byte states and returns the full
// composition vector Acc ⊗ S.
func (r *Runner) convCompVecBytes(input []byte, rs *runStats) []fsm.State {
	sc := r.getScratch()
	acc, s := r.convLoopBytes(input, nil, 0, 0, sc, rs)
	out := make([]fsm.State, r.n)
	for q := range out {
		out[q] = fsm.State(s[acc[q]])
	}
	r.putScratch(sc)
	return out
}

// convFinalBytes runs Figure 7 and reads the single entry for start.
func (r *Runner) convFinalBytes(input []byte, start fsm.State, rs *runStats) fsm.State {
	sc := r.getScratch()
	acc, s := r.convLoopBytes(input, nil, 0, 0, sc, rs)
	final := fsm.State(s[acc[start]])
	r.putScratch(sc)
	return final
}

// convRunBytes runs Figure 7 invoking φ at every step. Only the entry
// for the start state is materialized per step (§5.2: "it is not
// necessary to compute all elements of S_base").
func (r *Runner) convRunBytes(input []byte, off int, start fsm.State, phi fsm.Phi, rs *runStats) fsm.State {
	sc := r.getScratch()
	acc, s := r.convLoopBytes(input, phi, off, start, sc, rs)
	final := fsm.State(s[acc[start]])
	r.putScratch(sc)
	return final
}

// convLoopBytes is the shared Figure 7 loop. If phi is non-nil it is
// invoked after every symbol with the state reached from start.
// Returns the final (Acc, S) pair satisfying S_base = Acc ⊗ S; both
// are views into sc, valid until the scratch is pooled again.
func (r *Runner) convLoopBytes(input []byte, phi fsm.Phi, off int, start fsm.State, sc *scratch, rs *runStats) (acc, s []byte) {
	acc, s = sc.byteVecs(r.n)
	m := r.n // active states
	sinceCheck := 0
	// Telemetry accounting stays in stack locals so the disabled path
	// costs two register adds per symbol, flushed once at exit.
	// shufBlocks accumulates ⌈m/W⌉ per symbol; the §4.2 shuffle count
	// is shufBlocks·⌈n/W⌉ since the table block count is constant.
	var gathers, shufBlocks, fCalls, fWins int64
	mBlocks := int64((m + gather.Width - 1) / gather.Width)
	var lbuf, ubuf [256]byte // scratch for the inline Factor
	for i, a := range input {
		if phi == nil && !r.simd && m <= 8 {
			// The register tail advances m ≤ 8 lanes per symbol:
			// ⌈m/W⌉ = 1 shuffle-row per remaining symbol.
			shufBlocks += int64(len(input) - i)
			if rs != nil {
				rs.noteConverged(off + i)
			}
			rs.note(gathers, shufBlocks*int64(r.nBlocks), fCalls, fWins, r.n, m)
			// Converged into the register regime: finish the input
			// with lanes in registers (m == 1 degenerates to the
			// sequential chase). No further convergence checks — the
			// residual win of shrinking 8 → 2 lanes is below the cost
			// of checking, matching §5.2's advice to check only for
			// dramatic decreases.
			rest := input[i:]
			switch {
			case m == 1:
				q := s[0]
				for _, b := range rest {
					q = r.colsB[b][q]
				}
				s[0] = q
			case m <= 4:
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
				for _, b := range rest {
					tab := r.colsB[b]
					c0, c1, c2, c3 = tab[c0], tab[c1], tab[c2], tab[c3]
				}
				out := [4]byte{c0, c1, c2, c3}
				copy(s, out[:m])
			default:
				var lane [8]byte
				for j := 0; j < 8; j++ {
					if j < m {
						lane[j] = s[j]
					} else {
						lane[j] = s[0]
					}
				}
				for _, b := range rest {
					tab := r.colsB[b]
					lane[0], lane[1], lane[2], lane[3] = tab[lane[0]], tab[lane[1]], tab[lane[2]], tab[lane[3]]
					lane[4], lane[5], lane[6], lane[7] = tab[lane[4]], tab[lane[5]], tab[lane[6]], tab[lane[7]]
				}
				copy(s, lane[:m])
			}
			return acc, s[:m]
		}
		if r.simd {
			gather.SIMDInto(s[:m], s[:m], r.colsB[a])
		} else {
			tab := r.colsB[a]
			ss := s[:m]
			for j, v := range ss {
				ss[j] = tab[v]
			}
		}
		gathers++
		shufBlocks += mBlocks
		sinceCheck++
		if r.convShouldCheck(a, m, sinceCheck) {
			fCalls++
			// Zero-allocation Factor specialized for the byte path:
			// O(m·|U|) scan, fine because m is small after the first
			// convergence and |U| ≤ m.
			nu := 0
			for j := 0; j < m; j++ {
				v := s[j]
				k := 0
				for ; k < nu; k++ {
					if ubuf[k] == v {
						break
					}
				}
				if k == nu {
					ubuf[nu] = v
					nu++
				}
				lbuf[j] = byte(k)
			}
			if nu < m {
				r.gatherB(acc, acc, lbuf[:m])
				copy(s, ubuf[:nu])
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

// convCompVec16, convFinal16, convRun16 are the uint16-state versions
// for machines with more than 256 states; the algorithm is identical
// but gathers use the scalar kernel.

func (r *Runner) convCompVec16(input []byte, rs *runStats) []fsm.State {
	sc := r.getScratch()
	acc, s := r.convLoop16(input, nil, 0, 0, sc, rs)
	out := make([]fsm.State, r.n)
	for q := range out {
		out[q] = s[acc[q]]
	}
	r.putScratch(sc)
	return out
}

func (r *Runner) convFinal16(input []byte, start fsm.State, rs *runStats) fsm.State {
	sc := r.getScratch()
	acc, s := r.convLoop16(input, nil, 0, 0, sc, rs)
	final := s[acc[start]]
	r.putScratch(sc)
	return final
}

func (r *Runner) convRun16(input []byte, off int, start fsm.State, phi fsm.Phi, rs *runStats) fsm.State {
	sc := r.getScratch()
	acc, s := r.convLoop16(input, phi, off, start, sc, rs)
	final := s[acc[start]]
	r.putScratch(sc)
	return final
}

func (r *Runner) convLoop16(input []byte, phi fsm.Phi, off int, start fsm.State, sc *scratch, rs *runStats) (acc, s []fsm.State) {
	acc, s = sc.stateVecs(r.n)
	m := r.n
	sinceCheck := 0
	var gathers, shufBlocks, fCalls, fWins int64
	mBlocks := int64((m + gather.Width - 1) / gather.Width)
	for i, a := range input {
		if phi == nil && m <= 8 {
			shufBlocks += int64(len(input) - i)
			if rs != nil {
				rs.noteConverged(off + i)
			}
			rs.note(gathers, shufBlocks*int64(r.nBlocks), fCalls, fWins, r.n, m)
			// Same register regime as the byte path: once converged,
			// per-symbol cost is a handful of independent loads —
			// §5.2's "overhead proportional to the number of active
			// states and not to the total number of states" holds for
			// >256-state machines too.
			rest := input[i:]
			switch {
			case m == 1:
				q := s[0]
				for _, b := range rest {
					q = r.cols16[b][q]
				}
				s[0] = q
			case m <= 4:
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
				for _, b := range rest {
					tab := r.cols16[b]
					c0, c1, c2, c3 = tab[c0], tab[c1], tab[c2], tab[c3]
				}
				out := [4]fsm.State{c0, c1, c2, c3}
				copy(s, out[:m])
			default:
				var lane [8]fsm.State
				for j := 0; j < 8; j++ {
					if j < m {
						lane[j] = s[j]
					} else {
						lane[j] = s[0]
					}
				}
				for _, b := range rest {
					tab := r.cols16[b]
					lane[0], lane[1], lane[2], lane[3] = tab[lane[0]], tab[lane[1]], tab[lane[2]], tab[lane[3]]
					lane[4], lane[5], lane[6], lane[7] = tab[lane[4]], tab[lane[5]], tab[lane[6]], tab[lane[7]]
				}
				copy(s, lane[:m])
			}
			return acc, s[:m]
		}
		tab := r.cols16[a]
		ss := s[:m]
		for j, v := range ss {
			ss[j] = tab[v]
		}
		gathers++
		shufBlocks += mBlocks
		sinceCheck++
		if r.convShouldCheck(a, m, sinceCheck) {
			fCalls++
			// Inline factor; states exceed a byte, so the lookup table
			// uses the n-sized scratch (amortized: checks are rare and
			// m shrinks fast).
			l, u := gather.Factor(s[:m])
			if len(u) < m {
				gather.Into(acc, acc, l)
				copy(s, u)
				m = len(u)
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
			phi(off+i, a, s[acc[start]])
		}
	}
	rs.note(gathers, shufBlocks*int64(r.nBlocks), fCalls, fWins, r.n, m)
	return acc, s[:m]
}
