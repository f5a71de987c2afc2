package core

import (
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
)

// Range coalescing (§5.3, Figures 10–11). After reading symbol a the
// machine can only be in range(T[a]), so states are renamed per symbol:
// state q in range(T[a]) gets the *name of a* that is q's index in
// U_a, where (L_a, U_a) = Factor(T[a]). Per-symbol transition tables
//
//	T_a[b] = U_a ⊗ L_b
//
// map names of a to names of b; their width is the range size, not the
// state count, so even machines with hundreds of states run in one
// ⊗16 shuffle per symbol when the maximum range is ≤ gather.Width
// — and names fit a byte whenever the maximum range is ≤ 256 even if
// |Q| > 256, which is what lets byte-level SIMD run big machines.
//
// The run loop below exploits the associativity of gather to keep the
// working vector at width |range(first symbol)| instead of Figure 11's
// expository n: maintaining C with S_base = L_{a0} ⊗ C ⊗ U_cur, where C
// maps names-of-a0 to names-of-cur. Every step is then one gather over
// at most maxRange lanes (the paper's "single shuffle per input
// character", §6.2).

type rcTables struct {
	// l[a] has length n: l[a][q] = name (index into u[a]) of δ(q, a).
	l [][]byte
	// u[a] maps names of a back to states: u[a][name] = state.
	u [][]fsm.State
	// t[a][b] has length |u[a]|: t[a][b][i] = l[b][u[a][i]], the name
	// of b reached from name i of a on reading b.
	t [][][]byte
	// tf[a] is t[a] flattened with stride w[a] (tf[a][int(b)*w[a]+i] =
	// t[a][b][i]) so the hot loop does one slice index per symbol.
	tf [][]byte
	w  []int
	// fw fuses tf and w so the hot loop touches one cache line for
	// both.
	fw []rcFlat
}

type rcFlat struct {
	f []byte
	w int
}

// buildRCTables precomputes the range-coalesced tables. Requires
// max range ≤ 256 (checked by New).
func buildRCTables(d *fsm.DFA, ranges []int) *rcTables {
	k := d.NumSymbols()
	rc := &rcTables{
		l: make([][]byte, k),
		u: make([][]fsm.State, k),
		t: make([][][]byte, k),
	}
	for a := 0; a < k; a++ {
		l16, u := gather.Factor(d.Column(byte(a)))
		lb := make([]byte, len(l16))
		for i, v := range l16 {
			lb[i] = byte(v)
		}
		rc.l[a] = lb
		rc.u[a] = u
	}
	rc.tf = make([][]byte, k)
	rc.w = make([]int, k)
	rc.fw = make([]rcFlat, k)
	for a := 0; a < k; a++ {
		rc.t[a] = make([][]byte, k)
		ua := rc.u[a]
		w := len(ua)
		rc.w[a] = w
		flat := make([]byte, k*w)
		for b := 0; b < k; b++ {
			lb := rc.l[b]
			tab := flat[b*w : (b+1)*w : (b+1)*w]
			for i, q := range ua {
				tab[i] = lb[q]
			}
			rc.t[a][b] = tab
		}
		rc.tf[a] = flat
		rc.fw[a] = rcFlat{f: flat, w: w}
	}
	return rc
}

// EntryCount reports the total number of table entries, for the §5.3
// memory accounting (e·k entries versus the original n·k).
func (rc *rcTables) EntryCount() int {
	total := 0
	for _, ta := range rc.t {
		for _, tab := range ta {
			total += len(tab)
		}
	}
	return total
}

// noteRCPlain notes one rcLoop pass. The name vector keeps its width
// w0 = |range(input[0])| for the whole input, so the Figure 11 shuffle
// count — ⌈w0/W⌉·⌈|range(prev)|/W⌉ per symbol, the model
// core.ProfileInput replays offline — is a pure function of the input
// symbols. It is therefore reconstructed here in one pass only when the
// run accounts; the hot loop itself carries no accounting at all.
func (r *Runner) noteRCPlain(input []byte, rs *runStats) {
	if rs == nil || len(input) == 0 {
		return
	}
	w0 := r.ranges[input[0]]
	cb := r.rangeBlocks[input[0]]
	var rows int64
	for _, b := range input[:len(input)-1] {
		rows += r.rangeBlocks[b]
	}
	// cb·rows for the body plus one seed row of the L_{a0} lookup.
	rs.note(int64(len(input)-1), cb*rows+cb, 0, 0, w0, w0)
}

// rcLoop runs the coalesced machine over input[1:], starting from the
// identity over names of input[0]. It returns the first symbol, the
// final name-composition vector c (c[i] = name-of-cur reached from name
// i of the first symbol), and the last symbol cur. If phi is non-nil it
// is invoked at every step with the state reached from start.
func (r *Runner) rcLoop(input []byte, phi fsm.Phi, off int, start fsm.State, sc *scratch, rs *runStats) (a0 byte, c []byte, cur byte) {
	rc := r.rc
	a0 = input[0]
	cur = a0
	_, c, _, _ = vecs[byte](sc, len(rc.u[a0]))
	switch {
	case phi == nil && len(c) <= 8:
		// The name vector has fixed width |range(a0)|, so small widths
		// run with lanes held in registers — the scalar stand-in for
		// the paper's one-shuffle-per-symbol regime.
		cur = r.rcTail(input[1:], cur, c)
	case phi == nil:
		for i := 1; i < len(input); i++ {
			b := input[i]
			t := &rc.fw[cur]
			tab := t.f[int(b)*t.w:]
			for j, v := range c {
				c[j] = tab[v]
			}
			cur = b
		}
	default:
		name0 := rc.l[a0][start]
		phi(off, a0, rc.u[a0][name0])
		for i := 1; i < len(input); i++ {
			b := input[i]
			gather.Into(c, c, rc.t[cur][b])
			cur = b
			phi(off+i, b, rc.u[cur][c[name0]])
		}
	}
	r.noteRCPlain(input, rs)
	return a0, c, cur
}

// rcLoopConv is rcLoop with the convergence optimization applied in
// the *name* domain — Figure 7 layered over Figures 10–11, the natural
// composition of the paper's two optimizations. The name vector C
// (width = |range(a0)|) is periodically factored so that machines with
// a wide first-symbol range still collapse into the register regime.
// The invariant mirrors §5.2: C_base = Acc ⊗ C with Acc over names of
// a0. Selected by the RangeConvergence strategy.
func (r *Runner) rcLoopConv(input []byte, sc *scratch, rs *runStats) (a0 byte, acc []byte, c []byte, cur byte) {
	rc := r.rc
	a0 = input[0]
	cur = a0
	w0 := len(rc.u[a0])
	acc, c, l, pos := vecs[byte](sc, w0)
	m := w0
	sinceCheck := 0
	// Unlike rcLoop, the name-vector width shrinks as it converges, so
	// the shuffle count depends on the runtime m trajectory and must be
	// tracked in-loop. The track flag hoists the accounting nil-check so
	// the disabled path pays one predictable branch per symbol.
	const W = gather.Width
	track := rs != nil
	var gathers, shuf, fCalls, fWins int64
	if track {
		shuf = r.rangeBlocks[a0] // first-symbol seed row
	}
	mBlocks := int64((m + W - 1) / W)
	for i := 1; i < len(input); i++ {
		b := input[i]
		if m <= 8 {
			if track {
				// Register-regime tail: ⌈m/W⌉ = 1 output row per
				// symbol times the width blocks of each step's table.
				prev := cur
				for _, bb := range input[i:] {
					shuf += r.rangeBlocks[prev]
					prev = bb
				}
				rs.note(gathers, shuf, fCalls, fWins, w0, m)
				rs.noteConverged(i)
			}
			sub := r.rcTail(input[i:], cur, c[:m])
			return a0, acc, c[:m], sub
		}
		if track {
			shuf += mBlocks * r.rangeBlocks[cur]
			gathers++
		}
		t := &rc.fw[cur]
		tab := t.f[int(b)*t.w:]
		cc := c[:m]
		for j, v := range cc {
			cc[j] = tab[v]
		}
		cur = b
		sinceCheck++
		if m > 1 && sinceCheck >= 4 {
			fCalls++
			if nu := factor(c[:m], l, pos); nu < m {
				gather.Into(acc, acc, l[:m])
				m = nu
				fWins++
				gathers++
				mBlocks = int64((m + W - 1) / W)
				if rs != nil {
					rs.noteWidth(i, m)
				}
			}
			sinceCheck = 0
		}
	}
	rs.note(gathers, shuf, fCalls, fWins, w0, m)
	return a0, acc, c[:m], cur
}

// rcTail advances a compact name vector of width ≤ 8 over the rest of
// the input with register-resident lanes, returning the final current
// symbol. c is updated in place.
func (r *Runner) rcTail(input []byte, cur byte, c []byte) byte {
	rc := r.rc
	switch {
	case len(c) == 1:
		name := c[0]
		for _, b := range input {
			t := &rc.fw[cur]
			name = t.f[int(b)*t.w+int(name)]
			cur = b
		}
		c[0] = name
	case len(c) <= 4:
		// Pad to 4 lanes with duplicates of lane 0; pads are discarded
		// at writeback.
		c0, c1, c2, c3 := c[0], c[0], c[0], c[0]
		if len(c) > 1 {
			c1 = c[1]
		}
		if len(c) > 2 {
			c2 = c[2]
		}
		if len(c) > 3 {
			c3 = c[3]
		}
		for _, b := range input {
			t := &rc.fw[cur]
			f := t.f
			base := int(b) * t.w
			c0, c1, c2, c3 = f[base+int(c0)], f[base+int(c1)], f[base+int(c2)], f[base+int(c3)]
			cur = b
		}
		out := [4]byte{c0, c1, c2, c3}
		copy(c, out[:len(c)])
	default:
		var lane [8]byte
		for j := range lane {
			if j < len(c) {
				lane[j] = c[j]
			} else {
				lane[j] = c[0]
			}
		}
		for _, b := range input {
			t := &rc.fw[cur]
			f := t.f
			base := int(b) * t.w
			lane[0], lane[1], lane[2], lane[3] = f[base+int(lane[0])], f[base+int(lane[1])], f[base+int(lane[2])], f[base+int(lane[3])]
			lane[4], lane[5], lane[6], lane[7] = f[base+int(lane[4])], f[base+int(lane[5])], f[base+int(lane[6])], f[base+int(lane[7])]
			cur = b
		}
		copy(c, lane[:len(c)])
	}
	return cur
}

// rcConvCompVec returns the composition vector under RangeConvergence:
// out[q] = U_cur[C[Acc[L_{a0}[q]]]].
func (r *Runner) rcConvCompVec(input []byte, rs *runStats) []fsm.State {
	out := make([]fsm.State, r.n)
	if len(input) == 0 {
		for q := range out {
			out[q] = fsm.State(q)
		}
		return out
	}
	sc := r.getScratch()
	a0, acc, c, cur := r.rcLoopConv(input, sc, rs)
	la, ucur := r.rc.l[a0], r.rc.u[cur]
	for q := range out {
		out[q] = ucur[c[acc[la[q]]]]
	}
	r.putScratch(sc)
	return out
}

// rcConvFinal returns the final state for one start state under
// RangeConvergence.
func (r *Runner) rcConvFinal(input []byte, start fsm.State, rs *runStats) fsm.State {
	if len(input) == 0 {
		return start
	}
	sc := r.getScratch()
	a0, acc, c, cur := r.rcLoopConv(input, sc, rs)
	final := r.rc.u[cur][c[acc[r.rc.l[a0][start]]]]
	r.putScratch(sc)
	return final
}

// rcCompVec returns the full composition vector via
// out[q] = U_cur[C[L_{a0}[q]]].
func (r *Runner) rcCompVec(input []byte, rs *runStats) []fsm.State {
	out := make([]fsm.State, r.n)
	if len(input) == 0 {
		for q := range out {
			out[q] = fsm.State(q)
		}
		return out
	}
	sc := r.getScratch()
	a0, c, cur := r.rcLoop(input, nil, 0, 0, sc, rs)
	la, ucur := r.rc.l[a0], r.rc.u[cur]
	for q := range out {
		out[q] = ucur[c[la[q]]]
	}
	r.putScratch(sc)
	return out
}

// rcFinal returns the final state for one start state. A non-nil φ is
// invoked at every step, off being the global position of input[0];
// the per-step output is the O(1) lookup U_cur[C[name0]] (§5.3: mapping
// back to states is only needed when calling φ).
func (r *Runner) rcFinal(input []byte, off int, start fsm.State, phi fsm.Phi, rs *runStats) fsm.State {
	if len(input) == 0 {
		return start
	}
	sc := r.getScratch()
	a0, c, cur := r.rcLoop(input, phi, off, start, sc, rs)
	final := r.rc.u[cur][c[r.rc.l[a0][start]]]
	r.putScratch(sc)
	return final
}
