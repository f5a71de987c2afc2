package core

import (
	"fmt"
	"slices"

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
	// fw[a] holds the k tables T_a[b] back to back, each |u[a]| wide:
	// fw[a].f[int(b)*fw[a].w+i] = l[b][u[a][i]], the name of b reached
	// from name i of a on reading b. One flat slice per symbol with its
	// stride beside it keeps the set at e·k entries and lets the hot
	// loop touch one cache line for both.
	fw []rcFlat
}

// rcFlat is read by the native kernel (rckernel_amd64.s) at fixed
// offsets: f's data pointer at 0, w at 24, a stride of 32 bytes.
type rcFlat struct {
	f []byte
	w int
}

// rcSpare is the capacity each flat table carries past its last row,
// so a 16-byte row load at any symbol stays inside the allocation. It
// is not part of the table: EntryCount and the wire count len(f).
// The k tables share one backing array, so a table's spare capacity
// overlaps the start of the next and only the last needs its own
// rcSpare bytes.
const rcSpare = gather.Width

// row returns T_a[b] out of a's flat table.
func (t *rcFlat) row(b byte) []byte {
	return t.f[int(b)*t.w : (int(b)+1)*t.w]
}

// buildRCTables is the only constructor of range-coalesced tables:
// compile builds them for a fresh plan, and UnmarshalPlan rebuilds
// them from the decoded machine to check the wire's copy against.
// ranges are d's per-symbol range sizes; names are bytes, so their
// maximum must be ≤ 256.
func buildRCTables(d *fsm.DFA, ranges []int) (*rcTables, error) {
	if m := slices.Max(ranges); m > 256 {
		return nil, fmt.Errorf("core: range coalescing needs max range ≤ 256, machine has %d (use Convergence)", m)
	}
	n, k := d.NumStates(), d.NumSymbols()
	rc := &rcTables{
		l:  make([][]byte, k),
		u:  make([][]fsm.State, k),
		fw: make([]rcFlat, k),
	}
	// factor names each column's states in first-occurrence order, as
	// gather.Factor does, so the tables are a pure function of d.
	s, l, pos := make([]fsm.State, n), make([]fsm.State, n), make([]uint32, n)
	for a := range k {
		copy(s, d.Column(byte(a)))
		w := factor(s, l, pos)
		rc.u[a] = slices.Clone(s[:w])
		rc.l[a] = make([]byte, n)
		for q, v := range l {
			rc.l[a][q] = byte(v)
		}
	}
	total := 0
	for _, ua := range rc.u {
		total += k * len(ua)
	}
	flat := make([]byte, 0, total+rcSpare)
	for a, ua := range rc.u {
		start := len(flat)
		for _, lb := range rc.l {
			for _, q := range ua {
				flat = append(flat, lb[q])
			}
		}
		rc.fw[a] = rcFlat{f: flat[start : len(flat) : len(flat)+rcSpare], w: len(ua)}
	}
	return rc, nil
}

// EntryCount reports the total number of table entries, for the §5.3
// memory accounting (e·k entries versus the original n·k).
func (rc *rcTables) EntryCount() int {
	total := 0
	for _, t := range rc.fw {
		total += len(t.f)
	}
	return total
}

// noteRCPlain notes one rcLoop pass. The name vector keeps its width
// w0 = |range(input[0])| for the whole input, so the Figure 11 shuffle
// count — ⌈w0/W⌉·⌈|range(prev)|/W⌉ per symbol, the model
// core.ProfileInput replays offline — is a pure function of the input
// symbols. It is therefore reconstructed here (blockRows) only when the
// run accounts; the hot loop itself carries no accounting at all.
func (r *Runner) noteRCPlain(input []byte, rs *runStats) {
	if rs == nil || len(input) == 0 {
		return
	}
	w0 := r.ranges[input[0]]
	cb := r.rangeBlocks[input[0]]
	rows := r.blockRows(input[:len(input)-1])
	// cb·rows for the body plus one seed row of the L_{a0} lookup.
	rs.note(int64(len(input)-1), cb*rows+cb, 0, 0, w0, w0)
}

// blockRows sums rangeBlocks over syms, the table blocks of each step
// taken from those symbols. When the max range is ≤ gather.Width —
// every range plan Auto builds — each symbol has one block, so the sum
// is len(syms) and only forced range plans with wider ranges walk.
func (p *Plan) blockRows(syms []byte) int64 {
	if p.maxRange <= gather.Width {
		return int64(len(syms))
	}
	var rows int64
	for _, b := range syms {
		rows += p.rangeBlocks[b]
	}
	return rows
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
	case phi == nil && r.rcNative():
		cur = r.rcShuffle16(input[1:], cur, c)
	case phi == nil:
		cur = r.rcScalar(input[1:], cur, c)
	default:
		name0 := rc.l[a0][start]
		phi(off, a0, rc.u[a0][name0])
		for i := 1; i < len(input); i++ {
			b := input[i]
			gather.Into(c, c, rc.fw[cur].row(b))
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
				// symbol times the width blocks of each step's table,
				// the step into input[j] reading from input[j-1]
				// (cur = input[i-1]).
				shuf += r.blockRows(input[i-1 : len(input)-1])
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

// rcNative reports whether rcLoop's φ-free path runs the native
// kernel: the build has one and every name of the plan fits a
// 16-byte register. PSHUFB reads only the low 4 bits of each index, so
// the gate is the plan's maximum range, not the first symbol's width —
// a later symbol with a wider range would yield names ≥ 16.
func (r *Runner) rcNative() bool {
	return nativeRC && r.maxRange <= gather.Width
}

// rcBlock bounds the input of one rcShuffle call. Assembly is not
// preemptible, so a 32 MiB body in one call would hold off the
// garbage collector's stop-the-world for the whole scan (~25 ms);
// 64 KiB keeps that wait near 50 µs at one call per block.
const rcBlock = 64 << 10

// rcShuffle16 advances name vector c (width ≤ 16) over input with the
// native kernel, one shuffle per symbol — the paper's §6.2 constant.
// Lanes past len(c) are padded with copies of lane 0, which stay valid
// names at every step and are dropped at writeback. Should input hold a
// byte outside the machine's alphabet, the kernel stops before it and
// the scalar loop takes over from there, failing as it would have.
func (r *Runner) rcShuffle16(input []byte, cur byte, c []byte) byte {
	var lanes [gather.Width]byte
	for j := range lanes {
		lanes[j] = c[0]
	}
	copy(lanes[:], c)
	for len(input) > 0 {
		blk := input[:min(len(input), rcBlock)]
		var n int
		cur, n = rcShuffle(r.rc.fw, blk, cur, &lanes)
		input = input[n:]
		if n < len(blk) {
			break
		}
	}
	copy(c, lanes[:len(c)])
	if len(input) > 0 {
		cur = r.rcScalar(input, cur, c)
	}
	return cur
}

// rcScalar is the pure-Go name loop: the fallback where rcNative is
// false, and the oracle the native kernel is tested against.
func (r *Runner) rcScalar(input []byte, cur byte, c []byte) byte {
	if len(c) <= 8 {
		// The name vector has fixed width |range(a0)|, so small widths
		// run with lanes held in registers.
		return r.rcTail(input, cur, c)
	}
	rc := r.rc
	for _, b := range input {
		t := &rc.fw[cur]
		tab := t.f[int(b)*t.w:]
		for j, v := range c {
			c[j] = tab[v]
		}
		cur = b
	}
	return cur
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
