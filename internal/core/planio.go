package core

// Plan serialization: the bridge between the live Plan representation
// and the wire format of internal/plan. The wire file stores the
// machine encoding, the resolved strategy, the per-symbol range sizes,
// and — for range strategies — the actual U/L/T tables of Figures
// 10–11, so loading a plan skips the Factor passes and table joins of
// buildRCTables. UnmarshalPlan validates structure (every stored name
// and state is bounds-checked against the decoded machine) but does
// not re-derive the tables to compare: the checksum already guards
// against corruption, and a load that rebuilt everything would cost as
// much as compiling.

import (
	"bytes"
	"fmt"

	"dpfsm/internal/fsm"
	planwire "dpfsm/internal/plan"
)

// MarshalBinary serializes the plan in internal/plan's versioned,
// checksummed format. It implements encoding.BinaryMarshaler.
func (p *Plan) MarshalBinary() ([]byte, error) {
	var mbuf bytes.Buffer
	if _, err := p.d.WriteTo(&mbuf); err != nil {
		return nil, fmt.Errorf("core: encoding machine: %w", err)
	}
	f := &planwire.File{
		Strategy:   p.strategy.String(),
		AutoReason: p.reason,
		Machine:    mbuf.Bytes(),
		Ranges:     make([]uint16, len(p.ranges)),
	}
	for a, v := range p.ranges {
		f.Ranges[a] = uint16(v)
	}
	if p.rc != nil {
		rc := &planwire.RC{
			L: p.rc.l,
			U: make([][]uint16, len(p.rc.u)),
			T: p.rc.tf,
		}
		for a, u := range p.rc.u {
			uw := make([]uint16, len(u))
			for i, q := range u {
				uw[i] = uint16(q)
			}
			rc.U[a] = uw
		}
		f.RC = rc
	}
	if p.out != nil {
		lam := p.out.Lambda()
		o := &planwire.Outputs{
			Kind:       uint8(p.out.Kind()),
			NumOutputs: uint32(p.out.NumOutputs()),
			Lambda:     make([]uint16, len(lam)),
		}
		for i, v := range lam {
			o.Lambda[i] = uint16(v)
		}
		f.Out = o
	}
	return f.MarshalBinary()
}

// UnmarshalPlan decodes a plan serialized by Plan.MarshalBinary. The
// embedded machine is revalidated, the stored range sizes are checked
// against the machine, and every range-coalesced table entry is
// bounds-checked, so a plan that decodes is safe to execute.
func UnmarshalPlan(data []byte) (*Plan, error) {
	f, err := planwire.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	d, err := fsm.ReadDFA(bytes.NewReader(f.Machine))
	if err != nil {
		return nil, fmt.Errorf("core: plan machine: %w", err)
	}
	strategy, err := ParseStrategy(f.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: plan strategy: %w", err)
	}
	if strategy == Auto {
		return nil, fmt.Errorf("core: serialized plan names strategy %q; plans carry a resolved strategy", f.Strategy)
	}

	// Rebuild the cheap derived tables the wire format omits.
	p := derive(d)
	p.strategy, p.reason = strategy, f.AutoReason
	if len(f.Ranges) != len(p.ranges) {
		return nil, fmt.Errorf("core: plan has %d range entries, machine has %d symbols", len(f.Ranges), len(p.ranges))
	}
	for a, v := range p.ranges {
		if int(f.Ranges[a]) != v {
			return nil, fmt.Errorf("core: plan range[%d] = %d, machine derives %d: plan does not match machine", a, f.Ranges[a], v)
		}
	}

	needRC := strategy == RangeCoalesced || strategy == RangeConvergence
	switch {
	case needRC && f.RC == nil:
		return nil, fmt.Errorf("core: plan for strategy %s is missing its range-coalesced tables", strategy)
	case !needRC && f.RC != nil:
		return nil, fmt.Errorf("core: plan for strategy %s carries unexpected range-coalesced tables", strategy)
	case needRC:
		rc, err := rcFromWire(f.RC, p.n, p.ranges)
		if err != nil {
			return nil, err
		}
		p.rc = rc
	}
	if f.Out != nil {
		lam := make([]fsm.Output, len(f.Out.Lambda))
		for i, v := range f.Out.Lambda {
			lam[i] = fsm.Output(v)
		}
		// NewTransducer revalidates kind, |Γ|, the λ shape against the
		// decoded machine, and every entry's range.
		t, err := fsm.NewTransducer(d, fsm.Kind(f.Out.Kind), int(f.Out.NumOutputs), lam)
		if err != nil {
			return nil, fmt.Errorf("core: plan output table: %w", err)
		}
		p.out, p.step = t, fuseStep(t)
	}
	p.fingerprint = fingerprint(d, p.out, strategy)
	return p, nil
}

// rcFromWire reconstructs the live rcTables from the wire tables,
// bounds-checking every entry against the machine's state count and
// the per-symbol range sizes, and rebuilding the t/fw views that are
// pure re-slicings of the flat tables.
func rcFromWire(w *planwire.RC, n int, ranges []int) (*rcTables, error) {
	k := len(ranges)
	if len(w.L) != k || len(w.U) != k || len(w.T) != k {
		return nil, fmt.Errorf("core: plan RC tables cover %d/%d/%d symbols, machine has %d", len(w.L), len(w.U), len(w.T), k)
	}
	rc := &rcTables{
		l:  w.L,
		u:  make([][]fsm.State, k),
		t:  make([][][]byte, k),
		tf: w.T,
		w:  make([]int, k),
		fw: make([]rcFlat, k),
	}
	for a := 0; a < k; a++ {
		if len(w.U[a]) != ranges[a] {
			return nil, fmt.Errorf("core: plan U[%d] has width %d, machine range is %d", a, len(w.U[a]), ranges[a])
		}
		u := make([]fsm.State, len(w.U[a]))
		var umax uint16
		for i, q := range w.U[a] {
			if q > umax {
				umax = q
			}
			u[i] = fsm.State(q)
		}
		if int(umax) >= n {
			i := firstAtLeast16(w.U[a], uint16(n))
			return nil, fmt.Errorf("core: plan U[%d][%d] = state %d out of range [0, %d)", a, i, w.U[a][i], n)
		}
		rc.u[a] = u
		if len(w.L[a]) != n {
			return nil, fmt.Errorf("core: plan L[%d] has %d entries, machine has %d states", a, len(w.L[a]), n)
		}
		if m := maxByte(w.L[a]); int(m) >= ranges[a] {
			q := firstAtLeast8(w.L[a], byte(ranges[a]))
			return nil, fmt.Errorf("core: plan L[%d][%d] = name %d out of range [0, %d)", a, q, w.L[a][q], ranges[a])
		}
	}
	for a := 0; a < k; a++ {
		wa := ranges[a]
		rc.w[a] = wa
		flat := w.T[a]
		if len(flat) != k*wa {
			return nil, fmt.Errorf("core: plan T[%d] has %d entries, want %d", a, len(flat), k*wa)
		}
		rc.t[a] = make([][]byte, k)
		for b := 0; b < k; b++ {
			tab := flat[b*wa : (b+1)*wa : (b+1)*wa]
			if m := maxByte(tab); int(m) >= ranges[b] {
				i := firstAtLeast8(tab, byte(ranges[b]))
				return nil, fmt.Errorf("core: plan T[%d][%d][%d] = name %d out of range [0, %d)", a, b, i, tab[i], ranges[b])
			}
			rc.t[a][b] = tab
		}
		rc.fw[a] = rcFlat{f: flat, w: wa}
	}
	return rc, nil
}

// maxByte is the bounds-check fast path: validating a table reduces to
// one max scan plus a single compare, instead of a branchy compare per
// entry over megabytes of names.
func maxByte(s []byte) byte {
	var m0, m1, m2, m3 byte
	for len(s) >= 4 {
		if s[0] > m0 {
			m0 = s[0]
		}
		if s[1] > m1 {
			m1 = s[1]
		}
		if s[2] > m2 {
			m2 = s[2]
		}
		if s[3] > m3 {
			m3 = s[3]
		}
		s = s[4:]
	}
	for _, v := range s {
		if v > m0 {
			m0 = v
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0
}

// firstAtLeast8 locates the offending entry once a max scan has
// already proven one exists, so error messages keep exact indices
// without taxing the success path.
func firstAtLeast8(s []byte, bound byte) int {
	for i, v := range s {
		if v >= bound {
			return i
		}
	}
	return 0
}

func firstAtLeast16(s []uint16, bound uint16) int {
	for i, v := range s {
		if v >= bound {
			return i
		}
	}
	return 0
}
