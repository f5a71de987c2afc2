package core

// Plan serialization: the bridge between the live Plan representation
// and the wire format of internal/plan. The wire file stores the
// machine encoding, the resolved strategy, the per-symbol range sizes,
// and — for range strategies — the U/L/T tables of Figures 10–11.
// Every table a plan holds is a function of its machine (and, for
// transducers, of the λ table the wire carries), so UnmarshalPlan
// rebuilds them with the constructors compile uses (derive,
// buildRCTables, fuseStep) and keeps the wire's range sizes and U/L/T
// tables only as a cross-check: a blob whose tables differ from the ones its
// machine derives is refused, whether the difference is out of range
// or merely wrong. The wire format still carries the tables, so plan
// files and cluster peers of builds that read them keep working.

import (
	"bytes"
	"fmt"
	"slices"

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
			T: make([][]byte, len(p.rc.fw)),
		}
		for a, u := range p.rc.u {
			uw := make([]uint16, len(u))
			for i, q := range u {
				uw[i] = uint16(q)
			}
			rc.U[a] = uw
			rc.T[a] = p.rc.fw[a].f
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
// embedded machine is revalidated and every table is rebuilt from it;
// the stored range sizes and range-coalesced tables must equal the
// rebuilt ones, so a plan that decodes runs exactly as its machine.
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
		rc, err := buildRCTables(d, p.ranges)
		if err != nil {
			return nil, err
		}
		if err := rc.matchWire(f.RC); err != nil {
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

// matchWire compares decoded wire tables with rc, the tables the
// decoded machine derives, and names the first symbol whose L, U or T
// differs.
func (rc *rcTables) matchWire(w *planwire.RC) error {
	if k := len(rc.l); len(w.L) != k || len(w.U) != k || len(w.T) != k {
		return fmt.Errorf("core: plan RC tables cover %d/%d/%d symbols, machine has %d", len(w.L), len(w.U), len(w.T), k)
	}
	sameState := func(wq uint16, q fsm.State) bool { return wq == uint16(q) }
	for a := range rc.l {
		switch {
		case !bytes.Equal(w.L[a], rc.l[a]):
			return fmt.Errorf("core: plan L[%d] does not match machine", a)
		case !slices.EqualFunc(w.U[a], rc.u[a], sameState):
			return fmt.Errorf("core: plan U[%d] does not match machine", a)
		case !bytes.Equal(w.T[a], rc.fw[a].f):
			return fmt.Errorf("core: plan T[%d] does not match machine", a)
		}
	}
	return nil
}
