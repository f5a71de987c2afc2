package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
)

// Plan is the compile-time half of the compile/execute split: every
// strategy-dependent precomputation that is a static function of the
// machine — the resolved strategy (with the Auto decision's reason),
// per-symbol range sizes, byte/state transition columns, the
// range-coalesced table set, and the shuffle-cost block tables. The
// paper frames exactly this work as an FSM *compiler* step (§6.1);
// isolating it makes the artifact shareable (every pooled Runner for a
// machine references one Plan), addressable (cluster peers and perf
// profiles key it by Fingerprint), and serializable (MarshalBinary /
// UnmarshalPlan, via internal/plan).
//
// A Plan is immutable after CompilePlan and safe for any number of
// concurrent Runners. It carries nothing mutable or environmental: no
// procs, no telemetry, no scratch — those live on Runner, which is why
// a plan fingerprint does not include them.
type Plan struct {
	d        *fsm.DFA
	n        int
	strategy Strategy
	// reason records why Auto picked strategy; empty when the strategy
	// was forced by WithStrategy.
	reason   string
	maxRange int

	ranges []int // per-symbol |range(T[a])|
	// rangeBlocks[a] = ⌈ranges[a]/gather.Width⌉, precomputed so the
	// telemetry reconstruction pass over range-coalesced inputs is a
	// table-lookup sum instead of per-symbol arithmetic.
	rangeBlocks []int64
	// nBlocks is ⌈n/gather.Width⌉, the per-gather table block count of
	// the §4.2 shuffle cost model (telemetry accounting).
	nBlocks int

	// Byte-encoded transition columns; nil when n > 256.
	colsB [][]byte
	// State-typed columns (alias the machine's storage).
	cols16 [][]fsm.State

	rc *rcTables // range-coalesced tables; nil unless strategy needs them

	// out is the Moore/Mealy output table for transducer plans, nil
	// for plain acceptors. Like the transition columns it aliases the
	// caller's machine (out.DFA() == d) and is immutable once compiled.
	out *fsm.Transducer
	// step is out's fused replay table (fuseStep), derived whenever out
	// is set and never serialized.
	step []uint32

	// fingerprint = hex(sha256(machine encoding ‖ output-table encoding
	// (transducers only) ‖ strategy name)[:16]).
	fingerprint string
}

// CompilePlan validates d and builds the compiled artifact for the
// requested (or Auto-selected) strategy. The machine must not be
// mutated afterwards; the plan aliases its transition storage.
func CompilePlan(d *fsm.DFA, opts ...Option) (*Plan, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return compile(d, nil, cfg.strategy)
}

// resolveStrategy applies the Auto decision rule (§6.1) to a machine
// whose maximum transition range is maxRange, returning the resolved
// strategy and the reason. Forced strategies pass through with an
// empty reason.
func resolveStrategy(s Strategy, maxRange int) (Strategy, string) {
	if s != Auto {
		return s, ""
	}
	if maxRange <= gather.Width {
		return RangeCoalesced,
			fmt.Sprintf("max range %d ≤ shuffle width %d: one shuffle per symbol (§5.3)", maxRange, gather.Width)
	}
	return Convergence,
		fmt.Sprintf("max range %d > shuffle width %d: rely on convergence (§5.2)", maxRange, gather.Width)
}

// CompileTransducer compiles an output-bearing machine: the same plan
// CompilePlan builds for t's DFA, carrying t's λ table so transducing
// runners (Runner.TransduceOutputs / TransduceSpans) can replay
// outputs. The fingerprint covers λ — two transducers over the same δ
// with different output tables get distinct plan identities.
func CompileTransducer(t *fsm.Transducer, opts ...Option) (*Plan, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil transducer")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return compile(t.DFA(), t, cfg.strategy)
}

// fuseStep builds the row-major replay table of t:
// step[q<<8|b] = δ(q, b)<<16 | OutputAt(q, b), so the phase-3 replay
// takes one load per byte where Next + OutputAt take two or three and
// a kind branch. Bytes outside Σ map to state 0xFFFF, whose row lies
// past the table (below MaxStates states), so a contract-violating
// input still faults on the next byte instead of replaying garbage.
func fuseStep(t *fsm.Transducer) []uint32 {
	d := t.DFA()
	n, k := d.NumStates(), d.NumSymbols()
	step := make([]uint32, n<<8)
	for q := 0; q < n; q++ {
		row := step[q<<8 : (q+1)<<8]
		for b := range row {
			if b >= k {
				row[b] = 0xFFFF << 16
				continue
			}
			row[b] = uint32(d.Next(fsm.State(q), byte(b)))<<16 | uint32(t.OutputAt(fsm.State(q), byte(b)))
		}
	}
	return step
}

// compile is CompilePlan after validation and option folding; every
// compiling path (New, CompilePlan, CompileTransducer) funnels through
// it, and UnmarshalPlan shares its derive step. t, when non-nil, is the
// output table of a transducer plan over d; the machine is hashed once,
// with t when present.
func compile(d *fsm.DFA, t *fsm.Transducer, strategy Strategy) (*Plan, error) {
	p := derive(d)
	p.strategy, p.reason = resolveStrategy(strategy, p.maxRange)
	if p.strategy == RangeCoalesced || p.strategy == RangeConvergence {
		rc, err := buildRCTables(d, p.ranges)
		if err != nil {
			return nil, err
		}
		p.rc = rc
	}
	if t != nil {
		p.out, p.step = t, fuseStep(t)
	}
	p.fingerprint = fingerprint(d, t, p.strategy)
	return p, nil
}

// derive starts a plan over d with the tables every plan rebuilds from
// its machine alone, whether compiled or decoded: the per-symbol range
// sizes and their maximum, the transition columns at both state widths
// (colsB only when n ≤ 256), and the shuffle-cost block tables.
// Accounting reconstruction (noteRCPlain) runs for traced runs even
// without a telemetry sink, so the block tables are built always.
func derive(d *fsm.DFA) *Plan {
	p := &Plan{d: d, n: d.NumStates(), ranges: d.RangeSizes()}
	p.rangeBlocks = make([]int64, len(p.ranges))
	for a, v := range p.ranges {
		p.maxRange = max(p.maxRange, v)
		p.rangeBlocks[a] = int64((v + gather.Width - 1) / gather.Width)
	}
	p.nBlocks = (p.n + gather.Width - 1) / gather.Width
	p.cols16 = make([][]fsm.State, d.NumSymbols())
	for a := range p.cols16 {
		p.cols16[a] = d.Column(byte(a))
	}
	if p.n <= 256 {
		p.colsB = make([][]byte, len(p.cols16))
		for a, col := range p.cols16 {
			b := make([]byte, p.n)
			for q, s := range col {
				b[q] = byte(s)
			}
			p.colsB[a] = b
		}
	}
	return p
}

// fingerprint derives the identity of a compiled machine: sha256 over
// the machine's canonical binary encoding, the output table's encoding
// when t is non-nil (transducer plans), and the resolved strategy name,
// truncated to 128 bits and hex-encoded. Runner-level knobs (procs,
// convergence cadence, telemetry) are deliberately excluded — plans
// are invariant under them, which is what lets a single-core and a
// multicore runner pair share one plan. Persisted perf profiles and
// cluster peers are keyed by this value, so the scheme is pinned by
// TestFingerprintGolden.
func fingerprint(d *fsm.DFA, t *fsm.Transducer, s Strategy) string {
	h := sha256.New()
	// DFA.WriteTo into a hash never fails.
	d.WriteTo(h) //nolint:errcheck
	if t != nil {
		h.Write(t.AppendEncoding(nil))
	}
	h.Write([]byte(s.String()))
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Strategy reports the resolved single-core strategy (never Auto).
func (p *Plan) Strategy() Strategy { return p.strategy }

// Machine returns the underlying DFA. It must not be mutated.
func (p *Plan) Machine() *fsm.DFA { return p.d }

// Fingerprint identifies this compiled machine: equal fingerprints
// mean the same machine encoding compiled with the same strategy.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// AutoReason explains the Auto strategy decision; empty when the
// strategy was forced at compile time.
func (p *Plan) AutoReason() string { return p.reason }

// Outputs returns the plan's output table (nil for acceptor plans).
func (p *Plan) Outputs() *fsm.Transducer { return p.out }

// Kind classifies the plan's machine: acceptor, moore, or mealy.
func (p *Plan) Kind() fsm.Kind {
	if p.out == nil {
		return fsm.KindAcceptor
	}
	return p.out.Kind()
}

// MaxRange reports the machine's maximum per-symbol transition range,
// the quantity the Auto decision pivots on.
func (p *Plan) MaxRange() int { return p.maxRange }

// States reports the machine's state count.
func (p *Plan) States() int { return p.n }

// TableBytes reports the approximate size of the strategy-dependent
// tables this plan precomputed — what a registered machine costs to
// keep and what its compile rebuilds.
func (p *Plan) TableBytes() int {
	total := 0
	for _, c := range p.colsB {
		total += len(c)
	}
	if p.out != nil {
		total += p.out.TableBytes() + 4*len(p.step)
	}
	if p.rc != nil {
		total += p.rc.EntryCount() // T tables (bytes)
		for _, l := range p.rc.l {
			total += len(l)
		}
		for _, u := range p.rc.u {
			total += 2 * len(u)
		}
	}
	return total
}

// equivalent reports whether two plans describe the same compiled
// artifact, table for table. Used by tests and by serialization
// round-trip checks; fingerprint equality is the fast proxy.
func (p *Plan) equivalent(q *Plan) bool {
	if p.fingerprint != q.fingerprint || p.strategy != q.strategy || p.n != q.n {
		return false
	}
	if !slices.Equal(p.ranges, q.ranges) {
		return false
	}
	if (p.rc == nil) != (q.rc == nil) || (p.out == nil) != (q.out == nil) {
		return false
	}
	if p.out != nil {
		if p.out.Kind() != q.out.Kind() || p.out.NumOutputs() != q.out.NumOutputs() {
			return false
		}
		if !slices.Equal(p.out.Lambda(), q.out.Lambda()) {
			return false
		}
	}
	if p.rc != nil {
		for a := range p.rc.l {
			if !bytes.Equal(p.rc.l[a], q.rc.l[a]) || !bytes.Equal(p.rc.fw[a].f, q.rc.fw[a].f) ||
				!slices.Equal(p.rc.u[a], q.rc.u[a]) {
				return false
			}
		}
	}
	return true
}
