package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dpfsm/internal/fsm"
	planwire "dpfsm/internal/plan"
)

// compileFor compiles d for strat, reporting (nil, false) when the
// strategy cannot run this machine (range strategies, max range > 256).
func compileFor(t *testing.T, d *fsm.DFA, strat Strategy) (*Plan, bool) {
	t.Helper()
	p, err := CompilePlan(d, WithStrategy(strat))
	if err != nil {
		if (strat == RangeCoalesced || strat == RangeConvergence) && d.MaxRangeSize() > 256 {
			return nil, false
		}
		t.Fatalf("CompilePlan(%v): %v", strat, err)
	}
	return p, true
}

// TestPlanRoundTripAllStrategies is the serialization acceptance test:
// for every machine shape and every strategy, a plan marshaled and
// reloaded must be structurally equivalent to the original AND produce
// byte-identical match results — same final state from every start
// state, same composition vector, same accept outcome.
func TestPlanRoundTripAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for mi, d := range machines(t, rng) {
		in := d.RandomInput(rng, 512)
		for _, strat := range allStrategies {
			p, ok := compileFor(t, d, strat)
			if !ok {
				continue
			}
			data, err := p.MarshalBinary()
			if err != nil {
				t.Fatalf("machine %d %v: MarshalBinary: %v", mi, strat, err)
			}
			q, err := UnmarshalPlan(data)
			if err != nil {
				t.Fatalf("machine %d %v: UnmarshalPlan: %v", mi, strat, err)
			}
			if !p.equivalent(q) {
				t.Fatalf("machine %d %v: reloaded plan not equivalent", mi, strat)
			}
			if p.Fingerprint() != q.Fingerprint() {
				t.Fatalf("machine %d %v: fingerprint changed across round trip", mi, strat)
			}
			if p.AutoReason() != q.AutoReason() {
				t.Fatalf("machine %d %v: auto reason changed: %q vs %q", mi, strat, p.AutoReason(), q.AutoReason())
			}
			rp, err := NewFromPlan(p)
			if err != nil {
				t.Fatalf("machine %d %v: NewFromPlan(built): %v", mi, strat, err)
			}
			rq, err := NewFromPlan(q)
			if err != nil {
				t.Fatalf("machine %d %v: NewFromPlan(loaded): %v", mi, strat, err)
			}
			vp, vq := rp.CompositionVector(in), rq.CompositionVector(in)
			for s := range vp {
				if vp[s] != vq[s] {
					t.Fatalf("machine %d %v: composition vector differs at start %d: %d vs %d",
						mi, strat, s, vp[s], vq[s])
				}
			}
			for trial := 0; trial < 4; trial++ {
				st := fsm.State(rng.Intn(d.NumStates()))
				if a, b := rp.Final(in, st), rq.Final(in, st); a != b {
					t.Fatalf("machine %d %v: Final from %d differs: %d vs %d", mi, strat, st, a, b)
				}
			}
			if rp.Accepts(in) != rq.Accepts(in) {
				t.Fatalf("machine %d %v: Accepts differs across round trip", mi, strat)
			}
		}
	}
}

// TestPlanSharedAcrossRunners pins the compile/execute split contract:
// many runners over one plan share the same immutable tables and agree
// with each other and with the scalar baseline.
func TestPlanSharedAcrossRunners(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d := fsm.RandomConverging(rng, 300, 6, 12, 0.3)
	p, err := CompilePlan(d)
	if err != nil {
		t.Fatal(err)
	}
	in := d.RandomInput(rng, 4096)
	want := d.Run(in, d.Start())
	for _, procs := range []int{1, 2, 4} {
		r, err := NewFromPlan(p, WithProcs(procs))
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if r.PlanRef() != p {
			t.Fatalf("procs=%d: runner does not share the plan", procs)
		}
		if got := r.Final(in, d.Start()); got != want {
			t.Fatalf("procs=%d: Final=%d want %d", procs, got, want)
		}
	}
}

func TestNewFromPlanStrategyMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d := fsm.Random(rng, 16, 4, 0.5)
	p, err := CompilePlan(d, WithStrategy(Base))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromPlan(p, WithStrategy(Convergence)); err == nil {
		t.Fatal("NewFromPlan accepted a strategy the plan was not compiled for")
	} else if !strings.Contains(err.Error(), "recompile") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}
	if _, err := NewFromPlan(p, WithStrategy(Base)); err != nil {
		t.Fatalf("matching explicit strategy rejected: %v", err)
	}
	if _, err := NewFromPlan(p); err != nil {
		t.Fatalf("defaulted strategy rejected: %v", err)
	}
}

// TestPlanKeyMatchesCompile: a plan's fingerprint is its machine and
// resolved strategy. Forcing a different strategy on the same machine
// changes it; the runtime-only options (procs, convergence cadence) do
// not, so every lane of a machine runs under one identity.
func TestPlanKeyMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	fp := func(d *fsm.DFA, opts ...Option) string {
		t.Helper()
		p, err := CompilePlan(d, opts...)
		if err != nil {
			t.Fatalf("CompilePlan: %v", err)
		}
		return p.Fingerprint()
	}
	for mi, d := range machines(t, rng) {
		kb := fp(d, WithStrategy(Base))
		if kc := fp(d, WithStrategy(Convergence)); kb == kc {
			t.Fatalf("machine %d: different strategies share a fingerprint", mi)
		}
		if again := fp(d.Clone(), WithStrategy(Base)); again != kb {
			t.Fatalf("machine %d: recompiling an equal machine moved its fingerprint", mi)
		}
		if kp := fp(d, WithStrategy(Base), WithProcs(7), WithConvCheckEvery(3)); kp != kb {
			t.Fatalf("machine %d: runtime options changed the fingerprint", mi)
		}
	}
}

// retamper re-marshals a wire File after mutation, restoring checksum
// validity so only core's semantic validation can reject it.
func retamper(t *testing.T, data []byte, mut func(*planwire.File)) []byte {
	t.Helper()
	f, err := planwire.Unmarshal(data)
	if err != nil {
		t.Fatalf("retamper decode: %v", err)
	}
	mut(f)
	out, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("retamper encode: %v", err)
	}
	return out
}

// TestUnmarshalPlanRejectsInconsistent exercises the semantic layer:
// files whose framing and checksum are fine but whose content cannot
// describe the embedded machine must fail with clear errors.
func TestUnmarshalPlanRejectsInconsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	d := fsm.RandomConverging(rng, 64, 8, 5, 0.3)
	rc, err := CompilePlan(d, WithStrategy(RangeCoalesced))
	if err != nil {
		t.Fatal(err)
	}
	rcData, err := rc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	base, err := CompilePlan(d, WithStrategy(Base))
	if err != nil {
		t.Fatal(err)
	}
	baseData, err := base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"auto strategy", retamper(t, baseData, func(f *planwire.File) { f.Strategy = "auto" }), "resolved strategy"},
		{"unknown strategy", retamper(t, baseData, func(f *planwire.File) { f.Strategy = "warp" }), "strategy"},
		{"range mismatch", retamper(t, baseData, func(f *planwire.File) { f.Ranges[0]++ }), "does not match machine"},
		{"rc missing", retamper(t, rcData, func(f *planwire.File) { f.RC = nil }), "missing its range-coalesced tables"},
		{"rc unexpected", retamper(t, baseData, func(f *planwire.File) {
			g, _ := planwire.Unmarshal(rcData)
			f.RC = g.RC
		}), "unexpected range-coalesced tables"},
		{"U out of range", retamper(t, rcData, func(f *planwire.File) { f.RC.U[0][0] = 60000 }), "U[0] does not match machine"},
		{"L out of range", retamper(t, rcData, func(f *planwire.File) { f.RC.L[2][3] = 255 }), "L[2] does not match machine"},
		{"T out of range", retamper(t, rcData, func(f *planwire.File) {
			f.RC.T[1][0] = 255
		}), "T[1] does not match machine"},
		// Every name stays in range, so only comparing against the
		// tables the machine derives can tell this plan is wrong.
		{"T names swapped", retamper(t, rcData, func(f *planwire.File) { swapRowNames(t, f.RC) }), "does not match machine"},
	}
	for _, tc := range cases {
		if _, err := UnmarshalPlan(tc.data); err == nil {
			t.Errorf("%s: UnmarshalPlan succeeded, want error containing %q", tc.name, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// swapRowNames swaps two distinct names inside one row T[a][b] of the
// wire tables, leaving every entry within its range.
func swapRowNames(t *testing.T, rc *planwire.RC) {
	t.Helper()
	k := len(rc.T)
	for _, flat := range rc.T {
		w := len(flat) / k
		for b := 0; b < k; b++ {
			row := flat[b*w : (b+1)*w]
			for i := 1; i < w; i++ {
				if row[i] != row[0] {
					row[0], row[i] = row[i], row[0]
					return
				}
			}
		}
	}
	t.Fatal("no T row holds two distinct names")
}

func TestStrategyTextMarshaling(t *testing.T) {
	for _, s := range allStrategies {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", s, err)
		}
		var got Strategy
		if err := got.UnmarshalText(text); err != nil {
			t.Fatalf("%v: UnmarshalText(%q): %v", s, text, err)
		}
		if got != s {
			t.Fatalf("text round trip: got %v want %v", got, s)
		}
	}

	// JSON integration: Strategy fields marshal as their names and
	// parse back, with "" meaning Auto for zero-config requests.
	type req struct {
		Strategy Strategy `json:"strategy,omitempty"`
	}
	blob, err := json.Marshal(req{Strategy: RangeConvergence})
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"strategy":"range+conv"}` && !strings.Contains(string(blob), RangeConvergence.String()) {
		t.Fatalf("unexpected JSON encoding %s", blob)
	}
	var back req
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Strategy != RangeConvergence {
		t.Fatalf("JSON round trip: got %v", back.Strategy)
	}

	var empty Strategy
	if err := empty.UnmarshalText(nil); err != nil || empty != Auto {
		t.Fatalf("empty text: got (%v, %v), want Auto", empty, err)
	}
	var bad Strategy
	if err := bad.UnmarshalText([]byte("definitely-not-a-strategy")); err == nil {
		t.Fatal("UnmarshalText accepted garbage")
	}
	if _, err := Strategy(99).MarshalText(); err == nil {
		t.Fatal("MarshalText accepted an invalid strategy value")
	}
}

// TestRangePlanWireBytesPinned pins the serialized bytes of range plans
// over a fixed machine: the wire format and the tables it carries must
// not drift, or plan files and cluster peers of other builds would
// stop loading.
func TestRangePlanWireBytesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	d := fsm.RandomConverging(rng, 64, 256, 8, 0.3)
	for strat, want := range map[Strategy]string{
		RangeCoalesced:   "0c40e772283dcc3429f0348c5129d37c47f0f9c10fd57b2ad1f96f204728eb17",
		RangeConvergence: "a6dfbaf107776dd25606a6dff51a08c1f6a23b8620077a75acfab49acc07a277",
	} {
		p, err := CompilePlan(d, WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%v: plan bytes hash to %s, want %s", strat, got, want)
		}
	}
}

// TestRangePlanFootprint: compiling a 256-symbol range plan allocates
// about what the plan keeps — its tables and the machine — and no k×k
// index of per-row slice headers (1.6 MB at k = 256) beside them.
func TestRangePlanFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	d := fsm.RandomConverging(rng, 64, 256, 8, 0.3)
	keep := 0
	alloc := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := CompilePlan(d, WithStrategy(RangeCoalesced))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		keep = p.TableBytes() + 2*d.NumStates()*d.NumSymbols()
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	if alloc > uint64(2*keep) {
		t.Fatalf("CompilePlan allocated %d bytes for %d bytes of tables and machine", alloc, keep)
	}
}
