package conformance

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/speculative"
)

// checker holds every execution surface under test for one machine,
// built once and reused across that machine's whole input set: per
// strategy a single-core runner, a multicore runner, and a runner
// rebuilt from a marshal → unmarshal round trip of the compiled plan,
// plus one batch engine with the machine registered once per strategy
// so both dispatch lanes are exercised.
type checker struct {
	d     *fsm.DFA
	label string
	cfg   Config

	strategies []core.Strategy
	singles    map[core.Strategy]*core.Runner
	multis     map[core.Strategy]*core.Runner
	reloads    map[core.Strategy]*core.Runner

	// spec is §7's speculative baseline (Ko et al.); specBad is the
	// same source with a deliberately poisoned guess, so every input
	// also exercises the forced-mispredict re-run path. Exactness must
	// hold on both — mispredicts may only cost time, never answers.
	spec    *speculative.Runner
	specBad *speculative.Runner
	// specDrv drives the speculative sources at the harness's procs and
	// minimum chunk, as the engine's multicore runner drives its
	// enumerative phase 1.
	specDrv *core.Runner

	// trans are the derived Moore/Mealy transducer probes with their
	// transducing runner matrix (transduce.go).
	trans []*transProbe

	eng *engine.Engine
}

// foldProbeLen is long enough to cross several of core's internal
// 64 KiB cancellation-fold block boundaries, so the block-carried
// state path of FinalCtx is exercised, not just the one-block case.
const foldProbeLen = 130<<10 + 17

// rangeTooWide reports whether s cannot compile for d because the
// machine's maximum transition range exceeds the byte-name limit of
// range coalescing — the one legitimate compile refusal.
func rangeTooWide(d *fsm.DFA, s core.Strategy) bool {
	if s != core.RangeCoalesced && s != core.RangeConvergence {
		return false
	}
	maxRange := 0
	for _, v := range d.RangeSizes() {
		if v > maxRange {
			maxRange = v
		}
	}
	return maxRange > 256
}

// newChecker compiles d for every applicable strategy and builds the
// runner matrix. A compile error outside the documented range-width
// refusal is itself a conformance failure, reported as a Divergence.
func newChecker(d *fsm.DFA, label string, cfg Config) (*checker, *Divergence) {
	c := &checker{
		d:       d,
		label:   label,
		cfg:     cfg,
		singles: make(map[core.Strategy]*core.Runner),
		multis:  make(map[core.Strategy]*core.Runner),
		reloads: make(map[core.Strategy]*core.Runner),
	}
	if !cfg.SkipEngine {
		c.eng = engine.New(
			engine.WithWorkers(2),
			engine.WithProcs(cfg.Procs),
			engine.WithLargeInput(cfg.LargeInput),
		)
	}
	c.spec = speculative.New(d, cfg.Procs, nil)
	// Any fixed wrong-ish guess does: on most machines it forces
	// mispredict cascades, and on all machines the answer must still
	// match the oracle.
	c.specBad = speculative.NewWithGuess(d, cfg.Procs, fsm.State((int(d.Start())+1)%d.NumStates()))
	specDrv, err := core.New(d, core.WithStrategy(core.Sequential),
		core.WithProcs(cfg.Procs), core.WithMinChunk(cfg.MinChunk))
	if err != nil {
		c.Close()
		return nil, &Divergence{Check: "compile", Strategy: core.Sequential.String(),
			Machine: d, MachineLabel: label, Detail: err.Error()}
	}
	c.specDrv = specDrv
	fail := func(s core.Strategy, err error) *Divergence {
		c.Close()
		return &Divergence{
			Check: "compile", Strategy: s.String(),
			Machine: d, MachineLabel: label,
			Detail: err.Error(),
		}
	}
	for _, s := range cfg.Strategies {
		if rangeTooWide(d, s) {
			continue
		}
		opts := []core.Option{core.WithStrategy(s), core.WithMinChunk(cfg.MinChunk)}
		single, err := core.New(d, opts...)
		if err != nil {
			return nil, fail(s, err)
		}
		multi, err := core.NewFromPlan(single.PlanRef(),
			append(opts, core.WithProcs(cfg.Procs))...)
		if err != nil {
			return nil, fail(s, err)
		}
		if !cfg.SkipPlanRoundTrip {
			reload, dv := c.roundTripRunner(single, s, opts)
			if dv != nil {
				c.Close()
				return nil, dv
			}
			c.reloads[s] = reload
		}
		if c.eng != nil {
			if _, err := c.eng.Register(s.String(), d, opts...); err != nil {
				return nil, fail(s, err)
			}
		}
		c.strategies = append(c.strategies, s)
		c.singles[s] = single
		c.multis[s] = multi
	}
	if dv := c.buildTransProbes(); dv != nil {
		c.Close()
		return nil, dv
	}
	return c, nil
}

// roundTripRunner serializes single's plan, decodes it back, and
// builds a runner over the decoded artifact, verifying the two plans
// agree on their fingerprint identity.
func (c *checker) roundTripRunner(single *core.Runner, s core.Strategy, opts []core.Option) (*core.Runner, *Divergence) {
	fail := func(detail string) *Divergence {
		return &Divergence{
			Check: "plan-roundtrip", Strategy: s.String(),
			Machine: c.d, MachineLabel: c.label, Detail: detail,
		}
	}
	data, err := single.PlanRef().MarshalBinary()
	if err != nil {
		return nil, fail("marshal: " + err.Error())
	}
	p, err := core.UnmarshalPlan(data)
	if err != nil {
		return nil, fail("unmarshal: " + err.Error())
	}
	if p.Fingerprint() != single.PlanRef().Fingerprint() {
		return nil, fail(fmt.Sprintf("fingerprint drift: %s -> %s",
			single.PlanRef().Fingerprint(), p.Fingerprint()))
	}
	reload, err := core.NewFromPlan(p, opts...)
	if err != nil {
		return nil, fail("runner from decoded plan: " + err.Error())
	}
	return reload, nil
}

// Close releases the engine pool.
func (c *checker) Close() {
	if c.eng != nil {
		c.eng.Close()
	}
}

// starts returns the start states checked per input: the machine's own
// start plus one other (when the machine has more than one state).
func (c *checker) starts() []fsm.State {
	s := c.d.Start()
	if c.d.NumStates() == 1 {
		return []fsm.State{s}
	}
	return []fsm.State{s, fsm.State((int(s) + 1) % c.d.NumStates())}
}

// divergence assembles a populated Divergence for this checker.
func (c *checker) divergence(check, strategy string, input []byte, start, want, got fsm.State, detail string) *Divergence {
	return &Divergence{
		Check: check, Strategy: strategy,
		Machine: c.d, MachineLabel: c.label,
		Input: input, Start: start, Want: want, Got: got,
		Detail: detail,
	}
}

// check runs every configured cross-check of one input and returns the
// first divergence, or nil when all surfaces agree.
func (c *checker) check(input []byte) *Divergence {
	for _, start := range c.starts() {
		want := OracleFinal(c.d, input, start)
		for _, s := range c.strategies {
			if dv := c.checkStrategy(s, input, start, want); dv != nil {
				return dv
			}
		}
		if dv := c.checkEngine(input, start, want); dv != nil {
			return dv
		}
		if dv := c.checkSpeculative(input, start, want); dv != nil {
			return dv
		}
		if dv := c.checkTransduce(input, start); dv != nil {
			return dv
		}
	}
	return c.checkVectors(input)
}

// checkSpeculative compares the speculative source (Ko et al.'s
// baseline) against the oracle, both with the default guess and with a
// poisoned one that forces mispredict re-runs, and verifies the stats
// invariants (at most chunks-1 speculated chunks can miss; a hit run
// re-runs no bytes). A second drive runs the first-accept scan as
// phase 3 behind the same guesses.
func (c *checker) checkSpeculative(input []byte, start, want fsm.State) *Divergence {
	wantFirst := OracleFirstAccept(c.d, input, start)
	for _, probe := range []struct {
		name string
		r    *speculative.Runner
	}{
		{"speculative-final", c.spec},
		{"speculative-mispredict", c.specBad},
	} {
		// A cancelable context takes the block-polled path, as the
		// engine lane does.
		ctx, cancel := context.WithCancel(context.Background())
		got, stats, err := c.specDrv.Drive(ctx, input, start, probe.r.Source(), nil)
		cancel()
		if err != nil {
			return c.divergence(probe.name, "", input, start, want, got,
				"unexpected ctx error: "+err.Error())
		}
		if got != want {
			return c.divergence(probe.name, "", input, start, want, got,
				fmt.Sprintf("guess=%d procs=%d chunks=%d misspeculated=%d",
					probe.r.Guess(), c.cfg.Procs, stats.Chunks, stats.Misses))
		}
		if stats.Misses > stats.Chunks-1 || (stats.Misses == 0 && stats.ReplayBytes != 0) {
			return c.divergence(probe.name, "", input, start, want, got,
				fmt.Sprintf("impossible stats %+v", stats))
		}
		first := core.NewFirstAccept(c.d)
		got, _, err = c.specDrv.Drive(context.Background(), input, start, probe.r.Source(), first.Scan)
		if err != nil || got != want || first.Pos() != wantFirst {
			return c.divergence(probe.name+"-first", "", input, start, want, got,
				fmt.Sprintf("err=%v first match %d, oracle %d (guess=%d)", err, first.Pos(), wantFirst, probe.r.Guess()))
		}
	}
	// The standalone baseline (fsmbench, perfbench) must agree too.
	if got, _ := c.spec.Final(input, start); got != want {
		return c.divergence("speculative-final", "", input, start, want, got, "Final")
	}
	return nil
}

// checkStrategy compares one strategy's whole surface — single-core,
// multicore, context-folded, chunked, serialized-plan, and (for small
// machines) full composition vectors — against the oracle.
func (c *checker) checkStrategy(s core.Strategy, input []byte, start, want fsm.State) *Divergence {
	name := s.String()
	if got := c.singles[s].Final(input, start); got != want {
		return c.divergence("strategy-final", name, input, start, want, got, "single-core")
	}
	if got := c.multis[s].Final(input, start); got != want {
		return c.divergence("multicore-final", name, input, start, want, got,
			fmt.Sprintf("procs=%d min_chunk=%d", c.cfg.Procs, c.cfg.MinChunk))
	}
	// A cancellable (never canceled) context forces the block-folded
	// entry points on both lanes.
	ctx, cancel := context.WithCancel(context.Background())
	gotSingle, errS := c.singles[s].FinalCtx(ctx, input, start)
	gotMulti, errM := c.multis[s].FinalCtx(ctx, input, start)
	cancel()
	if errS != nil || errM != nil {
		return c.divergence("ctx-final", name, input, start, want, gotSingle,
			fmt.Sprintf("unexpected error: single=%v multi=%v", errS, errM))
	}
	if gotSingle != want {
		return c.divergence("ctx-final", name, input, start, want, gotSingle, "single-core fold")
	}
	if gotMulti != want {
		return c.divergence("ctx-final", name, input, start, want, gotMulti, "multicore fold")
	}
	if dv := c.checkChunked(s, input, start, want); dv != nil {
		return dv
	}
	if r := c.reloads[s]; r != nil {
		if got := r.Final(input, start); got != want {
			return c.divergence("plan-roundtrip", name, input, start, want, got, "reloaded plan disagrees")
		}
	}
	return nil
}

// checkVectors compares full composition vectors — the phase 1
// quantity — on both lanes against |Q| independent oracle runs, for
// machines small enough that the sweep stays cheap.
func (c *checker) checkVectors(input []byte) *Divergence {
	if c.d.NumStates() > c.cfg.MaxVectorStates {
		return nil
	}
	wantVec := OracleVector(c.d, input)
	for _, s := range c.strategies {
		for _, r := range []*core.Runner{c.singles[s], c.multis[s]} {
			got := r.CompositionVector(input)
			for q, w := range wantVec {
				if got[q] != w {
					return c.divergence("composition-vector", s.String(), input, fsm.State(q), w, got[q],
						fmt.Sprintf("vector entry %d (procs=%d)", q, r.Procs()))
				}
			}
		}
	}
	return nil
}

// checkChunked runs the Figure 5 decomposition with a scalar phase 3
// and verifies three things at once: the final state matches the
// oracle, the chunks passed to phase 3 tile the input exactly, and
// every chunk's resolved start state is the oracle state at its
// offset — i.e. phases 1–2 recovered the true prefix composition.
func (c *checker) checkChunked(s core.Strategy, input []byte, start, want fsm.State) *Divergence {
	type seg struct {
		off, n int
		ok     bool
	}
	var mu sync.Mutex
	var segs []seg
	got := c.multis[s].RunChunked(input, start, func(off int, chunk []byte, st fsm.State) fsm.State {
		okStart := OracleFinal(c.d, input[:off], start) == st
		mu.Lock()
		segs = append(segs, seg{off: off, n: len(chunk), ok: okStart})
		mu.Unlock()
		return OracleFinal(c.d, chunk, st)
	})
	name := s.String()
	if got != want {
		return c.divergence("chunked-final", name, input, start, want, got, "RunChunked")
	}
	if len(input) == 0 {
		return nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].off < segs[j].off })
	pos := 0
	for _, g := range segs {
		if g.off != pos || g.n <= 0 {
			return c.divergence("chunked-coverage", name, input, start, want, got,
				fmt.Sprintf("chunk at offset %d (len %d), expected offset %d", g.off, g.n, pos))
		}
		if !g.ok {
			return c.divergence("chunked-coverage", name, input, start, want, got,
				fmt.Sprintf("chunk at offset %d started from a state that is not the oracle prefix state", g.off))
		}
		pos += g.n
	}
	if pos != len(input) {
		return c.divergence("chunked-coverage", name, input, start, want, got,
			fmt.Sprintf("chunks cover %d of %d bytes", pos, len(input)))
	}
	return nil
}

// checkEngine runs the input through the batch engine once per
// registered strategy and verifies the result and the dispatch-lane
// decision.
func (c *checker) checkEngine(input []byte, start, want fsm.State) *Divergence {
	if c.eng == nil {
		return nil
	}
	wantLane := engine.LaneSingle
	if len(input) >= c.cfg.LargeInput && c.cfg.Procs > 1 {
		wantLane = engine.LaneMulticore
	}
	for _, s := range c.strategies {
		res := c.eng.Run(context.Background(), engine.Job{
			Machine: s.String(), Input: input, Start: start, HasStart: true,
		})
		if res.Err != nil {
			return c.divergence("engine-final", s.String(), input, start, want, res.Final,
				"engine error: "+res.Err.Error())
		}
		if res.Final != want {
			return c.divergence("engine-final", s.String(), input, start, want, res.Final, "")
		}
		if wantAcc := c.d.Accepting(want); res.Accepts != wantAcc {
			return c.divergence("engine-final", s.String(), input, start, want, res.Final,
				fmt.Sprintf("accepts=%v, oracle accepts=%v", res.Accepts, wantAcc))
		}
		if res.Lane != wantLane {
			return c.divergence("engine-lane", s.String(), input, start, want, res.Final,
				fmt.Sprintf("lane %q for %d bytes, threshold %d", res.Lane, len(input), c.cfg.LargeInput))
		}
	}
	return nil
}

// checkFold runs one long input — several 64 KiB fold blocks — through
// the Auto-resolved strategy's context path on both lanes, so the
// carried-state block folding (and its multicore chunk variant) is
// compared against the oracle at realistic lengths. One probe per
// machine: the oracle pass dominates the cost.
func (c *checker) checkFold(rngInput []byte) *Divergence {
	if len(c.strategies) == 0 {
		return nil
	}
	// Prefer an enumerative strategy: folding scalar-vs-scalar proves
	// nothing.
	s := c.strategies[0]
	for _, cand := range c.strategies {
		if cand == core.Convergence {
			s = cand
			break
		}
		if cand != core.Sequential {
			s = cand
		}
	}
	start := c.d.Start()
	want := OracleFinal(c.d, rngInput, start)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, r := range []*core.Runner{c.singles[s], c.multis[s]} {
		got, err := r.FinalCtx(ctx, rngInput, start)
		if err != nil {
			return c.divergence("ctx-final", s.String(), rngInput, start, want, got,
				"fold probe error: "+err.Error())
		}
		if got != want {
			return c.divergence("ctx-final", s.String(), rngInput, start, want, got,
				fmt.Sprintf("fold probe, procs=%d", r.Procs()))
		}
	}
	return nil
}

// Check runs the whole differential suite — every oracle check plus
// the metamorphic properties — for one machine over the given inputs,
// returning the first divergence or nil.
func Check(gm GeneratedMachine, inputs [][]byte, cfg Config) *Divergence {
	var tm Timings
	return checkTimed(gm, inputs, cfg, &tm)
}

// CheckInput runs the differential suite for a single (machine, input)
// pair — the reproduction primitive Shrink and the fuzz targets use.
func CheckInput(d *fsm.DFA, input []byte, cfg Config) *Divergence {
	c, dv := newChecker(d, "", cfg)
	if dv != nil {
		return dv
	}
	defer c.Close()
	if dv := c.check(input); dv != nil {
		return dv
	}
	return c.checkSplit(input)
}

// pickLongest returns the longest input of the set (the one most
// likely to engage the multicore decomposition).
func pickLongest(inputs [][]byte) []byte {
	var best []byte
	for _, in := range inputs {
		if len(in) > len(best) {
			best = in
		}
	}
	return best
}

// foldProbe tiles the longest generated input out to foldProbeLen so
// the probe crosses several 64 KiB fold blocks while staying inside
// the machine's alphabet.
func foldProbe(inputs [][]byte) []byte {
	pat := pickLongest(inputs)
	probe := make([]byte, foldProbeLen)
	if len(pat) == 0 {
		return probe // all-zero: symbol 0 is valid in every alphabet
	}
	for i := 0; i < len(probe); i += len(pat) {
		copy(probe[i:], pat)
	}
	return probe
}

// StrategyNames renders cfg's strategy list for reports.
func StrategyNames(cfg Config) []string {
	names := make([]string, len(cfg.Strategies))
	for i, s := range cfg.Strategies {
		names[i] = s.String()
	}
	return names
}
