package regex

// Match-position extraction. Acceptance tells a scanner *that* a match
// exists; reporting *where* takes two machines (the classic
// RE2/Thompson technique):
//
//   - the forward "contains" machine finds the earliest position e at
//     which some match ends (core.FirstAccepting does this scan,
//     data-parallel when the runner is multicore); and
//   - a machine for the *reversed* pattern, run backward over
//     input[..e], finds the leftmost start s such that input[s..e]
//     matches — the farthest backward position where the reversed
//     machine accepts.
//
// The result is the leftmost match end and, for that end, the leftmost
// start (leftmost-longest-start for the fixed end).

import (
	"context"
	"fmt"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
)

// reverseAST returns the AST of the reversed language: concatenations
// flip, everything else recurses.
func reverseAST(n Node) Node {
	switch t := n.(type) {
	case *Concat:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[len(subs)-1-i] = reverseAST(s)
		}
		return &Concat{Subs: subs}
	case *Alt:
		subs := make([]Node, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = reverseAST(s)
		}
		return &Alt{Subs: subs}
	case *Repeat:
		return &Repeat{Sub: reverseAST(t.Sub), Min: t.Min, Max: t.Max}
	default:
		return n // Leaf, Empty, endAnchor carry no order
	}
}

// MatchEnd is the single non-gap output symbol of a Finder's match-end
// transducer: position i carries MatchEnd exactly when some match ends
// at i+1.
const MatchEnd fsm.Output = 1

// Finder locates matches of an unanchored pattern. The reported span
// is deterministic three-step semantics: the *earliest end* of any
// match (a streaming scanner reports as soon as something completes),
// the *leftmost start* among matches with that end, and then the
// *longest extent* from that start — so `\d+` on "abc123" reports
// "123", not "1".
type Finder struct {
	fwd    *fsm.DFA // contains-semantics machine (sticky accept)
	rev    *fsm.DFA // reversed pattern, "ends here" semantics
	exact  *fsm.DFA // anchored machine, for the longest-extent pass
	dead   []bool   // exact-machine states that can never accept again
	runner *core.Runner

	// ends is the Σ*P machine (unanchored start, no sticky accept):
	// acceptance marks exactly the positions where some match ends.
	// endsT overlays it with the Mealy match-end marker, compiled to
	// the same plan shape as every other machine (CompileTransducer),
	// and endsR transduces it — data-parallel end extraction.
	endsT *fsm.Transducer
	endsR *core.Runner
}

// NewFinder compiles the forward and reversed machines. opts.Anchored
// is rejected — anchored matches need no search. runnerOpts configure
// the forward scan (strategy/procs).
func NewFinder(pattern string, opts Options, runnerOpts ...core.Option) (*Finder, error) {
	if opts.Anchored {
		return nil, fmt.Errorf("regex: Finder is for unanchored search")
	}
	parsed, err := Parse(pattern, opts.CaseInsensitive)
	if err != nil {
		return nil, err
	}
	if parsed.AnchorStart || parsed.AnchorEnd {
		return nil, fmt.Errorf("regex: Finder does not support ^/$ anchors")
	}
	fwd, err := compileParsed(context.Background(), parsed, opts)
	if err != nil {
		return nil, err
	}
	if fwd.Accepting(fwd.Start()) {
		// With Σ*PΣ* semantics the start state accepts iff P matches
		// the empty string, in which case every position "matches" and
		// there is nothing useful to report.
		return nil, fmt.Errorf("regex: pattern matches the empty string; Finder needs a non-nullable pattern")
	}

	// Reversed machine: Σ* prefix (so it can start anywhere when run
	// backward from the match end) but NO sticky accept — acceptance
	// must mark exact reversed-match ends, i.e. forward match starts.
	revAST := reverseAST(parsed.Root)
	n := fromAST(revAST, true)
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	rev, err := determinize(context.Background(), n, maxStates, false)
	if err != nil {
		return nil, err
	}
	rev = rev.Minimize()

	exact, err := compileParsed(context.Background(), parsed, Options{
		CaseInsensitive: opts.CaseInsensitive,
		Anchored:        true,
		MaxStates:       opts.MaxStates,
	})
	if err != nil {
		return nil, err
	}

	runner, err := core.New(fwd, runnerOpts...)
	if err != nil {
		return nil, err
	}

	// "Ends-here" machine and its match-end transducer: Σ*P without
	// sticky accept, so entering an accepting state at position i means
	// a match ends at i+1 — exactly the Mealy emission λ(q, a) =
	// MatchEnd iff δ(q, a) accepts.
	ends, err := determinize(context.Background(), fromAST(parsed.Root, true), maxStates, false)
	if err != nil {
		return nil, err
	}
	ends = ends.Minimize()
	endsT, err := fsm.NewMealy(ends, 2)
	if err != nil {
		return nil, err
	}
	for a := 0; a < ends.NumSymbols(); a++ {
		for q := fsm.State(0); int(q) < ends.NumStates(); q++ {
			if ends.Accepting(ends.Next(q, byte(a))) {
				endsT.SetMealyOutput(q, byte(a), MatchEnd)
			}
		}
	}
	ep, err := core.CompileTransducer(endsT, runnerOpts...)
	if err != nil {
		return nil, err
	}
	endsR, err := core.NewFromPlan(ep, runnerOpts...)
	if err != nil {
		return nil, err
	}
	return &Finder{
		fwd:    fwd,
		rev:    rev,
		exact:  exact,
		dead:   deadStates(exact),
		runner: runner,
		endsT:  endsT,
		endsR:  endsR,
	}, nil
}

// deadStates marks states from which no accepting state is reachable —
// the longest-extent scan stops there.
func deadStates(d *fsm.DFA) []bool {
	n := d.NumStates()
	// Reverse reachability from accepting states.
	rev := make([][]fsm.State, n)
	for q := 0; q < n; q++ {
		for a := 0; a < d.NumSymbols(); a++ {
			r := d.Next(fsm.State(q), byte(a))
			rev[r] = append(rev[r], fsm.State(q))
		}
	}
	alive := make([]bool, n)
	var stack []fsm.State
	for q := 0; q < n; q++ {
		if d.Accepting(fsm.State(q)) {
			alive[q] = true
			stack = append(stack, fsm.State(q))
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !alive[p] {
				alive[p] = true
				stack = append(stack, p)
			}
		}
	}
	dead := make([]bool, n)
	for q := range dead {
		dead[q] = !alive[q]
	}
	return dead
}

// Machine returns the forward machine (for stats/strategy inspection).
func (f *Finder) Machine() *fsm.DFA { return f.fwd }

// Find returns the span [start, end) of a match under the semantics
// documented on Finder. ok is false when input has no match.
func (f *Finder) Find(input []byte) (start, end int, ok bool) {
	e := f.runner.FirstAccepting(input, f.fwd.Start())
	if e < 0 {
		return 0, 0, false
	}
	end = e + 1 // FirstAccepting reports the index of the last byte

	// Backward scan: run the reversed machine over input[end-1 .. 0],
	// remembering the farthest (smallest forward index) accept.
	q := f.rev.Start()
	start = end
	for i := end - 1; i >= 0; i-- {
		q = f.rev.Next(q, input[i])
		if f.rev.Accepting(q) {
			start = i
		}
	}

	// Longest-extent pass: run the anchored machine from start,
	// remembering the last accept; stop early once no accept is
	// reachable.
	qe := f.exact.Start()
	for i := start; i < len(input); i++ {
		qe = f.exact.Next(qe, input[i])
		if f.exact.Accepting(qe) {
			end = i + 1
		}
		if f.dead[qe] {
			break
		}
	}
	return start, end, true
}

// Transducer returns the match-end marking Mealy machine: over the
// "ends-here" DFA, position i emits MatchEnd exactly when some match
// ends at i+1. It compiles to the same plan shape as any transducer
// (core.CompileTransducer), which is how it can be registered with the
// engine and served over /v1/transduce.
func (f *Finder) Transducer() *fsm.Transducer { return f.endsT }

// FindAllParallel is FindAll with the end-position scan replaced by
// one data-parallel transduce pass: the match-end tape over the whole
// input is computed chunk-parallel (Figure 5 replay), then matches are
// recovered left to right — for each candidate end past the resume
// offset, the reversed machine (restricted to the unconsumed region)
// yields the leftmost start, and the anchored machine extends to the
// longest extent. Ends found on the full input are a superset of the
// ends each suffix search would find, and the backward check filters
// exactly the difference, so the result equals FindAll's.
func (f *Finder) FindAllParallel(input []byte, limit int) ([][2]int, error) {
	if limit == 0 {
		return nil, nil
	}
	tape, _, err := f.endsR.TransduceOutputs(input, f.endsT.DFA().Start())
	if err != nil {
		return nil, err
	}
	var out [][2]int
	off := 0
	for i := 0; i < len(tape); i++ {
		if tape[i] != MatchEnd || i < off {
			continue
		}
		e := i + 1
		// Leftmost start ≥ off for a match ending at e; none means this
		// end belongs to a match the resume offset already consumed.
		q := f.rev.Start()
		s := -1
		for j := e - 1; j >= off; j-- {
			q = f.rev.Next(q, input[j])
			if f.rev.Accepting(q) {
				s = j
			}
		}
		if s < 0 {
			continue
		}
		// Longest extent from s, as in Find.
		qe := f.exact.Start()
		end := e
		for j := s; j < len(input); j++ {
			qe = f.exact.Next(qe, input[j])
			if f.exact.Accepting(qe) {
				end = j + 1
			}
			if f.dead[qe] {
				break
			}
		}
		out = append(out, [2]int{s, end})
		off = end
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// FindAll returns all non-overlapping leftmost matches, scanning left
// to right (each search resumes at the previous match end). limit < 0
// means no limit.
func (f *Finder) FindAll(input []byte, limit int) [][2]int {
	var out [][2]int
	off := 0
	for limit < 0 || len(out) < limit {
		s, e, ok := f.Find(input[off:])
		if !ok {
			break
		}
		out = append(out, [2]int{off + s, off + e})
		if e == 0 {
			break // defensive: no progress
		}
		off += e
	}
	return out
}
