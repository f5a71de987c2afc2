package regex

import (
	"context"
	"fmt"
	"sort"

	"dpfsm/internal/fsm"
)

// Subset construction and the public compile entry points.

// Options configures compilation.
type Options struct {
	// CaseInsensitive applies the PCRE /i flag to the whole pattern.
	CaseInsensitive bool
	// Anchored compiles exact whole-input match semantics (as if the
	// pattern were ^pattern$ regardless of written anchors). The
	// default is Snort-style "contains a match" semantics: the machine
	// accepts any input with a matching substring, and accepting
	// states are absorbing so a scan can stop (or keep scanning) after
	// the first hit.
	Anchored bool
	// MaxStates caps the subset construction before minimization.
	// 0 means DefaultMaxStates.
	MaxStates int
}

// DefaultMaxStates bounds subset construction. The paper's largest
// machine has 4020 minimized states; pre-minimization intermediates can
// be larger.
const DefaultMaxStates = 50000

// Compile parses pattern and produces a minimized DFA over the 256-byte
// alphabet. See Options for the matching semantics.
func Compile(pattern string, opts Options) (*fsm.DFA, error) {
	return CompileContext(context.Background(), pattern, opts)
}

// CompileContext is Compile under ctx: subset construction checks ctx
// once per DFA state and returns ctx.Err() once it is done, so a caller
// that goes away stops a compile that would run for seconds.
func CompileContext(ctx context.Context, pattern string, opts Options) (*fsm.DFA, error) {
	parsed, err := Parse(pattern, opts.CaseInsensitive)
	if err != nil {
		return nil, err
	}
	return compileParsed(ctx, parsed, opts)
}

// MustCompile is Compile but panics on error; for tests and static
// patterns.
func MustCompile(pattern string, opts Options) *fsm.DFA {
	d, err := Compile(pattern, opts)
	if err != nil {
		panic(err)
	}
	return d
}

func compileParsed(ctx context.Context, parsed *Parsed, opts Options) (*fsm.DFA, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}

	anchorStart := opts.Anchored || parsed.AnchorStart
	anchorEnd := opts.Anchored || parsed.AnchorEnd

	n := fromAST(parsed.Root, !anchorStart)
	d, err := determinize(ctx, n, maxStates, !anchorEnd)
	if err != nil {
		return nil, err
	}
	return d.Minimize(), nil
}

// determinize runs subset construction. If stickyAccept, accepting DFA
// states are made absorbing (Σ* suffix: once a match has been seen the
// machine stays accepting), which together with the Σ* prefix loop in
// fromAST yields "input contains a match" semantics.
// byteClasses partitions the 256 input bytes into equivalence classes:
// two bytes are equivalent when every edge class in the NFA either
// contains both or neither, so they can never be distinguished by any
// machine derived from it. Subset construction then computes one
// transition per class representative instead of 256 — most patterns
// have well under 32 classes.
func byteClasses(n *nfa) (classOf [256]int, reps []byte) {
	// Refine the single all-bytes group by each distinct edge set.
	seen := map[Class]bool{}
	for i := range n.states {
		for _, e := range n.states[i].edges {
			if seen[e.set] {
				continue
			}
			seen[e.set] = true
			// Split: bytes in e.set get a distinct sub-id.
			type pair struct {
				old int
				in  bool
			}
			remap := map[pair]int{}
			next := 0
			var nc [256]int
			for b := 0; b < 256; b++ {
				p := pair{classOf[b], e.set.Has(byte(b))}
				id, ok := remap[p]
				if !ok {
					id = next
					next++
					remap[p] = id
				}
				nc[b] = id
			}
			classOf = nc
		}
	}
	found := map[int]bool{}
	for b := 0; b < 256; b++ {
		if !found[classOf[b]] {
			found[classOf[b]] = true
			reps = append(reps, byte(b))
		}
	}
	return classOf, reps
}

func determinize(ctx context.Context, n *nfa, maxStates int, stickyAccept bool) (*fsm.DFA, error) {
	mark := make([]bool, len(n.states))
	clear := func(set []int) {
		for _, s := range set {
			mark[s] = false
		}
	}

	key := func(set []int) string {
		b := make([]byte, 0, len(set)*3)
		for _, s := range set {
			b = append(b, byte(s), byte(s>>8), byte(s>>16))
		}
		return string(b)
	}

	start := n.epsClosure([]int{n.start}, mark)
	clear(start)
	sort.Ints(start)

	type dstate struct {
		set    []int
		accept bool
	}
	contains := func(set []int, x int) bool {
		i := sort.SearchInts(set, x)
		return i < len(set) && set[i] == x
	}

	ids := map[string]fsm.State{key(start): 0}
	states := []dstate{{set: start, accept: contains(start, n.accept)}}
	// trans[q] = [256]fsm.State rows, built densely then copied.
	var trans [][256]fsm.State

	classOf, reps := byteClasses(n)
	repClass := make(map[int]int, len(reps))
	for ci, rep := range reps {
		repClass[classOf[rep]] = ci
	}

	for qi := 0; qi < len(states); qi++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := states[qi]
		var row [256]fsm.State
		if cur.accept && stickyAccept {
			for b := 0; b < 256; b++ {
				row[b] = fsm.State(qi)
			}
			trans = append(trans, row)
			continue
		}
		// One subset move per byte-equivalence class; all bytes in the
		// class share the destination.
		perClass := make([]fsm.State, len(reps))
		for ci, rep := range reps {
			var mv []int
			for _, s := range cur.set {
				for _, e := range n.states[s].edges {
					if e.set.Has(rep) {
						mv = append(mv, e.to)
					}
				}
			}
			sort.Ints(mv)
			mv = dedupSorted(mv)
			mv = n.epsClosure(mv, mark)
			clear(mv)
			sort.Ints(mv)
			k := key(mv)
			id, ok := ids[k]
			if !ok {
				id = fsm.State(len(states))
				if int(id) >= maxStates || int(id) >= fsm.MaxStates {
					return nil, fmt.Errorf("regex: DFA exceeds %d states", maxStates)
				}
				ids[k] = id
				states = append(states, dstate{set: mv, accept: contains(mv, n.accept)})
			}
			perClass[ci] = id
		}
		for b := 0; b < 256; b++ {
			row[b] = perClass[repClass[classOf[b]]]
		}
		trans = append(trans, row)
	}

	d, err := fsm.New(len(states), 256)
	if err != nil {
		return nil, err
	}
	for qi := range states {
		if states[qi].accept {
			d.SetAccepting(fsm.State(qi), true)
		}
		for b := 0; b < 256; b++ {
			d.SetTransition(fsm.State(qi), byte(b), trans[qi][b])
		}
	}
	d.SetStart(0)
	return d, nil
}

func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// MatchAST is a reference matcher: it reports whether input, in its
// entirety, matches the AST. It is deliberately naive (memoized
// recursive descent over (node, span)) and exists as the oracle the
// compiled machines are differentially tested against.
func MatchAST(root Node, input []byte) bool {
	return matchNode(root, input, 0, len(input), make(map[matchKey]bool))
}

type matchKey struct {
	node Node
	lo   int
	hi   int
}

func matchNode(n Node, in []byte, lo, hi int, memo map[matchKey]bool) bool {
	k := matchKey{n, lo, hi}
	if v, ok := memo[k]; ok {
		return v
	}
	memo[k] = false // cut recursion on cyclic revisits
	var res bool
	switch t := n.(type) {
	case *Empty, *endAnchor:
		res = lo == hi
	case *Leaf:
		res = hi-lo == 1 && t.Set.Has(in[lo])
	case *Alt:
		for _, sub := range t.Subs {
			if matchNode(sub, in, lo, hi, memo) {
				res = true
				break
			}
		}
	case *Concat:
		res = matchSeq(t.Subs, in, lo, hi, memo)
	case *Repeat:
		res = matchRepeat(t, in, lo, hi, memo)
	}
	memo[k] = res
	return res
}

func matchSeq(subs []Node, in []byte, lo, hi int, memo map[matchKey]bool) bool {
	if len(subs) == 0 {
		return lo == hi
	}
	if len(subs) == 1 {
		return matchNode(subs[0], in, lo, hi, memo)
	}
	for mid := lo; mid <= hi; mid++ {
		if matchNode(subs[0], in, lo, mid, memo) && matchSeq(subs[1:], in, mid, hi, memo) {
			return true
		}
	}
	return false
}

func matchRepeat(r *Repeat, in []byte, lo, hi int, memo map[matchKey]bool) bool {
	// k copies of Sub for some Min ≤ k (≤ Max).
	var rec func(count, pos int) bool
	rec = func(count, pos int) bool {
		if count >= r.Min && pos == hi {
			return true
		}
		if r.Max >= 0 && count == r.Max {
			return false
		}
		for mid := pos; mid <= hi; mid++ {
			// Zero-width repeat bodies would loop forever; require
			// progress except for the first empty check.
			if mid == pos && count > 0 && pos == hi {
				break
			}
			if matchNode(r.Sub, in, pos, mid, memo) {
				if mid == pos {
					// Empty body match: only useful to satisfy Min.
					if count+1 >= r.Min && mid == hi {
						return true
					}
					continue
				}
				if rec(count+1, mid) {
					return true
				}
			}
		}
		return false
	}
	return rec(0, lo)
}

// MatchContains reports whether any substring of input matches the AST
// — the oracle for the default unanchored compilation mode.
func MatchContains(root Node, input []byte) bool {
	for lo := 0; lo <= len(input); lo++ {
		for hi := lo; hi <= len(input); hi++ {
			if MatchAST(root, input[lo:hi]) {
				return true
			}
		}
	}
	return false
}
