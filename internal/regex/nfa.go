package regex

// Thompson construction: AST → NFA with ε-transitions and class-labeled
// edges. The construction is the textbook one (Hopcroft & Ullman),
// producing one start and one accept state per fragment.

type nfaEdge struct {
	set Class
	to  int
}

type nfaState struct {
	eps   []int
	edges []nfaEdge
}

type nfa struct {
	states []nfaState
	start  int
	accept int
}

func (n *nfa) newState() int {
	n.states = append(n.states, nfaState{})
	return len(n.states) - 1
}

func (n *nfa) addEps(from, to int) {
	n.states[from].eps = append(n.states[from].eps, to)
}

func (n *nfa) addEdge(from int, set Class, to int) {
	n.states[from].edges = append(n.states[from].edges, nfaEdge{set: set, to: to})
}

// frag is an NFA fragment with unique entry and exit states.
type frag struct{ in, out int }

// build recursively translates the AST into fragments.
func (n *nfa) build(node Node) frag {
	switch t := node.(type) {
	case *Empty, *endAnchor:
		s := n.newState()
		e := n.newState()
		n.addEps(s, e)
		return frag{s, e}
	case *Leaf:
		s := n.newState()
		e := n.newState()
		n.addEdge(s, t.Set, e)
		return frag{s, e}
	case *Concat:
		cur := n.build(t.Subs[0])
		for _, sub := range t.Subs[1:] {
			next := n.build(sub)
			n.addEps(cur.out, next.in)
			cur = frag{cur.in, next.out}
		}
		return cur
	case *Alt:
		s := n.newState()
		e := n.newState()
		for _, sub := range t.Subs {
			f := n.build(sub)
			n.addEps(s, f.in)
			n.addEps(f.out, e)
		}
		return frag{s, e}
	case *Repeat:
		return n.buildRepeat(t)
	default:
		panic("regex: unknown AST node")
	}
}

// buildRepeat expands {min,max} into min required copies followed by
// either a Kleene star (max < 0) or max-min optional copies. The parser
// bounds the expansion with maxExpandedSize.
func (n *nfa) buildRepeat(r *Repeat) frag {
	star := func(sub Node) frag {
		s := n.newState()
		e := n.newState()
		f := n.build(sub)
		n.addEps(s, f.in)
		n.addEps(s, e)
		n.addEps(f.out, f.in)
		n.addEps(f.out, e)
		return frag{s, e}
	}
	if r.Min == 0 && r.Max < 0 {
		return star(r.Sub)
	}

	var pieces []frag
	for i := 0; i < r.Min; i++ {
		pieces = append(pieces, n.build(r.Sub))
	}
	switch {
	case r.Max < 0:
		pieces = append(pieces, star(r.Sub))
	default:
		for i := r.Min; i < r.Max; i++ {
			// Optional copy: sub | ε.
			f := n.build(r.Sub)
			s := n.newState()
			e := n.newState()
			n.addEps(s, f.in)
			n.addEps(f.out, e)
			n.addEps(s, e)
			pieces = append(pieces, frag{s, e})
		}
	}
	if len(pieces) == 0 {
		// {0} or {0,0}: empty match.
		s := n.newState()
		e := n.newState()
		n.addEps(s, e)
		return frag{s, e}
	}
	cur := pieces[0]
	for _, f := range pieces[1:] {
		n.addEps(cur.out, f.in)
		cur = frag{cur.in, f.out}
	}
	return cur
}

// fromAST builds a complete NFA. If unanchoredStart, a Σ-self-loop
// start is prepended (Σ* prefix), implementing "match anywhere"
// semantics.
func fromAST(root Node, unanchoredStart bool) *nfa {
	n := &nfa{}
	f := n.build(root)
	start := f.in
	if unanchoredStart {
		s := n.newState()
		n.addEdge(s, anyByte(), s)
		n.addEps(s, f.in)
		start = s
	}
	n.start = start
	n.accept = f.out
	return n
}

// epsClosure expands set (a sorted list of NFA state ids) in place to
// its ε-closure, using mark as scratch (len == |states|, cleared on
// return is the caller's job via the returned list).
func (n *nfa) epsClosure(set []int, mark []bool) []int {
	stack := append([]int(nil), set...)
	for _, s := range set {
		mark[s] = true
	}
	out := set
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.states[s].eps {
			if !mark[e] {
				mark[e] = true
				out = append(out, e)
				stack = append(stack, e)
			}
		}
	}
	return out
}
