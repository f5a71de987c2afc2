package regex

import (
	"fmt"
	"strconv"
)

// Parser for the PCRE subset the Snort-shaped corpus uses: literals,
// escapes (\d \D \w \W \s \S, control escapes, \xHH, punctuation),
// character classes with ranges and negation, '.', grouping (capturing
// groups are treated as non-capturing — a DFA has no captures),
// alternation, and the quantifiers * + ? {m} {m,} {m,n} with their
// non-greedy variants (greediness is language-irrelevant for a DFA and
// is dropped). '^' at the very start and '$' at the very end set the
// anchoring flags; anywhere else they are an error, as automaton
// acceptance cannot express mid-pattern anchors.

// maxExpandedSize bounds the byte positions a pattern expands to in the
// NFA (expandedSize), and with them compile time and memory: counters
// copy their bodies, so nested counters multiply, and (a{100}){100}
// would otherwise compile for seconds. The bound admits the long
// run-length counters that produce the Snort corpus's
// multi-thousand-state tail (Figure 12); patterns at the bound compile
// in one to three seconds.
const maxExpandedSize = 3000

// maxPatternBytes bounds a pattern's length. The parser and the NFA
// builder recurse once per nested group or stacked quantifier, so a few
// megabytes of '(' would overflow the goroutine stack and kill the
// process; at this length the deepest pattern recurses some 30,000
// levels, about ten megabytes of stack.
const maxPatternBytes = 64 << 10

// Parsed is the result of parsing a pattern.
type Parsed struct {
	Root        Node
	AnchorStart bool // pattern began with ^
	AnchorEnd   bool // pattern ended with $
}

type parser struct {
	src      string
	pos      int
	foldCase bool
}

// Parse parses pattern into an AST. If foldCase is set, literal letters
// and class letters match both cases (the PCRE /i flag).
func Parse(pattern string, foldCase bool) (*Parsed, error) {
	if len(pattern) > maxPatternBytes {
		return nil, fmt.Errorf("regex: pattern of %d bytes exceeds the %d-byte limit", len(pattern), maxPatternBytes)
	}
	p := &parser{src: pattern, foldCase: foldCase}
	out := &Parsed{}
	if p.peekByte('^') {
		p.pos++
		out.AnchorStart = true
	}
	n, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, p.errorf("unexpected %q", p.src[p.pos])
	}
	if expandedSize(n) > maxExpandedSize {
		return nil, p.errorf("pattern expands to more than %d positions (counters multiply their bodies)", maxExpandedSize)
	}
	// A trailing $ is consumed by parseAtom as an anchor marker; detect
	// it via the sentinel.
	n, out.AnchorEnd = stripEndAnchor(n)
	out.Root = n
	return out, nil
}

// endAnchor is a private sentinel node representing a trailing '$'.
type endAnchor struct{ Empty }

// stripEndAnchor removes a single endAnchor at the very end of the
// expression. It only looks along the right spine of concatenations;
// Parse rejects anchors elsewhere.
func stripEndAnchor(n Node) (Node, bool) {
	switch t := n.(type) {
	case *endAnchor:
		return &Empty{}, true
	case *Concat:
		if len(t.Subs) > 0 {
			if _, ok := t.Subs[len(t.Subs)-1].(*endAnchor); ok {
				t.Subs = t.Subs[:len(t.Subs)-1]
				if len(t.Subs) == 0 {
					return &Empty{}, true
				}
				return t, true
			}
		}
	}
	return n, false
}

// expandedSize counts the byte positions n expands to in the NFA, where
// buildRepeat copies a counter's body once per bound (min+1 times when
// unbounded): a counter multiplies its body's size, concatenation and
// alternation add, and an empty expression counts one. The count
// saturates just past maxExpandedSize, so huge or nested bounds cannot
// overflow it.
func expandedSize(n Node) int {
	const over = maxExpandedSize + 1
	switch t := n.(type) {
	case *Concat:
		return sumSizes(t.Subs)
	case *Alt:
		return sumSizes(t.Subs)
	case *Repeat:
		copies := t.Max
		if copies < 0 {
			copies = min(t.Min, maxExpandedSize) + 1
		}
		sub := expandedSize(t.Sub)
		if copies > over/sub {
			return over
		}
		return max(sub*copies, 1)
	default:
		return 1
	}
}

// sumSizes is expandedSize over a sequence, saturating like it.
func sumSizes(subs []Node) int {
	sum := 0
	for _, sub := range subs {
		if sum += expandedSize(sub); sum > maxExpandedSize {
			return maxExpandedSize + 1
		}
	}
	return sum
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("regex: pos %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) peekByte(b byte) bool {
	return p.pos < len(p.src) && p.src[p.pos] == b
}

func (p *parser) parseAlt() (Node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	if !p.peekByte('|') {
		return first, nil
	}
	alt := &Alt{Subs: []Node{first}}
	for p.peekByte('|') {
		p.pos++
		n, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alt.Subs = append(alt.Subs, n)
	}
	return alt, nil
}

func (p *parser) parseConcat() (Node, error) {
	var subs []Node
	for p.pos < len(p.src) {
		if c := p.src[p.pos]; c == '|' || c == ')' {
			break
		}
		n, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
	}
	switch len(subs) {
	case 0:
		return &Empty{}, nil
	case 1:
		return subs[0], nil
	default:
		return &Concat{Subs: subs}, nil
	}
}

func (p *parser) parseRepeat() (Node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.pos < len(p.src) {
		var min, max int
		switch p.src[p.pos] {
		case '*':
			min, max = 0, -1
			p.pos++
		case '+':
			min, max = 1, -1
			p.pos++
		case '?':
			min, max = 0, 1
			p.pos++
		case '{':
			var ok bool
			min, max, ok, err = p.tryParseCounter()
			if err != nil {
				return nil, err
			}
			if !ok {
				return atom, nil // literal '{'
			}
		default:
			return atom, nil
		}
		// Drop a non-greedy/possessive modifier: same language.
		if p.pos < len(p.src) && (p.src[p.pos] == '?' || p.src[p.pos] == '+') {
			p.pos++
		}
		if _, isAnchor := atom.(*endAnchor); isAnchor {
			return nil, p.errorf("quantifier applied to $")
		}
		atom = &Repeat{Sub: atom, Min: min, Max: max}
	}
	return atom, nil
}

// tryParseCounter parses {m}, {m,}, {m,n} at '{'. Returns ok=false
// (without consuming) when the braces are not a valid counter — PCRE
// treats such a '{' as a literal.
func (p *parser) tryParseCounter() (min, max int, ok bool, err error) {
	start := p.pos
	p.pos++ // '{'
	digits := func() (int, bool) {
		s := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == s {
			return 0, false
		}
		v, convErr := strconv.Atoi(p.src[s:p.pos])
		if convErr != nil {
			return 0, false
		}
		return v, true
	}
	m, mok := digits()
	if !mok {
		p.pos = start
		return 0, 0, false, nil
	}
	min, max = m, m
	if p.peekByte(',') {
		p.pos++
		if n, nok := digits(); nok {
			max = n
		} else {
			max = -1
		}
	}
	if !p.peekByte('}') {
		p.pos = start
		return 0, 0, false, nil
	}
	p.pos++
	if max >= 0 && max < min {
		return 0, 0, false, p.errorf("counter {%d,%d} has max < min", min, max)
	}
	return min, max, true, nil
}

func (p *parser) parseAtom() (Node, error) {
	if p.pos >= len(p.src) {
		return nil, p.errorf("unexpected end of pattern")
	}
	c := p.src[p.pos]
	switch c {
	case '(':
		p.pos++
		// Swallow group modifiers we can honor: (?:, (?i: — others error.
		if p.peekByte('?') {
			p.pos++
			if p.pos >= len(p.src) {
				return nil, p.errorf("unterminated group modifier")
			}
			switch {
			case p.peekByte(':'):
				p.pos++
			case p.peekByte('i'):
				p.pos++
				if !p.peekByte(':') {
					return nil, p.errorf("unsupported group flag")
				}
				p.pos++
				// Scoped /i: simplest correct handling is to fold for
				// the group by toggling the parser flag around it.
				saved := p.foldCase
				p.foldCase = true
				n, err := p.parseAlt()
				p.foldCase = saved
				if err != nil {
					return nil, err
				}
				if !p.peekByte(')') {
					return nil, p.errorf("missing )")
				}
				p.pos++
				return n, nil
			default:
				return nil, p.errorf("unsupported (?%c group", p.src[p.pos])
			}
		}
		n, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if !p.peekByte(')') {
			return nil, p.errorf("missing )")
		}
		p.pos++
		return n, nil
	case ')':
		return nil, p.errorf("unmatched )")
	case '[':
		return p.parseClass()
	case '.':
		p.pos++
		return &Leaf{Set: anyByte()}, nil
	case '\\':
		cls, err := p.parseEscape(false)
		if err != nil {
			return nil, err
		}
		return &Leaf{Set: cls}, nil
	case '$':
		p.pos++
		if p.pos != len(p.src) {
			return nil, p.errorf("$ only supported at end of pattern")
		}
		return &endAnchor{}, nil
	case '^':
		return nil, p.errorf("^ only supported at start of pattern")
	case '*', '+', '?':
		return nil, p.errorf("quantifier %q with nothing to repeat", c)
	default:
		p.pos++
		cls := singleton(c)
		if p.foldCase {
			cls.FoldCase()
		}
		return &Leaf{Set: cls}, nil
	}
}

// parseEscape handles a backslash escape; inClass adjusts which escapes
// are legal. The cursor is on the backslash.
func (p *parser) parseEscape(inClass bool) (Class, error) {
	p.pos++ // backslash
	if p.pos >= len(p.src) {
		return Class{}, p.errorf("trailing backslash")
	}
	c := p.src[p.pos]
	p.pos++
	var cls Class
	switch c {
	case 'd':
		cls.AddRange('0', '9')
	case 'D':
		cls.AddRange('0', '9')
		cls.Negate()
	case 'w':
		cls.AddRange('a', 'z')
		cls.AddRange('A', 'Z')
		cls.AddRange('0', '9')
		cls.Add('_')
	case 'W':
		cls.AddRange('a', 'z')
		cls.AddRange('A', 'Z')
		cls.AddRange('0', '9')
		cls.Add('_')
		cls.Negate()
	case 's':
		for _, b := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			cls.Add(b)
		}
	case 'S':
		for _, b := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			cls.Add(b)
		}
		cls.Negate()
	case 'n':
		cls.Add('\n')
	case 'r':
		cls.Add('\r')
	case 't':
		cls.Add('\t')
	case 'f':
		cls.Add('\f')
	case 'v':
		cls.Add('\v')
	case 'a':
		cls.Add(7)
	case 'e':
		cls.Add(27)
	case '0':
		cls.Add(0)
	case 'x':
		if p.pos+2 > len(p.src) {
			return Class{}, p.errorf("truncated \\x escape")
		}
		v, err := strconv.ParseUint(p.src[p.pos:p.pos+2], 16, 8)
		if err != nil {
			return Class{}, p.errorf("bad \\x escape: %v", err)
		}
		p.pos += 2
		cls.Add(byte(v))
	default:
		// Punctuation and metacharacter escapes match themselves.
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			return Class{}, p.errorf("unsupported escape \\%c", c)
		}
		cls.Add(c)
	}
	if p.foldCase && !inClass {
		cls.FoldCase()
	}
	return cls, nil
}

// parseClass parses a [...] character class; the cursor is on '['.
func (p *parser) parseClass() (Node, error) {
	p.pos++ // '['
	var cls Class
	negate := false
	if p.peekByte('^') {
		negate = true
		p.pos++
	}
	first := true
	for {
		if p.pos >= len(p.src) {
			return nil, p.errorf("missing ]")
		}
		c := p.src[p.pos]
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false

		var lo Class
		loByte := byte(0)
		isRangeable := false
		if c == '\\' {
			var err error
			lo, err = p.parseEscape(true)
			if err != nil {
				return nil, err
			}
			if lo.Count() == 1 {
				for b := 0; b < 256; b++ {
					if lo.Has(byte(b)) {
						loByte = byte(b)
						isRangeable = true
					}
				}
			}
		} else {
			p.pos++
			lo = singleton(c)
			loByte = c
			isRangeable = true
		}

		// Range?
		if isRangeable && p.peekByte('-') && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++ // '-'
			hc := p.src[p.pos]
			var hiByte byte
			if hc == '\\' {
				hi, err := p.parseEscape(true)
				if err != nil {
					return nil, err
				}
				if hi.Count() != 1 {
					return nil, p.errorf("class range bound must be a single byte")
				}
				for b := 0; b < 256; b++ {
					if hi.Has(byte(b)) {
						hiByte = byte(b)
					}
				}
			} else {
				p.pos++
				hiByte = hc
			}
			if hiByte < loByte {
				return nil, p.errorf("reversed class range %c-%c", loByte, hiByte)
			}
			var r Class
			r.AddRange(loByte, hiByte)
			cls.Union(r)
			continue
		}
		cls.Union(lo)
	}
	if p.foldCase {
		cls.FoldCase()
	}
	if negate {
		cls.Negate()
	}
	if cls.IsEmpty() {
		return nil, p.errorf("empty character class")
	}
	return &Leaf{Set: cls}, nil
}
