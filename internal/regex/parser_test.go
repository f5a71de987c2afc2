package regex

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, pat string, fold bool) *Parsed {
	t.Helper()
	p, err := Parse(pat, fold)
	if err != nil {
		t.Fatalf("Parse(%q): %v", pat, err)
	}
	return p
}

func TestParseLiterals(t *testing.T) {
	p := mustParse(t, "abc", false)
	c, ok := p.Root.(*Concat)
	if !ok || len(c.Subs) != 3 {
		t.Fatalf("want 3-concat, got %T %s", p.Root, Dump(p.Root))
	}
	for i, want := range []byte{'a', 'b', 'c'} {
		l := c.Subs[i].(*Leaf)
		if !l.Set.Has(want) || l.Set.Count() != 1 {
			t.Errorf("sub %d should match only %q", i, want)
		}
	}
}

func TestParseFoldCase(t *testing.T) {
	p := mustParse(t, "a", true)
	l := p.Root.(*Leaf)
	if !l.Set.Has('a') || !l.Set.Has('A') || l.Set.Count() != 2 {
		t.Error("case-folded literal should match both cases")
	}
}

func TestParseQuantifiers(t *testing.T) {
	cases := []struct {
		pat      string
		min, max int
	}{
		{"a*", 0, -1},
		{"a+", 1, -1},
		{"a?", 0, 1},
		{"a{3}", 3, 3},
		{"a{2,}", 2, -1},
		{"a{2,5}", 2, 5},
		{"a*?", 0, -1}, // non-greedy collapses
		{"a+?", 1, -1},
	}
	for _, c := range cases {
		p := mustParse(t, c.pat, false)
		r, ok := p.Root.(*Repeat)
		if !ok {
			t.Fatalf("%q: want Repeat, got %T", c.pat, p.Root)
		}
		if r.Min != c.min || r.Max != c.max {
			t.Errorf("%q: {%d,%d}, want {%d,%d}", c.pat, r.Min, r.Max, c.min, c.max)
		}
	}
}

func TestParseLiteralBrace(t *testing.T) {
	// '{' not followed by a valid counter is a literal.
	p := mustParse(t, "a{x", false)
	c, ok := p.Root.(*Concat)
	if !ok || len(c.Subs) != 3 {
		t.Fatalf("want 3-concat, got %s", Dump(p.Root))
	}
	if l := c.Subs[1].(*Leaf); !l.Set.Has('{') {
		t.Error("middle leaf should be literal {")
	}
}

func TestParseAnchors(t *testing.T) {
	p := mustParse(t, "^abc$", false)
	if !p.AnchorStart || !p.AnchorEnd {
		t.Errorf("anchors: start=%v end=%v", p.AnchorStart, p.AnchorEnd)
	}
	p = mustParse(t, "abc", false)
	if p.AnchorStart || p.AnchorEnd {
		t.Error("unanchored pattern reported anchors")
	}
	if _, err := Parse("a^b", false); err == nil {
		t.Error("mid-pattern ^ should error")
	}
	if _, err := Parse("a$b", false); err == nil {
		t.Error("mid-pattern $ should error")
	}
	if _, err := Parse("a$*", false); err == nil {
		t.Error("quantified $ should error")
	}
}

func TestParseClasses(t *testing.T) {
	p := mustParse(t, "[a-cx]", false)
	l := p.Root.(*Leaf)
	for _, b := range []byte{'a', 'b', 'c', 'x'} {
		if !l.Set.Has(b) {
			t.Errorf("class should contain %q", b)
		}
	}
	if l.Set.Count() != 4 {
		t.Errorf("class size %d, want 4", l.Set.Count())
	}

	p = mustParse(t, "[^0-9]", false)
	l = p.Root.(*Leaf)
	if l.Set.Has('5') || !l.Set.Has('a') || l.Set.Count() != 246 {
		t.Error("negated class wrong")
	}

	p = mustParse(t, `[\d\s]`, false)
	l = p.Root.(*Leaf)
	if !l.Set.Has('7') || !l.Set.Has(' ') || l.Set.Has('a') {
		t.Error("escape union in class wrong")
	}

	// ']' first is literal.
	p = mustParse(t, "[]a]", false)
	l = p.Root.(*Leaf)
	if !l.Set.Has(']') || !l.Set.Has('a') || l.Set.Count() != 2 {
		t.Error("leading ] should be literal")
	}

	// Trailing '-' is literal.
	p = mustParse(t, "[a-]", false)
	l = p.Root.(*Leaf)
	if !l.Set.Has('-') || !l.Set.Has('a') {
		t.Error("trailing - should be literal")
	}
}

func TestParseClassErrors(t *testing.T) {
	for _, pat := range []string{"[", "[z-a]", "[a", `[\q]`} {
		if _, err := Parse(pat, false); err == nil {
			t.Errorf("Parse(%q) should fail", pat)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	cases := []struct {
		pat  string
		has  []byte
		not  []byte
		size int
	}{
		{`\d`, []byte{'0', '9'}, []byte{'a'}, 10},
		{`\D`, []byte{'a', 0}, []byte{'5'}, 246},
		{`\w`, []byte{'a', 'Z', '0', '_'}, []byte{'-'}, 63},
		{`\s`, []byte{' ', '\t', '\n'}, []byte{'a'}, 6},
		{`\n`, []byte{'\n'}, []byte{'n'}, 1},
		{`\x41`, []byte{'A'}, []byte{'a'}, 1},
		{`\.`, []byte{'.'}, []byte{'a'}, 1},
		{`\\`, []byte{'\\'}, nil, 1},
		{`\0`, []byte{0}, nil, 1},
	}
	for _, c := range cases {
		p := mustParse(t, c.pat, false)
		l, ok := p.Root.(*Leaf)
		if !ok {
			t.Fatalf("%q: want Leaf, got %T", c.pat, p.Root)
		}
		for _, b := range c.has {
			if !l.Set.Has(b) {
				t.Errorf("%q should match %q", c.pat, b)
			}
		}
		for _, b := range c.not {
			if l.Set.Has(b) {
				t.Errorf("%q should not match %q", c.pat, b)
			}
		}
		if l.Set.Count() != c.size {
			t.Errorf("%q: size %d, want %d", c.pat, l.Set.Count(), c.size)
		}
	}
}

func TestParseGroups(t *testing.T) {
	mustParse(t, "(ab|cd)+", false)
	mustParse(t, "(?:ab)*", false)
	p := mustParse(t, "a(?i:bc)d", false)
	// The inner group folds case; outside does not.
	conc := p.Root.(*Concat)
	if l := conc.Subs[0].(*Leaf); l.Set.Has('A') {
		t.Error("outer literal should not fold")
	}
	inner := conc.Subs[1].(*Concat)
	if l := inner.Subs[0].(*Leaf); !l.Set.Has('B') || !l.Set.Has('b') {
		t.Error("inner group should fold")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(",
		")",
		"(a",
		"*a",
		"+",
		"?x)",
		`\`,
		`\q`,
		`\x4`,
		`\xzz`,
		"a{5,2}",
		"a{99999}",
		"(?=a)", // lookahead unsupported
		"(?",    // fuzz regression: truncated group modifier must not panic
		"(?i",
		"(?i:a",
	}
	for _, pat := range bad {
		if _, err := Parse(pat, false); err == nil {
			t.Errorf("Parse(%q) should fail", pat)
		}
	}
}

// TestParseBoundsExpandedSize: a counter multiplies its body's
// expanded size and concatenation and alternation add, so nested or
// summed counters past maxExpandedSize are refused by Parse (before any
// NFA is built) and by Compile; patterns at the bound still parse.
func TestParseBoundsExpandedSize(t *testing.T) {
	refused := []string{
		"(a{100}){100}",
		"(a{300}){300}",
		"((a{3000}){3000}){3000}",
		"a{3001}",
		"a{99999}",
		"(ab){1501}",
		"a{1000}b{1000}c{1001}",
		"(a{1000}|b{1000}|c{1001})",
		"(a{0}){3001}",
		"((((((((((((a+)+)+)+)+)+)+)+)+)+)+)+)", // each + copies its body twice
		"a{9223372036854775807,}",
		"a{0,9223372036854775807}",
		"(a{9223372036854775807}){9223372036854775807}",
	}
	for _, pat := range refused {
		if _, err := Parse(pat, false); err == nil || !strings.Contains(err.Error(), "expands to more than") {
			t.Errorf("Parse(%q) = %v, want the expansion bound", pat, err)
		}
		if _, err := Compile(pat, Options{}); err == nil {
			t.Errorf("Compile(%q) accepted", pat)
		}
	}
	for _, pat := range []string{
		"a{3000}",
		"(ab){1500}",
		"(a|bc){1000}",
		"a{999,}b{1000}",
		"(a{50}){60}",
		`^GET [^\n]{2599,}`,
	} {
		if _, err := Parse(pat, false); err != nil {
			t.Errorf("Parse(%q): %v", pat, err)
		}
	}
}

// TestParseBoundsLength: a pattern past maxPatternBytes is refused
// before the parser recurses into it, and the deepest nesting that fits
// the bound parses and compiles without exhausting the stack.
func TestParseBoundsLength(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) }
	if _, err := Parse(deep(maxPatternBytes), false); err == nil || !strings.Contains(err.Error(), "byte limit") {
		t.Fatalf("Parse of a %d-byte pattern: %v, want the length bound", 2*maxPatternBytes+1, err)
	}
	for _, pat := range []string{deep((maxPatternBytes - 1) / 2), "a" + strings.Repeat("*", maxPatternBytes-1)} {
		if _, err := Compile(pat, Options{}); err != nil {
			t.Errorf("Compile of a %d-byte nested pattern: %v", len(pat), err)
		}
	}
}

func TestParseAlternationShape(t *testing.T) {
	p := mustParse(t, "a|b|c", false)
	a, ok := p.Root.(*Alt)
	if !ok || len(a.Subs) != 3 {
		t.Fatalf("want 3-alt, got %s", Dump(p.Root))
	}
	p = mustParse(t, "|a", false)
	a = p.Root.(*Alt)
	if _, ok := a.Subs[0].(*Empty); !ok {
		t.Error("empty branch should parse as Empty")
	}
}

func TestDumpRoundTripish(t *testing.T) {
	// Dump is diagnostic only; just confirm it renders without panic
	// and contains expected fragments.
	p := mustParse(t, "a(b|c)*d{2,3}.", false)
	s := Dump(p.Root)
	for _, frag := range []string{"*", "{2,3}", "."} {
		if !strings.Contains(s, frag) {
			t.Errorf("Dump = %q missing %q", s, frag)
		}
	}
}
