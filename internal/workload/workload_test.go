package workload

import (
	"bytes"
	"testing"

	"dpfsm/internal/regex"
	"dpfsm/internal/textstats"
)

func TestSnortRegexesDeterministic(t *testing.T) {
	a := SnortRegexes(7, 50)
	b := SnortRegexes(7, 50)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs between equal seeds", i)
		}
	}
	c := SnortRegexes(8, 50)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical corpora")
	}
}

func TestSnortRegexesAllParse(t *testing.T) {
	specs := SnortRegexes(1, 200)
	for _, s := range specs {
		if _, err := regex.Parse(s.Pattern, s.CaseInsensitive); err != nil {
			t.Fatalf("generated pattern %q does not parse: %v", s.Pattern, err)
		}
	}
}

// TestCorpusCalibration checks the Figure 12 shape on a sample: median
// state count in the paper's band, most machines under 256 states, and
// a majority of range-coalesced machines at width ≤ 16.
func TestCorpusCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus compilation is slow")
	}
	specs := SnortRegexes(42, 120)
	ms, kept := CompileCorpus(specs, 20000)
	if len(ms) < 100 {
		t.Fatalf("only %d/120 compiled", len(ms))
	}
	if len(ms) != len(kept) {
		t.Fatal("machines/specs length mismatch")
	}
	var states, ranges []int
	for _, d := range ms {
		states = append(states, d.NumStates())
		ranges = append(ranges, d.MaxRangeSize())
	}
	med := textstats.Quantile(states, 0.5)
	if med < 8 || med > 80 {
		t.Errorf("median states %v, want within [8, 80] (paper: 25)", med)
	}
	if f := textstats.FractionAtMost(states, 256); f < 0.85 {
		t.Errorf("%.2f of machines ≤256 states, want ≥0.85 (paper: >0.95)", f)
	}
	if f := textstats.FractionAtMost(ranges, 16); f < 0.5 {
		t.Errorf("%.2f of machines have range ≤16, want ≥0.5 (paper: 0.78)", f)
	}
	// Heavy tail must exist: at least one machine in the hundreds.
	s := textstats.Summarize(states)
	if s.Max < 300 {
		t.Errorf("max states %d; expected a long tail", s.Max)
	}
}

func TestWikiTextShape(t *testing.T) {
	txt := WikiText(3, 5000)
	if len(txt) != 5000 {
		t.Fatalf("length %d", len(txt))
	}
	if !bytes.Equal(txt, WikiText(3, 5000)) {
		t.Error("WikiText not deterministic")
	}
	spaces := bytes.Count(txt, []byte(" "))
	if spaces < 300 {
		t.Errorf("only %d spaces; not natural text", spaces)
	}
	if !bytes.Contains(txt, []byte("[[")) && !bytes.Contains(txt, []byte("==")) && !bytes.Contains(txt, []byte("{{")) {
		t.Error("no wiki markup present")
	}
}

func TestBookDistinctTrees(t *testing.T) {
	// Different books must have different symbol inventories.
	inventory := func(b []byte) int {
		var seen [256]bool
		n := 0
		for _, c := range b {
			if !seen[c] {
				seen[c] = true
				n++
			}
		}
		return n
	}
	sizes := map[int]bool{}
	for seed := int64(0); seed < 8; seed++ {
		book := Book(seed, 20000)
		if len(book) != 20000 {
			t.Fatalf("seed %d: length %d", seed, len(book))
		}
		sizes[inventory(book)] = true
	}
	if len(sizes) < 4 {
		t.Errorf("books have only %d distinct symbol-inventory sizes", len(sizes))
	}
}

func TestBookDeterministic(t *testing.T) {
	if !bytes.Equal(Book(9, 3000), Book(9, 3000)) {
		t.Error("Book not deterministic")
	}
}

func TestHTTPTrafficShape(t *testing.T) {
	tr := HTTPTraffic(5, 30000)
	if len(tr) != 30000 {
		t.Fatalf("length %d", len(tr))
	}
	if !bytes.Equal(tr, HTTPTraffic(5, 30000)) {
		t.Error("HTTPTraffic not deterministic")
	}
	for _, frag := range []string{"GET ", "HTTP/1.1", "Host: ", "User-Agent: ", "\r\n\r\n", "200 OK"} {
		if !bytes.Contains(tr, []byte(frag)) {
			t.Errorf("traffic missing %q", frag)
		}
	}
	if bytes.Contains(tr, []byte("cmd.exe")) {
		t.Error("benign traffic should not contain attack strings")
	}
}

// TestSnortRegexesWithinExpansionBound: the regex parser's bound on a
// pattern's expanded size admits every rule the corpus generator makes
// (the largest is a run counter near [^\n]{2599,}).
func TestSnortRegexesWithinExpansionBound(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, s := range SnortRegexes(seed, 1024) {
			if _, err := regex.Parse(s.Pattern, s.CaseInsensitive); err != nil {
				t.Fatalf("seed %d: %q: %v", seed, s.Pattern, err)
			}
		}
	}
}

func TestHTMLPageShape(t *testing.T) {
	page := HTMLPage(4, 20000)
	if len(page) != 20000 {
		t.Fatalf("length %d", len(page))
	}
	if !bytes.Equal(page, HTMLPage(4, 20000)) {
		t.Error("HTMLPage not deterministic")
	}
	for _, frag := range []string{"<!DOCTYPE", "<div", "</", "=\"", "='"} {
		if !bytes.Contains(page, []byte(frag)) {
			t.Errorf("page missing %q", frag)
		}
	}
	// Script bodies must not contain '<' (raw-text simplification).
	rest := page
	for {
		i := bytes.Index(rest, []byte("<script>"))
		if i < 0 {
			break
		}
		rest = rest[i+8:]
		j := bytes.Index(rest, []byte("</script>"))
		if j < 0 {
			break
		}
		if bytes.ContainsRune(rest[:j], '<') {
			t.Fatal("script body contains '<'")
		}
		rest = rest[j:]
	}
}
