package core_test

import (
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/regex"
	"dpfsm/internal/workload"
	"dpfsm/internal/xmltok"
)

// TestFingerprintGolden pins plan identities. Persisted perf profiles
// (<fingerprint>.perf.json) and cluster peers key plans by
// fingerprint, so a change to the hashing scheme would orphan every
// stored profile and make peers of mixed versions refuse each other's
// chunk tasks. The values are the Auto plans of three Snort-shaped
// acceptors and of the two builtin tokenizer transducers.
func TestFingerprintGolden(t *testing.T) {
	golden := map[string]string{
		"snort0":  "f3ce754689001fd4b4a4c5cfb6f83fea",
		"snort1":  "fa824203dd3231159cc7eb99c5b707dc",
		"snort2":  "9d99c52e3b35d91141a5174cd4d9239d",
		"htmltok": "1ca11e9ddfc930ff9a28a0d9f364ffb2",
		"xmltok":  "f4ee4642445746a95bb2aed12fc7ab19",
	}
	got := map[string]string{}
	for i, s := range workload.SnortRegexes(1, 3) {
		d, err := regex.Compile(s.Pattern, regex.Options{CaseInsensitive: s.CaseInsensitive})
		if err != nil {
			t.Fatalf("rule %d %q: %v", i, s.Pattern, err)
		}
		p, err := core.CompilePlan(d)
		if err != nil {
			t.Fatal(err)
		}
		got["snort"+string(rune('0'+i))] = p.Fingerprint()
	}
	for name, tr := range map[string]*fsm.Transducer{"htmltok": htmltok.NewTransducer(), "xmltok": xmltok.NewTransducer()} {
		p, err := core.CompileTransducer(tr)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = p.Fingerprint()
	}
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("%s: fingerprint %s, want %s", name, got[name], want)
		}
	}
}
