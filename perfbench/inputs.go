package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"dpfsm/internal/conformance"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/regex"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/workload"
)

// Rule-set shape. Every seed yields the same number of machines per
// strategy, so set-up work and the round-robin mix do not swing with
// the seed; rules whose minimized DFA exceeds maxRuleStates (the
// corpus's extreme counter tail) are skipped for the same reason.
const (
	rangeRules    = 24
	convRules     = 8
	maxRuleStates = 512
)

// ids-run / ids-batch body sizes, weighted toward small requests.
var idsSizes = []struct{ size, weight int }{
	{512, 30}, {1 << 10, 25}, {2 << 10, 15}, {4 << 10, 12},
	{8 << 10, 8}, {16 << 10, 6}, {32 << 10, 4},
}

const (
	idsPoolJobs  = 2048 // distinct (machine, body) pairs cycled by ids-run
	batchJobs    = 256  // jobs per /v1/batch request
	batchBodies  = 16   // distinct batch bodies cycled by ids-batch
	bulkSmall    = 4 << 20
	bulkLarge    = 32 << 20
	warmBytes    = 1 << 20 // the engine's large-input threshold
	tokSmall     = 512 << 10
	tokLarge     = 4 << 20
	tokMachine   = "htmltok"
	largePerMach = 3 // bulk-scan: 4 MiB requests per 32 MiB request, per machine
)

// rule is one generated machine as the server will compile it: the
// patterns file carries no flags, so compilation uses regex.Options{}
// exactly as fsmserve does.
type rule struct {
	Name     string
	Pattern  string
	DFA      *fsm.DFA
	Strategy core.Strategy
}

// genRules draws Snort-shaped rules from seed until the rule set holds
// rangeRules range-coalesced and convRules convergence machines, the
// strategy fsmserve's -strategy auto resolves for each.
func genRules(seed int64) ([]rule, error) {
	specs := workload.SnortRegexes(seed, 1024)
	var rules []rule
	nRange, nConv := 0, 0
	for _, s := range specs {
		if nRange == rangeRules && nConv == convRules {
			break
		}
		d, err := regex.Compile(s.Pattern, regex.Options{})
		if err != nil || d.NumStates() > maxRuleStates {
			continue
		}
		st := core.Convergence
		if d.MaxRangeSize() <= gather.Width {
			st = core.RangeCoalesced
		}
		switch {
		case st == core.RangeCoalesced && nRange < rangeRules:
			nRange++
		case st == core.Convergence && nConv < convRules:
			nConv++
		default:
			continue
		}
		rules = append(rules, rule{Name: fmt.Sprintf("ids%02d", len(rules)), Pattern: s.Pattern, DFA: d, Strategy: st})
	}
	if nRange < rangeRules || nConv < convRules {
		return nil, fmt.Errorf("seed %d: only %d range and %d convergence rules", seed, nRange, nConv)
	}
	return rules, nil
}

// writePatterns writes rules as fsmserve's NAME=REGEX patterns file.
func writePatterns(path string, rules []rule) error {
	var b bytes.Buffer
	for _, r := range rules {
		fmt.Fprintf(&b, "%s=%s\n", r.Name, r.Pattern)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// runJob is one acceptor job and its oracle answer.
type runJob struct {
	Rule    *rule
	Input   []byte
	Final   fsm.State
	Accepts bool
}

func newRunJob(r *rule, input []byte) runJob {
	final := conformance.OracleFinal(r.DFA, input, r.DFA.Start())
	return runJob{Rule: r, Input: input, Final: final, Accepts: r.DFA.Accepting(final)}
}

// idsPool builds the ids-run job pool: bodies in the exact proportions
// of the weighted size mix (so every seed offers the same bytes),
// shuffled by the seed, sliced from one generated HTTP stream, and
// spread round-robin over every rule.
func idsPool(seed int64, rules []rule) []runJob {
	total := 0
	for _, s := range idsSizes {
		total += s.weight
	}
	var sizes []int
	for _, s := range idsSizes {
		for k := 0; k < s.weight*idsPoolJobs/total; k++ {
			sizes = append(sizes, s.size)
		}
	}
	for len(sizes) < idsPoolJobs {
		sizes = append(sizes, idsSizes[0].size)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	stream := workload.HTTPTraffic(seed, sum)
	jobs := make([]runJob, len(sizes))
	off := 0
	for i, n := range sizes {
		jobs[i] = newRunJob(&rules[i%len(rules)], stream[off:off+n])
		off += n
	}
	return jobs
}

// batch is one /v1/batch request body and the jobs it carries, in
// line order.
type batch struct {
	Body  []byte
	Jobs  []runJob
	Bytes int
}

// idsBatches groups the ids pool into /v1/batch NDJSON bodies.
func idsBatches(pool []runJob) ([]batch, error) {
	out := make([]batch, batchBodies)
	for b := range out {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		for j := 0; j < batchJobs; j++ {
			job := pool[(b*batchJobs+j)%len(pool)]
			if err := enc.Encode(serverapi.BatchJob{Machine: job.Rule.Name, Input: string(job.Input)}); err != nil {
				return nil, fmt.Errorf("encoding batch line: %w", err)
			}
			out[b].Jobs = append(out[b].Jobs, job)
			out[b].Bytes += len(job.Input)
		}
		out[b].Body = buf.Bytes()
	}
	return out, nil
}

// bulkMachines picks the bulk-scan machines: the two range and the two
// convergence rules with the most states, so each strategy runs its
// heaviest tables the seed offers.
func bulkMachines(rules []rule) []*rule {
	var rs, cs []*rule
	for i := range rules {
		if rules[i].Strategy == core.RangeCoalesced {
			rs = append(rs, &rules[i])
		} else {
			cs = append(cs, &rules[i])
		}
	}
	heaviest := func(xs []*rule) []*rule {
		sort.SliceStable(xs, func(i, j int) bool { return xs[i].DFA.NumStates() > xs[j].DFA.NumStates() })
		return xs[:2]
	}
	return append(heaviest(rs), heaviest(cs)...)
}

// bulkSet is the bulk-scan request cycle: per round, every machine
// gets largePerMach 4 MiB bodies then one 32 MiB body. warm holds the
// 1 MiB warm-up jobs, one per machine.
type bulkSet struct {
	Cycle []runJob
	Warm  []runJob
}

func bulkInputs(seed int64, machines []*rule) bulkSet {
	small := [2][]byte{workload.HTTPTraffic(seed+1, bulkSmall), workload.HTTPTraffic(seed+2, bulkSmall)}
	large := workload.HTTPTraffic(seed+3, bulkLarge)
	var s bulkSet
	for i, m := range machines {
		s.Warm = append(s.Warm, newRunJob(m, small[i%2][:warmBytes]))
	}
	var smallJobs [2][]runJob
	var largeJobs []runJob
	for _, m := range machines {
		smallJobs[0] = append(smallJobs[0], newRunJob(m, small[0]))
		smallJobs[1] = append(smallJobs[1], newRunJob(m, small[1]))
		largeJobs = append(largeJobs, newRunJob(m, large))
	}
	for k := 0; k <= largePerMach; k++ {
		for i := range machines {
			if k == largePerMach {
				s.Cycle = append(s.Cycle, largeJobs[i])
			} else {
				s.Cycle = append(s.Cycle, smallJobs[(k+i)%2][i])
			}
		}
	}
	return s
}

// tokJob is one transduce job and its oracle span list.
type tokJob struct {
	Input []byte
	Spans []core.Span
	Final fsm.State
}

// tokSet is the tokenize request cycle: largePerMach 512 KiB pages
// (single lane), then one 4 MiB page (parallel lane).
type tokSet struct {
	Cycle []tokJob
	Warm  tokJob
}

func tokInputs(seed int64) tokSet {
	t := htmltok.NewTransducer()
	small := newTokJob(t, workload.HTMLPage(seed+4, tokSmall))
	large := newTokJob(t, workload.HTMLPage(seed+5, tokLarge))
	s := tokSet{Warm: newTokJob(t, large.Input[:warmBytes])}
	for k := 0; k < largePerMach; k++ {
		s.Cycle = append(s.Cycle, small)
	}
	s.Cycle = append(s.Cycle, large)
	return s
}

func newTokJob(t *fsm.Transducer, input []byte) tokJob {
	tape, final := conformance.OracleTransduce(t, input, t.DFA().Start())
	return tokJob{Input: input, Spans: foldSpans(tape), Final: final}
}

// foldSpans folds an oracle output tape into maximal runs of equal
// non-OutputNone outputs, the span shape /v1/transduce streams.
func foldSpans(tape []fsm.Output) []core.Span {
	var spans []core.Span
	cur, start := fsm.OutputNone, 0
	for i, o := range tape {
		if o == cur {
			continue
		}
		if cur != fsm.OutputNone {
			spans = append(spans, core.Span{Start: start, End: i, Out: cur})
		}
		cur, start = o, i
	}
	if cur != fsm.OutputNone {
		spans = append(spans, core.Span{Start: start, End: len(tape), Out: cur})
	}
	return spans
}
