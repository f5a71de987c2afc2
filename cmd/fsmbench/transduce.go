package main

// The transduce experiment measures tokenize throughput: the htmltok
// transducer over generated HTML, per execution lane. Where the figure
// experiments time acceptance (one final state per input), this times
// useful-work extraction — spans/sec and output-bytes/sec alongside
// raw scan rate — because a tokenizer that scans fast but emits slowly
// is not actually fast. The report reuses the sustained-load schema,
// one machine row per lane, so `fsmbench -compare` gates tokenize
// throughput exactly like serving throughput (CI runs a same-runner
// two-pass compare).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/speculative"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/workload"
)

// transduceLane is one measurable execution path producing the full
// span list for the benchmark input.
type transduceLane struct {
	name string
	run  func() ([]core.Span, error)
}

// transduceExperiment runs every lane over the same input, checks they
// agree span-for-span, prints the throughput table, and (like
// sustained) writes a -bench-out report for the regression gate.
func transduceExperiment(opt *options) {
	header(fmt.Sprintf("transduce — htmltok tokenize throughput per lane (%d MiB HTML)", opt.mb))
	rep, err := runTransduceBench(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "transduce: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%-12s %-10s %10s %12s %14s %10s\n",
		"lane", "strategy", "MB/s", "spans/s", "out-MB/s", "spans")
	for _, m := range rep.Machines {
		fmt.Printf("%-12s %-10s %10.1f %12.0f %14.1f %10d\n",
			m.Lane, m.Strategy, m.ThroughputBytesPerSec/1e6,
			m.SpansPerSec, m.OutputBytesPerSec/1e6, m.Jobs)
	}
	fmt.Printf("\naggregate %.1f MB/s over %.1f MB of HTML\n",
		rep.ThroughputBytesPerSec/1e6, float64(rep.Bytes)/1e6)

	if opt.benchOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "transduce: encoding report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(opt.benchOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "transduce: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote transduce bench report to %s\n", opt.benchOut)
	}
}

// runTransduceBench builds the lanes, times them, and assembles a
// sustained-schema report. The top-level throughput is the aggregate
// (total bytes tokenized / total measured time), so a collapse in any
// one lane moves the gated number.
func runTransduceBench(opt *options) (*sustainedReport, error) {
	tr := htmltok.NewTransducer()
	plan, err := core.CompileTransducer(tr)
	if err != nil {
		return nil, fmt.Errorf("compiling htmltok: %v", err)
	}
	input := workload.HTMLPage(opt.seed+90, opt.mb<<20)
	start := tr.DFA().Start()

	single, err := core.NewFromPlan(plan, core.WithProcs(1))
	if err != nil {
		return nil, err
	}
	multi, err := core.NewFromPlan(plan, core.WithProcs(opt.procs))
	if err != nil {
		return nil, err
	}
	spec := speculative.New(tr.DFA(), opt.procs, input[:min(4096, len(input))])

	lanes := []transduceLane{
		{"single", func() ([]core.Span, error) {
			spans, _, err := single.TransduceSpans(input, start)
			return spans, err
		}},
		{"multicore", func() ([]core.Span, error) {
			spans, _, err := multi.TransduceSpans(input, start)
			return spans, err
		}},
		{"speculative", func() ([]core.Span, error) {
			// The guess as phase 1 of the multicore schedule: misses are
			// replayed from the verified state, so the spans stay exact.
			var spans []core.Span
			_, _, err := multi.DriveSpans(context.Background(), input, start, spec.Source(), nil, func(batch []core.Span) error {
				spans = append(spans, batch...)
				return nil
			})
			return spans, err
		}},
	}

	rep := &sustainedReport{
		Schema:  benchSchemaVersion,
		Seed:    opt.seed,
		Procs:   opt.procs,
		Bytes:   int64(len(input)),
		Runtime: telemetry.ReadRuntime(),
	}
	var reference []core.Span
	var totalTime time.Duration
	var totalBytes int64
	for _, lane := range lanes {
		var spans []core.Span
		var runErr error
		perCall := timeIt(300*time.Millisecond, func() {
			spans, runErr = lane.run()
		})
		if runErr != nil {
			return nil, fmt.Errorf("lane %s: %v", lane.name, runErr)
		}
		// Every lane must produce the exact sequential span list; a
		// fast-but-wrong lane is a correctness bug, not a benchmark row.
		if reference == nil {
			reference = spans
		} else if err := spansMatch(reference, spans); err != nil {
			return nil, fmt.Errorf("lane %s diverged from single: %v", lane.name, err)
		}
		var outBytes int64
		for _, s := range spans {
			outBytes += int64(s.End - s.Start)
		}
		secs := perCall.Seconds()
		row := sustainedMachine{
			Name:                  "htmltok",
			Strategy:              plan.Strategy().String(),
			Lane:                  lane.name,
			Jobs:                  int64(len(spans)),
			ThroughputBytesPerSec: float64(len(input)) / secs,
			SpansPerSec:           float64(len(spans)) / secs,
			OutputBytesPerSec:     float64(outBytes) / secs,
		}
		rep.Machines = append(rep.Machines, row)
		recordRow(reportRow{
			Experiment: "transduce",
			Machine:    "htmltok/" + lane.name,
			Strategy:   row.Strategy,
			Workload:   "html",
			Bytes:      len(input),
			NsPerOp:    perCall.Nanoseconds(),
			MBPerS:     row.ThroughputBytesPerSec / 1e6,
		})
		totalTime += perCall
		totalBytes += int64(len(input))
	}
	rep.DurationSec = totalTime.Seconds()
	if totalTime > 0 {
		rep.ThroughputBytesPerSec = float64(totalBytes) / totalTime.Seconds()
	}
	return rep, nil
}

// spansMatch reports the first divergence between two span lists.
func spansMatch(want, got []core.Span) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
