// Command fsmverify soak-tests the FSM runtime: it generates N random
// machines biased toward the paper's hard regimes, runs each through
// every execution strategy, the engine dispatch lanes (single-core and
// multicore), §7's speculative baseline (with its default guess and
// with a poisoned guess that forces mispredict re-runs), plan
// serialization round trips, and chunked-vs-whole execution, compares
// everything against a scalar oracle, and emits a JSON report. The
// exit status is 0 only when no divergence was found, so CI can run it
// as a deterministic smoke (fsmverify -n 200 -seed 1) and archive the
// report artifact.
//
// Usage:
//
//	fsmverify [-n machines] [-seed s] [-procs p] [-min-chunk b]
//	          [-large-input b] [-quick] [-o report.json] [-v]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dpfsm/internal/conformance"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// timedReport wraps the conformance report with wall-clock accounting:
// the total elapsed time plus the per-check phase breakdown, so CI
// artifacts show where soak time goes as the runtime evolves. The
// timing fields live here, not in conformance.Report, which must stay
// byte-identical across same-seed runs.
type timedReport struct {
	conformance.Report
	ElapsedMS    int64               `json:"elapsed_ms"`
	CheckTimings conformance.Timings `json:"check_timings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsmverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 200, "number of random machines to soak-test")
		seed       = fs.Int64("seed", 1, "generator seed (same seed+n ⇒ same machines)")
		procs      = fs.Int("procs", 0, "multicore width (0 = harness default)")
		minChunk   = fs.Int("min-chunk", 0, "per-goroutine minimum chunk bytes (0 = harness default)")
		largeInput = fs.Int("large-input", 0, "engine multicore-lane threshold bytes (0 = harness default)")
		quick      = fs.Bool("quick", false, "oracle and metamorphic checks only (skip engine, round trips, trace, fold probes)")
		out        = fs.String("o", "", "write the JSON report to this file instead of stdout")
		verbose    = fs.Bool("v", false, "log each machine to stderr as it is checked")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n <= 0 {
		fmt.Fprintln(stderr, "fsmverify: -n must be positive")
		return 2
	}

	cfg := conformance.DefaultConfig()
	if *quick {
		cfg = conformance.QuickConfig()
	}
	if *procs > 0 {
		cfg.Procs = *procs
	}
	if *minChunk > 0 {
		cfg.MinChunk = *minChunk
	}
	if *largeInput > 0 {
		cfg.LargeInput = *largeInput
	}

	var progress func(i int, gm conformance.GeneratedMachine)
	if *verbose {
		progress = func(i int, gm conformance.GeneratedMachine) {
			fmt.Fprintf(stderr, "fsmverify: machine %d/%d regime=%s states=%d symbols=%d\n",
				i+1, *n, gm.Label, gm.D.NumStates(), gm.D.NumSymbols())
		}
	}

	t0 := time.Now()
	soakRep, tm := conformance.SoakTimed(*n, *seed, cfg, progress)
	rep := timedReport{Report: soakRep, CheckTimings: tm}
	rep.ElapsedMS = time.Since(t0).Milliseconds()

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "fsmverify: encoding report: %v\n", err)
		return 2
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(stderr, "fsmverify: %v\n", err)
			return 2
		}
	} else {
		stdout.Write(enc)
	}

	if !rep.OK {
		fmt.Fprintf(stderr, "fsmverify: DIVERGENCE at machine %d: %s\n",
			rep.FailedIndex, rep.Divergence.Summary)
		return 1
	}
	fmt.Fprintf(stderr, "fsmverify: %d machines, %d inputs, %d strategies: all paths agree (%.1fs)\n",
		rep.MachinesRun, rep.Inputs, len(rep.Strategies), float64(rep.ElapsedMS)/1000)
	return 0
}
