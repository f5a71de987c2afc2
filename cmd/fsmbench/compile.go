package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/workload"
)

// compileExperiment measures the compile/execute split: what building
// a plan costs per strategy, what loading the same plan from its
// serialized form costs instead, and whether a reloaded plan is
// observationally identical to a freshly built one (byte-identical
// final states over a shared input, from every start state).
func compileExperiment(opt *options) {
	header("compile — plan build vs serialized reload")

	ms, _ := corpus(opt)
	sample := sampleMachines(ms, opt.sample)
	input := workload.HTTPTraffic(opt.seed+80, 256<<10)

	strategies := []core.Strategy{
		core.Sequential, core.Base, core.BaseILP,
		core.Convergence, core.RangeCoalesced, core.RangeConvergence,
	}
	if opt.strategy != "" {
		s, _ := core.ParseStrategy(opt.strategy)
		strategies = []core.Strategy{s}
	}

	fmt.Printf("%-12s %9s %12s %12s %9s %12s %9s\n",
		"strategy", "machines", "build(µs)", "load(µs)", "speedup", "plan(KB)", "identical")
	for _, strat := range strategies {
		var machines int
		var buildNs, loadNs, wireBytes int64
		identical := true
		for _, d := range sample {
			plan, err := core.CompilePlan(d, core.WithStrategy(strat))
			if err != nil {
				// Machines whose max range exceeds the byte-name limit
				// cannot use the range strategies; skip them here the
				// way Auto would never pick them.
				continue
			}
			machines++
			buildNs += int64(timeIt(2*time.Millisecond, func() {
				_, _ = core.CompilePlan(d, core.WithStrategy(strat))
			}))
			data, err := plan.MarshalBinary()
			if err != nil {
				fmt.Fprintf(os.Stderr, "compile experiment: marshal: %v\n", err)
				return
			}
			wireBytes += int64(len(data))
			loadNs += int64(timeIt(2*time.Millisecond, func() {
				_, _ = core.UnmarshalPlan(data)
			}))
			if !plansMatch(plan, data, input) {
				identical = false
			}
		}
		if machines == 0 {
			continue
		}
		speedup := float64(buildNs) / float64(loadNs)
		fmt.Printf("%-12s %9d %12.1f %12.1f %8.1fx %12.1f %9v\n",
			strat, machines,
			float64(buildNs)/float64(machines)/1e3,
			float64(loadNs)/float64(machines)/1e3,
			speedup,
			float64(wireBytes)/float64(machines)/1e3,
			identical)
		recordRow(reportRow{
			Experiment: "compile",
			Machine:    fmt.Sprintf("corpus-%d", machines),
			Strategy:   strat.String(),
			Workload:   "plan-roundtrip",
			Bytes:      int(wireBytes),
			NsPerOp:    buildNs / int64(machines),
		})
		if !identical {
			fmt.Fprintf(os.Stderr, "compile experiment: strategy %s: reloaded plan diverged from built plan\n", strat)
			os.Exit(1)
		}
	}
}

// plansMatch checks that a plan reloaded from data produces
// byte-identical match results to the built plan: equal composition
// vectors (final state from every start) plus equal accept outcomes
// over the shared input.
func plansMatch(built *core.Plan, data []byte, input []byte) bool {
	loaded, err := core.UnmarshalPlan(data)
	if err != nil || loaded.Fingerprint() != built.Fingerprint() {
		return false
	}
	rb, err := core.NewFromPlan(built)
	if err != nil {
		return false
	}
	rl, err := core.NewFromPlan(loaded)
	if err != nil {
		return false
	}
	vb := rb.CompositionVector(input)
	vl := rl.CompositionVector(input)
	if len(vb) != len(vl) {
		return false
	}
	bb := make([]byte, 0, 2*len(vb))
	bl := make([]byte, 0, 2*len(vl))
	for i := range vb {
		bb = append(bb, byte(vb[i]), byte(vb[i]>>8))
		bl = append(bl, byte(vl[i]), byte(vl[i]>>8))
	}
	if !bytes.Equal(bb, bl) {
		return false
	}
	return rb.Accepts(input) == rl.Accepts(input) &&
		rb.Final(input, built.Machine().Start()) == rl.Final(input, loaded.Machine().Start())
}
