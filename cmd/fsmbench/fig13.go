package main

import (
	"fmt"
	"sort"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/workload"
)

// Figure 13: single-core performance of the enumerative computation
// with each optimization, over the sequential baseline of Figure 1(c)
// with optimal loop unrolling, on a sample of the corpus. The paper
// sorts convergence results by state count and range-coalescing
// results by maximum range size, producing plateaus at 16·⌈n/16⌉ and
// 16·⌈range/16⌉.
//
// Paper shape to look for: up to ~3× for convergence on ≤16-state
// machines and ~2.2× for range coalescing on its first plateau,
// degrading stepwise as the effective width crosses multiples of 16.
// Note (DESIGN.md): range plans with max range ≤ 16 run a native
// PSHUFB kernel on amd64 (one shuffle per symbol, as in the paper);
// convergence and wider range plans run scalar gathers, so their
// absolute speedups sit below the paper's SIMD ones, and the plateau
// structure and the ordering are the reproduced shapes there.
func fig13(opt *options) {
	header("Figure 13 — single-core speedup over sequential baseline")
	ms, _ := corpus(opt)
	sample := sampleMachines(ms, opt.sample)
	input := workload.WikiText(opt.seed+13, 1<<18)

	type result struct {
		states, maxRange int
		conv, rng        float64
	}
	var results []result
	for _, d := range sample {
		baseRunner, err := core.New(d, core.WithStrategy(core.Sequential))
		if err != nil {
			continue
		}
		convRunner, err := core.New(d, core.WithStrategy(core.Convergence))
		if err != nil {
			continue
		}
		var rangeRunner *core.Runner
		if d.MaxRangeSize() <= 256 {
			rangeRunner, _ = core.New(d, core.WithStrategy(core.RangeCoalesced))
		}

		var q fsm.State
		tBase := timeIt(10*time.Millisecond, func() { q = baseRunner.Final(input, d.Start()) })
		tConv := timeIt(10*time.Millisecond, func() { q = convRunner.Final(input, d.Start()) })
		r := result{states: d.NumStates(), maxRange: d.MaxRangeSize()}
		r.conv = float64(tBase) / float64(tConv)
		if rangeRunner != nil {
			tRange := timeIt(10*time.Millisecond, func() { q = rangeRunner.Final(input, d.Start()) })
			r.rng = float64(tBase) / float64(tRange)
		}
		_ = q
		results = append(results, r)
	}

	fmt.Println("\nconvergence, ranked by FSM state count:")
	sort.Slice(results, func(i, j int) bool { return results[i].states < results[j].states })
	fmt.Printf("%-6s %-8s %-10s %-10s\n", "rank", "states", "plateau", "speedup")
	for i, r := range results {
		fmt.Printf("%-6d %-8d %-10d %-10.2f\n", i, r.states, 16*((r.states+15)/16), r.conv)
	}

	fmt.Println("\nrange coalescing, ranked by max range size (machines with range ≤256):")
	var rr []result
	for _, r := range results {
		if r.rng > 0 {
			rr = append(rr, r)
		}
	}
	sort.Slice(rr, func(i, j int) bool { return rr[i].maxRange < rr[j].maxRange })
	fmt.Printf("%-6s %-8s %-10s %-10s\n", "rank", "range", "plateau", "speedup")
	for i, r := range rr {
		fmt.Printf("%-6d %-8d %-10d %-10.2f\n", i, r.maxRange, 16*((r.maxRange+15)/16), r.rng)
	}

	// Plateau summary (the figure's visual takeaway).
	fmt.Println("\nmean speedup by plateau:")
	summarizePlateaus := func(name string, xs []result, key func(result) int, val func(result) float64) {
		groups := map[int][]float64{}
		for _, r := range xs {
			if v := val(r); v > 0 {
				p := 16 * ((key(r) + 15) / 16)
				groups[p] = append(groups[p], v)
			}
		}
		var ps []int
		for p := range groups {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		fmt.Printf("  %-14s", name)
		for _, p := range ps {
			sum := 0.0
			for _, v := range groups[p] {
				sum += v
			}
			fmt.Printf(" %d:%.2f×(n=%d)", p, sum/float64(len(groups[p])), len(groups[p]))
		}
		fmt.Println()
	}
	summarizePlateaus("convergence", results, func(r result) int { return r.states }, func(r result) float64 { return r.conv })
	summarizePlateaus("range", rr, func(r result) int { return r.maxRange }, func(r result) float64 { return r.rng })

	// Ablation beyond the paper: convergence layered over range
	// coalescing recovers wide-first-range machines that plain range
	// coalescing handles poorly.
	fmt.Println("\nablation — range vs range+conv on machines with max range in (8, 256]:")
	fmt.Printf("%-8s %-8s %-12s %-12s\n", "states", "range", "range", "range+conv")
	for _, d := range sample {
		mr := d.MaxRangeSize()
		if mr <= 8 || mr > 256 {
			continue
		}
		baseRunner, err := core.New(d, core.WithStrategy(core.Sequential))
		if err != nil {
			continue
		}
		rRange, err1 := core.New(d, core.WithStrategy(core.RangeCoalesced))
		rBoth, err2 := core.New(d, core.WithStrategy(core.RangeConvergence))
		if err1 != nil || err2 != nil {
			continue
		}
		var q fsm.State
		tBase := timeIt(10*time.Millisecond, func() { q = baseRunner.Final(input, d.Start()) })
		tRange := timeIt(10*time.Millisecond, func() { q = rRange.Final(input, d.Start()) })
		tBoth := timeIt(10*time.Millisecond, func() { q = rBoth.Final(input, d.Start()) })
		_ = q
		fmt.Printf("%-8d %-8d %-12.2f %-12.2f\n",
			d.NumStates(), mr, float64(tBase)/float64(tRange), float64(tBase)/float64(tBoth))
	}
}
