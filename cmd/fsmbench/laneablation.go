package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	"dpfsm/internal/cluster"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/regex"
	"dpfsm/internal/speculative"
	"dpfsm/internal/workload"
)

// The lane ablation is the measurement behind serving without a
// speculative or a cluster lane: on the bulk machines a served large
// request runs (two range-coalesced and two convergence rules per rule
// set), at procs 2, it times the Figure 5 schedule with enumerative
// phase 1 (the engine's multicore lane) against the same schedule fed
// by Ko et al.'s guess-and-verify source (internal/speculative) and by
// a cluster coordinator over two in-process HTTP peers
// (internal/cluster, default chunking), on the same compiled plan and
// the same 4 MiB body.

// ablationSeeds are the rule-set seeds the table covers, the
// benchmark's held-out seed included.
var ablationSeeds = []int64{1, 2, 3, 4, 7777}

const (
	ablationProcs     = 2
	ablationBody      = 4 << 20
	ablationWarm      = 64 << 10
	ablationReps      = 7
	ablationRules     = 32 // rules per set, as the benchmark draws them
	ablationRange     = 24 // of which range-coalesced
	ablationMaxStates = 512
)

// bulkRule is one machine of a rule set with the strategy Auto gives it.
type bulkRule struct {
	name     string
	dfa      *fsm.DFA
	strategy core.Strategy
}

// ablationMachines draws a rule set from seed the way the benchmark's
// patterns file is drawn (Snort-shaped rules of at most
// ablationMaxStates states, named ids00, ids01, … in draw order, until
// the set holds ablationRange range and ablationRules-ablationRange
// convergence machines) and returns its two largest range and two
// largest convergence machines.
func ablationMachines(seed int64) ([]bulkRule, error) {
	var rs, cs []bulkRule
	for _, s := range workload.SnortRegexes(seed, 1024) {
		if len(rs) == ablationRange && len(cs) == ablationRules-ablationRange {
			break
		}
		d, err := regex.Compile(s.Pattern, regex.Options{})
		if err != nil || d.NumStates() > ablationMaxStates {
			continue
		}
		r := bulkRule{name: fmt.Sprintf("ids%02d", len(rs)+len(cs)), dfa: d, strategy: core.Convergence}
		if d.MaxRangeSize() <= gather.Width {
			r.strategy = core.RangeCoalesced
		}
		switch {
		case r.strategy == core.RangeCoalesced && len(rs) < ablationRange:
			rs = append(rs, r)
		case r.strategy == core.Convergence && len(cs) < ablationRules-ablationRange:
			cs = append(cs, r)
		}
	}
	if len(rs) < 2 || len(cs) < 2 {
		return nil, fmt.Errorf("seed %d: %d range and %d convergence rules", seed, len(rs), len(cs))
	}
	largest := func(xs []bulkRule) []bulkRule {
		sort.SliceStable(xs, func(i, j int) bool { return xs[i].dfa.NumStates() > xs[j].dfa.NumStates() })
		return xs[:2]
	}
	return append(largest(rs), largest(cs)...), nil
}

// laneAblation prints the table: per machine, the MB/s of each phase-1
// source's fastest of ablationReps interleaved runs (host noise only
// ever adds time), their ratios to multicore, and how many of the
// speculative run's chunks mispredicted. The cluster runs must not
// degrade: a chunk re-executed on the coordinator would time the
// fallback, not the peers.
func laneAblation() {
	var peers []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(cluster.NewPeer().Handler())
		defer srv.Close()
		peers = append(peers, srv.URL)
	}
	co, err := cluster.NewCoordinator(cluster.Config{Peers: peers})
	if err != nil {
		panic(fmt.Sprintf("lane ablation: %v", err))
	}
	fmt.Printf("\nlane ablation at procs=%d: multicore (enumerative phase 1) vs speculative source vs cluster coordinator (%d in-process HTTP peers, %d MiB chunks), same plan, %d MiB HTTP body, best of %d\n",
		ablationProcs, len(peers), co.ChunkBytes()>>20, ablationBody>>20, ablationReps)
	fmt.Printf("%-6s %-9s %-12s %6s %12s %12s %8s %8s %13s %7s\n",
		"seed", "rule", "strategy", "states", "multi MB/s", "spec MB/s", "spec/mc", "misses", "cluster MB/s", "cl/mc")
	ctx := context.Background()
	for _, seed := range ablationSeeds {
		machines, err := ablationMachines(seed)
		if err != nil {
			fmt.Printf("%-6d %v\n", seed, err)
			continue
		}
		body := workload.HTTPTraffic(seed+1, ablationBody)
		for _, m := range machines {
			r, err := core.New(m.dfa, core.WithProcs(ablationProcs))
			if err != nil {
				fmt.Printf("%-6d %-9s %v\n", seed, m.name, err)
				continue
			}
			// The coordinator walks the peers' vectors (and re-executes any
			// fallback chunk) on a single-core runner of the same plan; its
			// fan-out is the peers.
			single, err := core.NewFromPlan(r.PlanRef(), core.WithProcs(1))
			if err != nil {
				fmt.Printf("%-6d %-9s %v\n", seed, m.name, err)
				continue
			}
			spec := speculative.New(m.dfa, ablationProcs, body[:ablationWarm])
			want := m.dfa.Run(body, m.dfa.Start())
			var multi, guess, remote time.Duration
			var stats core.DriveStats
			for rep := 0; rep <= ablationReps; rep++ {
				t0 := time.Now()
				got, _, err := r.Drive(ctx, body, m.dfa.Start(), nil, nil)
				d := time.Since(t0)
				if err != nil || got != want {
					panic(fmt.Sprintf("lane ablation: multicore %s: %d want %d (%v)", m.name, got, want, err))
				}
				t0 = time.Now()
				got, stats, err = r.Drive(ctx, body, m.dfa.Start(), spec.Source(), nil)
				ds := time.Since(t0)
				if err != nil || got != want {
					panic(fmt.Sprintf("lane ablation: speculative %s: %d want %d (%v)", m.name, got, want, err))
				}
				t0 = time.Now()
				got, cs, err := co.Exec(ctx, single, body, m.dfa.Start())
				dc := time.Since(t0)
				if err != nil || got != want || cs.Degraded {
					panic(fmt.Sprintf("lane ablation: cluster %s: %d want %d, degraded %v (%v)", m.name, got, want, cs.Degraded, err))
				}
				if rep == 0 { // the first round warms caches and pools and ships the plan
					continue
				}
				if multi == 0 || d < multi {
					multi = d
				}
				if guess == 0 || ds < guess {
					guess = ds
				}
				if remote == 0 || dc < remote {
					remote = dc
				}
			}
			mc, sp, cl := mbps(len(body), multi), mbps(len(body), guess), mbps(len(body), remote)
			fmt.Printf("%-6d %-9s %-12s %6d %12.0f %12.0f %7.2fx %5d/%-2d %13.0f %6.2fx\n",
				seed, m.name, m.strategy, m.dfa.NumStates(), mc, sp, sp/mc, stats.Misses, stats.Chunks, cl, cl/mc)
		}
	}
}
