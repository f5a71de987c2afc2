package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/telemetry"
)

// TestDispatchIgnoresProfileStore pins the one dispatch rule: at
// procs 2 every large job takes the multicore lane with the same
// stated reason, whether or not a perf-profile store is attached, and
// however many jobs the profile has seen. No job reports a speculative
// lane and no profile records one.
func TestDispatchIgnoresProfileStore(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.3)
	input := d.RandomInput(rng, 8<<10)
	want := d.Run(input, d.Start())
	const jobs = 100
	var reason string
	for _, store := range []*perfprofile.Store{perfprofile.NewStore(""), nil} {
		met := new(telemetry.Metrics)
		e := New(WithWorkers(2), WithProcs(2), WithLargeInput(4096),
			WithTelemetry(met), WithPerfProfiles(store))
		if _, err := e.Register("m", d, core.WithMinChunk(256)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < jobs; i++ {
			res := e.Run(context.Background(), Job{Machine: "m", Input: input})
			if res.Err != nil || res.Final != want {
				t.Fatalf("store=%v job %d: %+v", store != nil, i, res)
			}
			if res.Lane != LaneMulticore {
				t.Fatalf("store=%v job %d: lane %q (%s), want multicore", store != nil, i, res.Lane, res.Reason)
			}
			if reason == "" {
				reason = res.Reason
			}
			if res.Reason != reason {
				t.Fatalf("store=%v job %d: reason %q, want %q", store != nil, i, res.Reason, reason)
			}
		}
		if snap := met.Snapshot(); snap.EngineMulticore != jobs {
			t.Errorf("store=%v: %d multicore jobs counted, want %d", store != nil, snap.EngineMulticore, jobs)
		}
		if store != nil {
			p, ok := store.Profile("m")
			if !ok || p.Lanes[LaneMulticore].Jobs != jobs || len(p.Lanes) != 1 {
				t.Errorf("profile lanes %+v, want %d multicore jobs and nothing else", p.Lanes, jobs)
			}
			if _, ok := p.Lanes[LaneSpeculative]; ok {
				t.Errorf("profile records a speculative lane: %+v", p.Lanes)
			}
		}
		e.Close()
	}
}

// TestJobStrategyOverride: a job picks no strategy. Every job of a
// machine registered with core.WithStrategy(s) runs s, on every lane —
// single and multicore — with the oracle's answer.
func TestJobStrategyOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.3)
	small := d.RandomInput(rng, 1<<10)
	large := d.RandomInput(rng, 32<<10)
	for _, s := range []core.Strategy{core.Sequential, core.Convergence, core.RangeCoalesced, core.BaseILP} {
		e := New(WithWorkers(2), WithProcs(4), WithLargeInput(4096),
			WithTelemetry(new(telemetry.Metrics)), WithPerfProfiles(perfprofile.NewStore("")))
		t.Cleanup(e.Close)
		if _, err := e.Register("m", d, core.WithStrategy(s)); err != nil {
			t.Fatal(err)
		}
		run := func(lane string, input []byte) {
			t.Helper()
			res := e.Run(context.Background(), Job{Machine: "m", Input: input})
			if res.Err != nil || res.Lane != lane {
				t.Fatalf("%v: lane %q err %v, want lane %q", s, res.Lane, res.Err, lane)
			}
			if want := d.Run(input, d.Start()); res.Final != want {
				t.Fatalf("%v on %s: final %d, want %d", s, lane, res.Final, want)
			}
			if res.Strategy != s.String() {
				t.Errorf("%v on %s: result strategy %q", s, lane, res.Strategy)
			}
		}
		run(LaneSingle, small)
		run(LaneMulticore, large)
	}
}

// TestStaticDispatchWithoutProfileStore pins the contract the
// conformance harness depends on: lane choice is a pure function of
// input size and procs.
func TestStaticDispatchWithoutProfileStore(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.3)
	e := New(WithWorkers(2), WithProcs(4), WithLargeInput(4096),
		WithTelemetry(new(telemetry.Metrics)))
	defer e.Close()
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}
	small := e.Run(context.Background(), Job{Machine: "m", Input: d.RandomInput(rng, 100)})
	if small.Lane != LaneSingle || !strings.Contains(small.Reason, "< large-input threshold") {
		t.Fatalf("small job lane %q (%s)", small.Lane, small.Reason)
	}
	large := e.Run(context.Background(), Job{Machine: "m", Input: d.RandomInput(rng, 8192)})
	if large.Lane != LaneMulticore || !strings.Contains(large.Reason, ">= large-input threshold") {
		t.Fatalf("large job lane %q (%s)", large.Lane, large.Reason)
	}
}
