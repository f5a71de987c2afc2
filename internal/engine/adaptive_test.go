package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dpfsm/internal/adaptive"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/telemetry"
)

// absorbingDFA builds the speculation-friendly machine the package's
// other adaptive tests share: symbol 1 funnels every state into the
// absorbing state 3, so chunk start guesses of 3 almost always hold.
func absorbingDFA() *fsm.DFA {
	d := fsm.MustNew(4, 2)
	d.SetColumn(0, []fsm.State{1, 2, 3, 3})
	d.SetColumn(1, []fsm.State{3, 3, 3, 3})
	d.SetAccepting(3, true)
	return d
}

// TestAdaptiveProfileFlipReroutes is the closed-loop check: a machine
// starts on the cold-start multicore default, its profile then shows
// the speculative lane far faster, and after a re-evaluation large
// jobs actually run speculatively — then a poisoned mispredict rate
// flips them back. The profile is driven directly through the
// recorder so the test controls exactly what the selector sees.
func TestAdaptiveProfileFlipReroutes(t *testing.T) {
	d := absorbingDFA()
	store := perfprofile.NewStore("")
	met := new(telemetry.Metrics)
	e := New(WithWorkers(4), WithProcs(4), WithLargeInput(4096),
		WithTelemetry(met), WithPerfProfiles(store))
	defer e.Close()
	m, err := e.Register("abs", d, core.WithMinChunk(256))
	if err != nil {
		t.Fatal(err)
	}

	if sel := m.Selection(); sel.Lane != adaptive.LaneMulticore || !strings.Contains(sel.Reason, "cold start") {
		t.Fatalf("initial selection %+v, want cold-start multicore", sel)
	}

	rng := rand.New(rand.NewSource(51))
	input := d.RandomInput(rng, 64<<10)
	want := d.Run(input, d.Start())

	// Cold start: a large job takes the multicore lane.
	res := e.Run(context.Background(), Job{Machine: "abs", Input: input})
	if res.Err != nil || res.Final != want {
		t.Fatalf("cold-start run: %+v", res)
	}
	if res.Lane != LaneMulticore {
		t.Fatalf("cold-start lane %q, want multicore", res.Lane)
	}

	// Feed the profile a history where the speculative lane is 10x the
	// multicore lane with a negligible mispredict rate, and re-evaluate.
	rec := m.Recorder()
	for i := 0; i < adaptive.MinSamples; i++ {
		rec.Observe(perfprofile.Job{Lane: LaneSpeculative, Bytes: 1 << 20, Exec: time.Millisecond, Final: int(want)})
		rec.Observe(perfprofile.Job{Lane: LaneMulticore, Bytes: 1 << 20, Exec: 10 * time.Millisecond, Final: int(want)})
	}
	rec.Observe(perfprofile.Job{Lane: LaneSpeculative, Bytes: 1 << 20, Exec: time.Millisecond, Final: int(want),
		Stats: core.DriveStats{Chunks: 100, Misses: 1}})
	if sel := m.Reselect(); sel.Lane != adaptive.LaneSpeculative {
		t.Fatalf("post-flip selection %+v, want speculative", sel)
	}

	res = e.Run(context.Background(), Job{Machine: "abs", Input: input})
	if res.Err != nil || res.Final != want || !res.Accepts {
		t.Fatalf("speculative run wrong: %+v", res)
	}
	if res.Lane != LaneSpeculative || res.Multicore {
		t.Fatalf("post-flip lane %q (multicore=%v), want speculative", res.Lane, res.Multicore)
	}
	if !strings.Contains(res.Reason, "speculative") {
		t.Errorf("reason %q does not name the lane", res.Reason)
	}

	// The run itself fed the loop: chunk accounting landed in both the
	// profile and the shared telemetry.
	p, ok := store.Profile("abs")
	if !ok {
		t.Fatal("no profile for abs")
	}
	if p.SpecChunks <= 100 {
		t.Errorf("spec chunks %d did not grow past the injected 100", p.SpecChunks)
	}
	if p.Lanes[LaneSpeculative].Jobs <= int64(adaptive.MinSamples) {
		t.Errorf("speculative lane jobs %d did not grow", p.Lanes[LaneSpeculative].Jobs)
	}
	snap := met.Snapshot()
	if snap.EngineSpeculative == 0 || snap.SpecChunks == 0 {
		t.Errorf("telemetry: speculative=%d chunks=%d", snap.EngineSpeculative, snap.SpecChunks)
	}

	// Poison the mispredict rate past the disqualification bound; the
	// next re-evaluation must abandon the lane.
	rec.Observe(perfprofile.Job{Lane: LaneSpeculative, Bytes: 1 << 20, Exec: time.Millisecond, Final: int(want),
		Stats: core.DriveStats{Chunks: 1000, Misses: 900, ReplayBytes: 50 << 20}})
	if sel := m.Reselect(); sel.Lane == adaptive.LaneSpeculative {
		t.Fatalf("selection stayed speculative despite mispredict poisoning: %+v", sel)
	}
	res = e.Run(context.Background(), Job{Machine: "abs", Input: input})
	if res.Err != nil || res.Final != want {
		t.Fatalf("post-poison run: %+v", res)
	}
	if res.Lane == LaneSpeculative {
		t.Fatalf("post-poison lane still speculative: %+v", res)
	}
}

// TestSpeculativeLaneExactOnHostileMachine runs forced-mispredict
// speculation end to end through the engine: a permutation machine
// never converges, so a speculative job cascades re-runs — and must
// still produce the oracle's exact answer, with the mispredicts
// showing up in the profile.
func TestSpeculativeLaneExactOnHostileMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d := fsm.RandomPermutation(rng, 16, 4, 0.3)
	store := perfprofile.NewStore("")
	e := New(WithWorkers(4), WithProcs(4), WithLargeInput(4096),
		WithTelemetry(new(telemetry.Metrics)), WithPerfProfiles(store))
	defer e.Close()
	m, err := e.Register("perm", d)
	if err != nil {
		t.Fatal(err)
	}

	// Force the selector onto the speculative lane so the hostile path
	// is what executes.
	rec := m.Recorder()
	for i := 0; i < adaptive.MinSamples; i++ {
		rec.Observe(perfprofile.Job{Lane: LaneSpeculative, Bytes: 1 << 20, Exec: time.Millisecond})
	}
	if sel := m.Reselect(); sel.Lane != adaptive.LaneSpeculative {
		t.Fatalf("could not force speculative lane: %+v", sel)
	}

	input := d.RandomInput(rng, 64<<10)
	res := e.Run(context.Background(), Job{Machine: "perm", Input: input})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Lane != LaneSpeculative {
		t.Fatalf("lane %q", res.Lane)
	}
	if want := d.Run(input, d.Start()); res.Final != want {
		t.Fatalf("speculative result %d, want %d", res.Final, want)
	}
	p, _ := store.Profile("perm")
	if p.SpecMispredicts == 0 || p.SpecReRunBytes == 0 {
		t.Errorf("hostile machine recorded no mispredicts: %+v", p)
	}
}

// TestJobStrategyOverride: a job picks no strategy. Every job of a
// machine registered with core.WithStrategy(s) runs s, on every lane —
// single, multicore and speculative — with the oracle's answer.
func TestJobStrategyOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.3)
	small := d.RandomInput(rng, 1<<10)
	large := d.RandomInput(rng, 32<<10)
	for _, s := range []core.Strategy{core.Sequential, core.Convergence, core.RangeCoalesced, core.BaseILP} {
		e := New(WithWorkers(2), WithProcs(4), WithLargeInput(4096),
			WithTelemetry(new(telemetry.Metrics)), WithPerfProfiles(perfprofile.NewStore("")))
		t.Cleanup(e.Close)
		m, err := e.Register("m", d, core.WithStrategy(s))
		if err != nil {
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
		for i := 0; i < adaptive.MinSamples; i++ {
			m.Recorder().Observe(perfprofile.Job{Lane: LaneSpeculative, Bytes: 1 << 20, Exec: time.Millisecond})
		}
		if sel := m.Reselect(); sel.Lane != adaptive.LaneSpeculative {
			t.Fatalf("%v: could not force the speculative lane: %+v", s, sel)
		}
		run(LaneSpeculative, large)
	}
}

// TestStaticDispatchWithoutProfileStore pins the legacy contract the
// conformance harness depends on: with no profile store, lane choice
// is a pure function of input size and procs.
func TestStaticDispatchWithoutProfileStore(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.3)
	e := New(WithWorkers(2), WithProcs(4), WithLargeInput(4096),
		WithTelemetry(new(telemetry.Metrics)))
	defer e.Close()
	m, err := e.Register("m", d)
	if err != nil {
		t.Fatal(err)
	}
	if sel := m.Selection(); sel.Lane != LaneMulticore || !strings.Contains(sel.Reason, "static") {
		t.Fatalf("static selection %+v", sel)
	}
	small := e.Run(context.Background(), Job{Machine: "m", Input: d.RandomInput(rng, 100)})
	if small.Lane != LaneSingle || small.Multicore {
		t.Fatalf("small job lane %q", small.Lane)
	}
	large := e.Run(context.Background(), Job{Machine: "m", Input: d.RandomInput(rng, 8192)})
	if large.Lane != LaneMulticore || !large.Multicore {
		t.Fatalf("large job lane %q multicore=%v", large.Lane, large.Multicore)
	}
}
