package adaptive

import (
	"strings"
	"testing"
)

// profiled builds Inputs with all three lanes well past MinSamples at
// the given throughputs (0 = lane unsampled).
func profiled(single, multi, spec float64) Inputs {
	in := Inputs{
		Strategy:    "range-coalesced",
		Procs:       4,
		HasHotState: true,
	}
	if single > 0 {
		in.Single = LaneObs{Jobs: 100, BytesPerSec: single}
	}
	if multi > 0 {
		in.Multicore = LaneObs{Jobs: 100, BytesPerSec: multi}
	}
	if spec > 0 {
		in.Speculative = LaneObs{Jobs: 100, BytesPerSec: spec}
		in.SpecChunks = 400
		in.MispredictRate = 0.01
	}
	return in
}

func TestDecideIsDeterministic(t *testing.T) {
	// The determinism contract: identical Inputs yield identical
	// Selections (lane, strategy, and reason, byte for byte), every
	// time. This is what makes selection reasons trustworthy in traces.
	cases := []Inputs{
		{Procs: 1, Strategy: "sequential"},
		{Procs: 4, Strategy: "convergence"},
		profiled(1e6, 5e6, 0),
		profiled(1e6, 5e6, 20e6),
		profiled(0, 3e6, 3e6), // exact throughput tie
		func() Inputs {
			in := profiled(1e6, 5e6, 20e6)
			in.MispredictRate = 0.9
			return in
		}(),
		func() Inputs {
			in := profiled(1e6, 5e6, 6e6)
			in.Incumbent = LaneMulticore
			return in
		}(),
	}
	for i, in := range cases {
		first := Decide(in)
		for rep := 0; rep < 50; rep++ {
			if got := Decide(in); got != first {
				t.Fatalf("case %d rep %d: %+v != %+v", i, rep, got, first)
			}
		}
		if first.Strategy != in.Strategy {
			t.Errorf("case %d: strategy %q not passed through (got %q)", i, in.Strategy, first.Strategy)
		}
		if first.Reason == "" {
			t.Errorf("case %d: empty reason", i)
		}
	}
}

func TestDecideSingleCoreHost(t *testing.T) {
	sel := Decide(Inputs{Procs: 1, Strategy: "sequential"})
	if sel.Lane != LaneSingle {
		t.Fatalf("procs=1 selected %q", sel.Lane)
	}
}

func TestDecideColdStartMatchesLegacyHeuristic(t *testing.T) {
	// No parallel-lane history: the selector must reproduce the
	// pre-adaptive engine behavior (multicore for large inputs).
	sel := Decide(Inputs{Procs: 4, Strategy: "convergence"})
	if sel.Lane != LaneMulticore {
		t.Fatalf("cold start selected %q, want multicore", sel.Lane)
	}
	if !strings.Contains(sel.Reason, "cold start") {
		t.Errorf("reason %q does not mention cold start", sel.Reason)
	}
}

func TestDecidePicksFastestLane(t *testing.T) {
	if sel := Decide(profiled(1e6, 5e6, 20e6)); sel.Lane != LaneSpeculative {
		t.Errorf("fastest spec lane not picked: %+v", sel)
	}
	if sel := Decide(profiled(1e6, 50e6, 20e6)); sel.Lane != LaneMulticore {
		t.Errorf("fastest multicore lane not picked: %+v", sel)
	}
	// A tiny machine where scalar beats both parallel lanes.
	if sel := Decide(profiled(90e6, 50e6, 20e6)); sel.Lane != LaneSingle {
		t.Errorf("fastest single lane not picked: %+v", sel)
	}
	// Exact tie breaks toward the earlier candidate (multicore).
	if sel := Decide(profiled(0, 3e6, 3e6)); sel.Lane != LaneMulticore {
		t.Errorf("tie did not break to multicore: %+v", sel)
	}
}

func TestDecideDisqualifiesHighMispredict(t *testing.T) {
	in := profiled(1e6, 5e6, 20e6)
	in.MispredictRate = MaxMispredictRate + 0.01
	if sel := Decide(in); sel.Lane != LaneMulticore {
		t.Fatalf("mispredicting spec lane still selected: %+v", sel)
	}

	// Spec is the ONLY sampled lane and it is disqualified: fall back
	// to multicore with an explanatory reason.
	lone := Inputs{Procs: 4, Strategy: "convergence",
		Speculative:    LaneObs{Jobs: 100, BytesPerSec: 20e6},
		SpecChunks:     400,
		MispredictRate: 0.8,
	}
	sel := Decide(lone)
	if sel.Lane != LaneMulticore || !strings.Contains(sel.Reason, "disqualified") {
		t.Fatalf("lone disqualified spec lane: %+v", sel)
	}
}

func TestDecideHysteresis(t *testing.T) {
	// Challenger at 1.1x the incumbent: inside the band, incumbent holds.
	in := profiled(0, 5e6, 5.5e6)
	in.Incumbent = LaneMulticore
	if sel := Decide(in); sel.Lane != LaneMulticore {
		t.Fatalf("1.10x challenger displaced incumbent: %+v", sel)
	}
	// Challenger at 1.2x: clears the band, switch.
	in = profiled(0, 5e6, 6e6)
	in.Incumbent = LaneMulticore
	if sel := Decide(in); sel.Lane != LaneSpeculative {
		t.Fatalf("1.20x challenger failed to displace incumbent: %+v", sel)
	}
	// An unsampled incumbent (e.g. after a profile wipe) has no claim.
	in = profiled(0, 0, 6e6)
	in.Incumbent = LaneMulticore
	if sel := Decide(in); sel.Lane != LaneSpeculative {
		t.Fatalf("ghost incumbent held the lane: %+v", sel)
	}
}

func TestSelectorRefreshUsesOwnIncumbent(t *testing.T) {
	s := NewSelector(profiled(0, 5e6, 0))
	if got := s.Selection().Lane; got != LaneMulticore {
		t.Fatalf("initial selection %q", got)
	}
	// A fresh Inputs with a conflicting Incumbent field: the selector
	// must anchor hysteresis on its OWN current lane, not the caller's.
	in := profiled(0, 5e6, 5.5e6)
	in.Incumbent = LaneSpeculative // lies; selector holds multicore
	if sel := s.Refresh(in); sel.Lane != LaneMulticore {
		t.Fatalf("selector trusted caller incumbent: %+v", sel)
	}
	// And a clear winner still flips it.
	if sel := s.Refresh(profiled(0, 5e6, 60e6)); sel.Lane != LaneSpeculative {
		t.Fatalf("selector failed to flip on a 12x challenger: %+v", sel)
	}
}

func TestSelectorNoteJobCadence(t *testing.T) {
	s := NewSelector(profiled(0, 5e6, 0))
	due := 0
	for i := 0; i < 3*EvalEvery; i++ {
		if s.NoteJob() {
			due++
		}
	}
	if due != 3 {
		t.Fatalf("refresh due %d times over %d jobs, want 3", due, 3*EvalEvery)
	}
}

func TestSelectorProbesUndersampledSpecLane(t *testing.T) {
	// Multicore selected, spec lane unsampled, hot state known: the
	// probe schedule must route exactly one in ProbeEvery large jobs to
	// the speculative lane.
	in := profiled(0, 5e6, 0)
	s := NewSelector(in)
	probes := 0
	for i := 0; i < 4*ProbeEvery; i++ {
		lane, reason := s.LaneFor()
		if lane == LaneSpeculative {
			probes++
			if !strings.Contains(reason, "probing") {
				t.Fatalf("probe without probing reason: %q", reason)
			}
		}
		s.NoteJob()
	}
	if probes != 4 {
		t.Fatalf("probed %d times over %d jobs, want 4", probes, 4*ProbeEvery)
	}

	// No hot state → no probe.
	cold := profiled(0, 5e6, 0)
	cold.HasHotState = false
	s2 := NewSelector(cold)
	for i := 0; i < 4*ProbeEvery; i++ {
		if lane, _ := s2.LaneFor(); lane == LaneSpeculative {
			t.Fatal("probed speculative lane with no hot-state signal")
		}
		s2.NoteJob()
	}

	// Once the spec lane has samples, probing stops.
	warm := profiled(0, 5e6, 1e6)
	s3 := NewSelector(warm)
	for i := 0; i < 4*ProbeEvery; i++ {
		if lane, _ := s3.LaneFor(); lane == LaneSpeculative {
			t.Fatal("probed a lane that already has MinSamples")
		}
		s3.NoteJob()
	}
}

func TestSelectorReprobesLaneLostOnFewSamples(t *testing.T) {
	// The speculative lane lost its first evaluation on MinSamples
	// jobs, slowed by a stall: multicore holds, but probing goes on
	// until ProbeSamples, and once the later probes lift the lane's
	// rate past the hysteresis band it takes over.
	in := profiled(0, 5e6, 2e6)
	in.Speculative.Jobs = MinSamples
	s := NewSelector(in)
	if got := s.Selection().Lane; got != LaneMulticore {
		t.Fatalf("selection %q, want multicore", got)
	}
	probes := 0
	for i := 0; i < 2*ProbeEvery; i++ {
		if lane, _ := s.LaneFor(); lane == LaneSpeculative {
			probes++
		}
		s.NoteJob()
	}
	if probes != 2 {
		t.Fatalf("probed %d times over %d jobs, want 2", probes, 2*ProbeEvery)
	}
	in.Speculative = LaneObs{Jobs: MinSamples + 2, BytesPerSec: 6e6}
	if sel := s.Refresh(in); sel.Lane != LaneSpeculative {
		t.Fatalf("re-probed lane at 1.2x did not take over: %+v", sel)
	}

	// At ProbeSamples the lane has had its chance; probing stops.
	in = profiled(0, 5e6, 2e6)
	in.Speculative.Jobs = ProbeSamples
	s = NewSelector(in)
	for i := 0; i < 4*ProbeEvery; i++ {
		if lane, _ := s.LaneFor(); lane == LaneSpeculative {
			t.Fatal("probed a lane that already has ProbeSamples")
		}
		s.NoteJob()
	}
}

func TestNilSelectorIsInert(t *testing.T) {
	var s *Selector
	if s.Selection() != (Selection{}) {
		t.Error("nil Selection not zero")
	}
	if s.NoteJob() {
		t.Error("nil NoteJob reported due")
	}
	if lane, _ := s.LaneFor(); lane != "" {
		t.Error("nil LaneFor returned a lane")
	}
	s.Refresh(Inputs{})
}
