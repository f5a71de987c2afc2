// Package adaptive closes the loop between the perf profiles the
// engine records and the dispatch decisions it makes: given a
// machine's compile-time shape (state count, widest transition range)
// and its observed behavior (per-lane throughput, speculative
// mispredict rate, convergence rate), pick the execution lane for
// large inputs — single-core, the paper's Figure 5 multicore, or the
// §7 speculative baseline.
//
// The design splits policy from bookkeeping:
//
//   - Decide is a pure function of Inputs. Same inputs, same answer,
//     independent of call order or map iteration — this is what makes
//     selection testable and its reasons trustworthy.
//   - Selector wraps Decide with the run-time statefulness a server
//     needs: a current selection readable on the hot path without
//     locks, periodic re-evaluation (NoteJob), hysteresis against
//     flapping, and deterministic probing so an undersampled lane can
//     earn its first samples without being trusted with the whole
//     workload.
//
// Cold start falls back to the engine's historical heuristic (large
// input + spare cores → multicore), so a machine with no profile
// behaves exactly as it did before this package existed.
package adaptive

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Tuning constants. Exported so status surfaces and tests can explain
// selections in the same terms the selector uses.
const (
	// MinSamples is how many jobs a lane must have executed before its
	// observed throughput is trusted.
	MinSamples = 8
	// EvalEvery is how many jobs pass between selection re-evaluations.
	EvalEvery = 32
	// HysteresisRatio is how much faster a challenger lane must be
	// before it displaces the incumbent: switching has real costs
	// (warm caches, steady queues), so near-ties stay put.
	HysteresisRatio = 1.15
	// MaxMispredictRate disqualifies the speculative lane: beyond it,
	// re-run work erases the fan-out win (the paper's §7 cascade
	// argument, measured instead of assumed).
	MaxMispredictRate = 0.25
	// ProbeEvery routes one in this many large jobs to an undersampled
	// speculative lane, so it can accumulate samples without ever
	// carrying more than a sliver of the workload.
	ProbeEvery = 8
	// ProbeSamples is how many jobs an unselected speculative lane is
	// probed for. It is more than MinSamples so that one decision on
	// MinSamples jobs is not final: a stall that slowed those few
	// samples (a collector pause, a core taken by another process)
	// would otherwise hold the lane at a rate it never really had, on
	// one run and not the next. The further probes run on the
	// workload's own large jobs, and the re-evaluations every EvalEvery
	// jobs weigh them.
	ProbeSamples = 4 * MinSamples
)

// Lane names: the one definition of the dispatch vocabulary. The
// engine's Result.Lane, perfprofile's per-lane stats and the selector's
// choices all use these, so a lane cannot be renamed in one and not the
// others. The selector never picks LaneCluster; the engine takes that
// lane by input size when a coordinator is attached.
const (
	LaneSingle      = "single"
	LaneMulticore   = "multicore"
	LaneSpeculative = "speculative"
	LaneCluster     = "cluster"
)

// LaneObs is one lane's observed history, lifted from the machine's
// perf profile.
type LaneObs struct {
	Jobs        int64
	BytesPerSec float64
}

// Inputs is everything Decide looks at. Compile-time fields come from
// the plan, observed fields from the merged (baseline + live) perf
// profile, and Incumbent from the selector's own prior decision.
type Inputs struct {
	// Compile-time shape.
	Strategy string // the plan's resolved (never "auto") strategy

	// Environment.
	Procs int

	// Observed per-lane history.
	Single      LaneObs
	Multicore   LaneObs
	Speculative LaneObs

	// Speculative-lane quality signals.
	MispredictRate float64
	SpecChunks     int64
	// HasHotState reports whether the profile has seen any final state
	// at all — without one the speculative guess is uninformed and
	// probing is not worth the re-run risk.
	HasHotState bool

	// Incumbent is the currently selected lane ("" on first
	// evaluation); the hysteresis anchor.
	Incumbent string
}

// Selection is one decision: the lane large inputs should take, the
// strategy they run under, and a human-readable justification that
// ends up in trace spans, /v1/status, and bench reports.
type Selection struct {
	Lane     string `json:"lane"`
	Strategy string `json:"strategy"`
	Reason   string `json:"reason"`
}

// sampled reports whether a lane has enough history to trust.
func sampled(o LaneObs) bool { return o.Jobs >= MinSamples && o.BytesPerSec > 0 }

// Decide picks a lane from in. Pure and deterministic: candidate
// lanes are considered in a fixed order and every numeric comparison
// is on plain float64s, so identical Inputs always yield identical
// Selections.
func Decide(in Inputs) Selection {
	if in.Procs <= 1 {
		return Selection{Lane: LaneSingle, Strategy: in.Strategy,
			Reason: "single core available; parallel lanes need procs>1"}
	}

	specTrusted := sampled(in.Speculative) && in.MispredictRate <= MaxMispredictRate
	anyParallelSampled := sampled(in.Multicore) || sampled(in.Speculative)
	if !anyParallelSampled {
		// Cold start: no parallel lane has history, so fall back to the
		// pre-adaptive heuristic rather than guessing from nothing.
		return Selection{Lane: LaneMulticore, Strategy: in.Strategy,
			Reason: fmt.Sprintf("cold start (<%d parallel-lane jobs observed); default multicore heuristic", MinSamples)}
	}

	// Fixed candidate order = deterministic tie-breaks: multicore, then
	// speculative, then single.
	cands := make([]laneCand, 0, 3)
	if sampled(in.Multicore) {
		cands = append(cands, laneCand{LaneMulticore, in.Multicore})
	}
	if specTrusted {
		cands = append(cands, laneCand{LaneSpeculative, in.Speculative})
	}
	if sampled(in.Single) {
		cands = append(cands, laneCand{LaneSingle, in.Single})
	}
	if len(cands) == 0 {
		// Speculative was the only sampled lane and its mispredict rate
		// disqualified it.
		return Selection{Lane: LaneMulticore, Strategy: in.Strategy,
			Reason: fmt.Sprintf("speculative disqualified (mispredict rate %.2f > %.2f); multicore fallback",
				in.MispredictRate, MaxMispredictRate)}
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if c.obs.BytesPerSec > best.obs.BytesPerSec {
			best = c
		}
	}

	// Hysteresis: a sampled incumbent keeps the lane unless the best
	// challenger clears the ratio.
	if in.Incumbent != "" && in.Incumbent != best.lane {
		if inc, ok := lookup(cands, in.Incumbent); ok &&
			best.obs.BytesPerSec < inc.BytesPerSec*HysteresisRatio {
			return Selection{Lane: in.Incumbent, Strategy: in.Strategy,
				Reason: fmt.Sprintf("holding %s: %s at %s is within the %.2fx hysteresis band of %s",
					in.Incumbent, best.lane, rate(best.obs.BytesPerSec), HysteresisRatio, rate(inc.BytesPerSec))}
		}
	}

	reason := fmt.Sprintf("profile: %s fastest at %s", best.lane, rate(best.obs.BytesPerSec))
	if runner, ok := runnerUp(cands, best.lane); ok {
		reason += fmt.Sprintf(" (next: %s at %s)", runner.lane, rate(runner.obs.BytesPerSec))
	}
	if best.lane == LaneSpeculative {
		reason += fmt.Sprintf("; mispredict rate %.2f", in.MispredictRate)
	}
	return Selection{Lane: best.lane, Strategy: in.Strategy, Reason: reason}
}

// laneCand pairs a lane name with its observations during Decide's
// comparison pass.
type laneCand struct {
	lane string
	obs  LaneObs
}

func lookup(cands []laneCand, lane string) (LaneObs, bool) {
	for _, c := range cands {
		if c.lane == lane {
			return c.obs, true
		}
	}
	return LaneObs{}, false
}

func runnerUp(cands []laneCand, bestLane string) (laneCand, bool) {
	var best laneCand
	found := false
	for _, c := range cands {
		if c.lane == bestLane {
			continue
		}
		if !found || c.obs.BytesPerSec > best.obs.BytesPerSec {
			best, found = c, true
		}
	}
	return best, found
}

// rate renders bytes/sec for reason strings.
func rate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.1f GB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.1f MB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1f kB/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f B/s", bps)
	}
}

// Selector is the stateful wrapper one machine owns: current
// selection, job counting toward the next re-evaluation, and the
// speculative probe schedule.
type Selector struct {
	mu  sync.Mutex
	cur Selection
	// probeSpec is set when the speculative lane should be sampled on a
	// deterministic cadence even though it is not the selected lane.
	probeSpec bool

	jobs atomic.Int64
}

// NewSelector evaluates in and returns a selector holding the result.
func NewSelector(in Inputs) *Selector {
	s := &Selector{}
	s.Refresh(in)
	return s
}

// Selection returns the current decision.
func (s *Selector) Selection() Selection {
	if s == nil {
		return Selection{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Refresh re-runs Decide against fresh inputs (the incumbent is the
// selector's own current lane, overriding in.Incumbent) and installs
// the result. It also re-derives the probe schedule: the speculative
// lane is probed while it is unselected, has fewer than ProbeSamples
// jobs, is not disqualified, and the machine has a hot state to guess
// from.
func (s *Selector) Refresh(in Inputs) Selection {
	if s == nil {
		return Selection{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.Lane != "" {
		in.Incumbent = s.cur.Lane
	}
	s.cur = Decide(in)
	s.probeSpec = s.cur.Lane != LaneSpeculative &&
		in.Procs > 1 &&
		in.HasHotState &&
		in.Speculative.Jobs < ProbeSamples &&
		(in.SpecChunks == 0 || in.MispredictRate <= MaxMispredictRate)
	return s.cur
}

// NoteJob counts one large-input job and reports whether the caller
// should Refresh (every EvalEvery jobs).
func (s *Selector) NoteJob() bool {
	if s == nil {
		return false
	}
	return s.jobs.Add(1)%EvalEvery == 0
}

// LaneFor returns the lane and reason for the next large-input job,
// interleaving deterministic probes of the speculative lane when the
// schedule calls for them.
func (s *Selector) LaneFor() (string, string) {
	if s == nil {
		return "", ""
	}
	n := s.jobs.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probeSpec && n%ProbeEvery == ProbeEvery-1 {
		return LaneSpeculative, fmt.Sprintf("probing speculative lane (1 in %d jobs until %d samples)", ProbeEvery, ProbeSamples)
	}
	return s.cur.Lane, s.cur.Reason
}
