package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sampling. The flight recorder and the OTLP exporter both consume
// completed traces; under sustained load "trace everything, keep
// everything" turns the diagnostic layer into the workload. The
// Sampler is the retention policy between the two: every request can
// be traced (the per-request cost is tens of small allocations), but
// only a bounded-rate head sample plus the traces worth keeping — the
// slow, the erroring, the shed — survive to the recorder and the
// exporter.
//
// The split follows the two classic modes:
//
//   - head sampling: a token bucket admits at most HeadPerSec traces
//     per second on no other grounds than "recent, representative".
//     This bounds the steady-state retention cost regardless of
//     traffic.
//   - tail keeping: decided at completion, when the interesting facts
//     (duration, error, HTTP status) exist. Tails are
//     never rate-limited — an incident is exactly when the limiter
//     must not censor the evidence.
//
// The Sampler never decides whether a request is *traced* — callers
// own that — only whether a completed trace is *retained*.

// Default sampling thresholds.
const (
	DefaultHeadPerSec    = 10.0
	DefaultHeadBurst     = 20
	DefaultSlowThreshold = 100 * time.Millisecond
)

// SamplerConfig configures a Sampler. The zero value gets the
// defaults above.
type SamplerConfig struct {
	// HeadPerSec is the sustained head-sample admission rate; <= 0
	// means DefaultHeadPerSec. HeadBurst is the token-bucket burst
	// (<= 0 means DefaultHeadBurst).
	HeadPerSec float64
	HeadBurst  int
	// SlowThreshold is the duration at or above which a trace is kept
	// unconditionally; <= 0 means DefaultSlowThreshold.
	SlowThreshold time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

// Verdict is one retention decision.
type Verdict struct {
	Keep bool
	// Reason is "head", "slow", "error", "shed", or "rate" for
	// head-sample drops.
	Reason string
}

// SamplerStats counts decisions, for the status surface.
type SamplerStats struct {
	Kept            int64   `json:"kept"`
	Dropped         int64   `json:"dropped"`
	Head            int64   `json:"head"`
	TailSlow        int64   `json:"tail_slow"`
	TailError       int64   `json:"tail_error"`
	TailShed        int64   `json:"tail_shed"`
	HeadPerSec      float64 `json:"head_per_sec"`
	SlowThresholdNs int64   `json:"slow_threshold_ns"`
}

// Sampler applies a SamplerConfig to completed traces. Safe for
// concurrent use; a nil *Sampler keeps everything (sampling disabled).
type Sampler struct {
	cfg SamplerConfig

	mu     sync.Mutex
	tokens float64
	last   time.Time

	kept, dropped                     atomic.Int64
	head, tailSlow, tailErr, tailShed atomic.Int64
}

// NewSampler builds a Sampler, applying defaults to unset fields.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.HeadPerSec <= 0 {
		cfg.HeadPerSec = DefaultHeadPerSec
	}
	if cfg.HeadBurst <= 0 {
		cfg.HeadBurst = DefaultHeadBurst
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Sampler{cfg: cfg, tokens: float64(cfg.HeadBurst), last: cfg.now()}
}

// Sample decides whether a completed trace is retained. status is the
// request's HTTP status code when known (0 otherwise): 5xx classifies
// as an error tail, 429 as a shed tail. Tail checks run before the
// head limiter, so interesting traces are never rate-limited away.
func (s *Sampler) Sample(t *Trace, status int) Verdict {
	if s == nil {
		return Verdict{Keep: true, Reason: "unsampled"}
	}
	if t == nil {
		return Verdict{Keep: false, Reason: "nil"}
	}
	if v, ok := s.tail(t, status); ok {
		s.kept.Add(1)
		return v
	}
	if s.admitHead() {
		s.kept.Add(1)
		s.head.Add(1)
		return Verdict{Keep: true, Reason: "head"}
	}
	s.dropped.Add(1)
	return Verdict{Keep: false, Reason: "rate"}
}

// tail checks the always-keep conditions.
func (s *Sampler) tail(t *Trace, status int) (Verdict, bool) {
	if t.Error() != "" || status >= 500 {
		s.tailErr.Add(1)
		return Verdict{Keep: true, Reason: "error"}, true
	}
	if status == 429 {
		s.tailShed.Add(1)
		return Verdict{Keep: true, Reason: "shed"}, true
	}
	if t.Duration() >= s.cfg.SlowThreshold {
		s.tailSlow.Add(1)
		return Verdict{Keep: true, Reason: "slow"}, true
	}
	return Verdict{}, false
}

// admitHead is the token bucket: HeadPerSec refills, HeadBurst cap.
func (s *Sampler) admitHead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.now()
	s.tokens += now.Sub(s.last).Seconds() * s.cfg.HeadPerSec
	s.last = now
	if burst := float64(s.cfg.HeadBurst); s.tokens > burst {
		s.tokens = burst
	}
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// Stats returns the decision counters. Nil-safe.
func (s *Sampler) Stats() SamplerStats {
	if s == nil {
		return SamplerStats{}
	}
	return SamplerStats{
		Kept:            s.kept.Load(),
		Dropped:         s.dropped.Load(),
		Head:            s.head.Load(),
		TailSlow:        s.tailSlow.Load(),
		TailError:       s.tailErr.Load(),
		TailShed:        s.tailShed.Load(),
		HeadPerSec:      s.cfg.HeadPerSec,
		SlowThresholdNs: int64(s.cfg.SlowThreshold),
	}
}
