package trace

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives the token bucket deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestSampler(cfg SamplerConfig) (*Sampler, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	cfg.now = clk.now
	return NewSampler(cfg), clk
}

func finished(opts ...func(*Trace)) *Trace {
	t := New()
	for _, o := range opts {
		o(t)
	}
	t.Finish()
	return t
}

func TestSamplerNilKeepsEverything(t *testing.T) {
	var s *Sampler
	if v := s.Sample(finished(), 200); !v.Keep {
		t.Fatalf("nil sampler dropped a trace: %+v", v)
	}
	if st := s.Stats(); st != (SamplerStats{}) {
		t.Fatalf("nil sampler stats = %+v", st)
	}
}

func TestSamplerHeadTokenBucket(t *testing.T) {
	s, clk := newTestSampler(SamplerConfig{HeadPerSec: 2, HeadBurst: 3})
	kept := 0
	for i := 0; i < 10; i++ {
		if s.Sample(finished(), 200).Keep {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("burst: kept %d, want 3", kept)
	}
	// One second refills 2 tokens.
	clk.advance(time.Second)
	kept = 0
	for i := 0; i < 10; i++ {
		if s.Sample(finished(), 200).Keep {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("refill: kept %d, want 2", kept)
	}
	st := s.Stats()
	if st.Kept != 5 || st.Head != 5 || st.Dropped != 15 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSamplerTailsBypassRateLimit is the acceptance property: with the
// head budget exhausted, every slow/error/shed trace is still kept.
func TestSamplerTailsBypassRateLimit(t *testing.T) {
	s, _ := newTestSampler(SamplerConfig{
		HeadPerSec:    1,
		HeadBurst:     1,
		SlowThreshold: 50 * time.Millisecond,
	})
	// Exhaust the head budget.
	s.Sample(finished(), 200)
	if s.Sample(finished(), 200).Keep {
		t.Fatal("head budget not exhausted")
	}

	cases := []struct {
		name   string
		tr     *Trace
		status int
		reason string
	}{
		{"error string", finished(func(tr *Trace) { tr.SetError("boom") }), 200, "error"},
		{"5xx status", finished(), 500, "error"},
		{"shed", finished(), 429, "shed"},
		{"slow", func() *Trace {
			tr := New()
			tr.start = tr.start.Add(-time.Second) // fake a 1s trace
			tr.Finish()
			return tr
		}(), 200, "slow"},
	}
	for _, tc := range cases {
		v := s.Sample(tc.tr, tc.status)
		if !v.Keep {
			t.Errorf("%s: dropped, want kept", tc.name)
		}
		if v.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, v.Reason, tc.reason)
		}
	}
	st := s.Stats()
	if st.TailError != 2 || st.TailShed != 1 || st.TailSlow != 1 {
		t.Fatalf("tail stats = %+v", st)
	}
}

func TestSamplerDefaults(t *testing.T) {
	s := NewSampler(SamplerConfig{})
	st := s.Stats()
	if st.HeadPerSec != DefaultHeadPerSec {
		t.Fatalf("HeadPerSec = %g", st.HeadPerSec)
	}
	if st.SlowThresholdNs != int64(DefaultSlowThreshold) {
		t.Fatalf("SlowThresholdNs = %d", st.SlowThresholdNs)
	}
}

func TestSamplerConcurrent(t *testing.T) {
	s, _ := newTestSampler(SamplerConfig{HeadPerSec: 5, HeadBurst: 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				status := 200
				if i%10 == 0 {
					status = 429
				}
				s.Sample(finished(), status)
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if total := st.Kept + st.Dropped; total != 400 {
		t.Fatalf("decisions = %d, want 400", total)
	}
	if st.TailShed != 40 {
		t.Fatalf("shed tails = %d, want 40", st.TailShed)
	}
}

func TestTraceSpanIDAccessors(t *testing.T) {
	tr := New()
	if len(tr.SpanID()) != 16 || !isHex(tr.SpanID()) {
		t.Fatalf("SpanID = %q", tr.SpanID())
	}
	if tr.ParentSpanID() != "" {
		t.Fatalf("local root has parent %q", tr.ParentSpanID())
	}
	joined := FromParent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if joined.ParentSpanID() != "00f067aa0ba902b7" {
		t.Fatalf("joined parent = %q", joined.ParentSpanID())
	}
	var nilT *Trace
	if nilT.SpanID() != "" || nilT.ParentSpanID() != "" {
		t.Fatal("nil trace accessors not empty")
	}
}
