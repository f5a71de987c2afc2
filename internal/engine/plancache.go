package engine

// PlanCache: the compile/execute split's payoff at the engine layer.
// Register used to derive the strategy tables twice per machine (once
// for the single-core runner, once for the multicore one) and from
// scratch on every registration; the cache keys compiled plans by
// core.PlanKey — sha256(machine encoding ‖ resolved strategy) — so a
// machine compiles once and every later runner construction is a map
// lookup. Procs, convergence cadence and telemetry are deliberately
// absent from the key: plans are invariant under them (they live on
// Runner), which is what lets one entry serve both engine lanes.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/telemetry"
)

// DefaultPlanCacheSize bounds an engine's plan cache when the caller
// does not supply one: generous for rule-set-sized registries (the
// Snort corpus is ~100 machines) while bounding a churning registry.
const DefaultPlanCacheSize = 256

// PlanCacheStats is a point-in-time view of cache effectiveness.
type PlanCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (s PlanCacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// PlanCache is a bounded LRU of compiled plans keyed by fingerprint.
// It is safe for concurrent use; compilation on a miss happens outside
// the lock, so a slow compile never blocks hits on other machines
// (concurrent misses on the *same* key may compile twice — the losing
// plan is dropped and the cached one returned, keeping the
// one-plan-per-fingerprint invariant).
type PlanCache struct {
	mu    sync.Mutex
	ll    *list.List // front = most recent
	index map[string]*list.Element
	max   int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	tel *telemetry.Metrics
}

type planEntry struct {
	key  string
	plan *core.Plan
}

// NewPlanCache builds a cache bounded to max entries (max <= 0 means
// DefaultPlanCacheSize). tel, when non-nil, receives hit/miss/eviction
// counters and compile timings alongside the cache's own stats.
func NewPlanCache(max int, tel *telemetry.Metrics) *PlanCache {
	if max <= 0 {
		max = DefaultPlanCacheSize
	}
	return &PlanCache{
		ll:    list.New(),
		index: make(map[string]*list.Element),
		max:   max,
		tel:   tel,
	}
}

// GetOrCompile returns the cached plan for (d, opts), compiling and
// inserting it on a miss. The boolean reports whether the lookup hit.
func (c *PlanCache) GetOrCompile(d *fsm.DFA, opts ...core.Option) (*core.Plan, bool, error) {
	key, err := core.PlanKey(d, opts...)
	if err != nil {
		return nil, false, err
	}
	if p := c.lookup(key); p != nil {
		return p, true, nil
	}
	var sp telemetry.Span
	if c.tel != nil {
		sp = c.tel.PlanCompileTime.Start()
	}
	p, err := core.CompilePlan(d, opts...)
	sp.Stop()
	if err != nil {
		return nil, false, err
	}
	return c.insert(key, p), false, nil
}

// GetOrCompileTransducer is GetOrCompile for output-bearing machines.
// The key covers λ (core.TransducerPlanKey), so two transducers over
// the same δ with different output tables occupy distinct entries —
// and never collide with the acceptor plan of the same machine.
func (c *PlanCache) GetOrCompileTransducer(t *fsm.Transducer, opts ...core.Option) (*core.Plan, bool, error) {
	key, err := core.TransducerPlanKey(t, opts...)
	if err != nil {
		return nil, false, err
	}
	if p := c.lookup(key); p != nil {
		return p, true, nil
	}
	var sp telemetry.Span
	if c.tel != nil {
		sp = c.tel.PlanCompileTime.Start()
	}
	p, err := core.CompileTransducer(t, opts...)
	sp.Stop()
	if err != nil {
		return nil, false, err
	}
	return c.insert(key, p), false, nil
}

// Get returns the cached plan for key, or nil. A hit refreshes
// recency but is not counted in the hit/miss stats — only
// GetOrCompile lookups are, so the hit rate measures registration
// reuse rather than introspection traffic.
func (c *PlanCache) Get(key string) *core.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*planEntry).plan
	}
	return nil
}

// Stats returns current counters and size.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	entries := c.ll.Len()
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// Len reports the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// lookup is the stats-counted read half of GetOrCompile.
func (c *PlanCache) lookup(key string) *core.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		if c.tel != nil {
			c.tel.PlanCacheHits.Inc()
		}
		return el.Value.(*planEntry).plan
	}
	c.misses.Add(1)
	if c.tel != nil {
		c.tel.PlanCacheMisses.Inc()
	}
	return nil
}

// insert stores plan under key unless a concurrent insert got there
// first, evicting from the LRU tail past capacity. Returns the plan
// now cached under key.
func (c *PlanCache) insert(key string, p *core.Plan) *core.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*planEntry).plan
	}
	c.index[key] = c.ll.PushFront(&planEntry{key: key, plan: p})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.index, tail.Value.(*planEntry).key)
		c.evictions.Add(1)
		if c.tel != nil {
			c.tel.PlanCacheEvictions.Inc()
		}
	}
	return p
}
