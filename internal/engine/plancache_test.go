package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/telemetry"
)

func cacheMachines(t *testing.T, n int) []*fsm.DFA {
	t.Helper()
	rng := rand.New(rand.NewSource(70))
	ms := make([]*fsm.DFA, n)
	for i := range ms {
		ms[i] = fsm.RandomConverging(rng, 24+i, 4, 5, 0.3)
	}
	return ms
}

func TestPlanCacheHitMissAccounting(t *testing.T) {
	met := new(telemetry.Metrics)
	c := NewPlanCache(8, met)
	ms := cacheMachines(t, 3)

	for _, d := range ms {
		if _, hit, err := c.GetOrCompile(d); err != nil || hit {
			t.Fatalf("first compile: hit=%v err=%v", hit, err)
		}
	}
	for range 3 {
		for _, d := range ms {
			if _, hit, err := c.GetOrCompile(d); err != nil || !hit {
				t.Fatalf("warm lookup: hit=%v err=%v", hit, err)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 9 || st.Evictions != 0 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 misses / 9 hits / 0 evictions / 3 entries", st)
	}
	if got, want := st.HitRate(), 0.75; got != want {
		t.Fatalf("hit rate %v, want %v", got, want)
	}
	snap := met.Snapshot()
	if snap.PlanCacheHits != 9 || snap.PlanCacheMisses != 3 {
		t.Fatalf("telemetry mirrors: hits=%d misses=%d", snap.PlanCacheHits, snap.PlanCacheMisses)
	}
	if snap.PlanCompile.Count != 3 {
		t.Fatalf("plan compile timer count = %d, want 3", snap.PlanCompile.Count)
	}

	// Same machine, different forced strategy: a distinct plan.
	if _, hit, err := c.GetOrCompile(ms[0], core.WithStrategy(core.Base)); err != nil || hit {
		t.Fatalf("forced strategy should miss: hit=%v err=%v", hit, err)
	}
	// Runtime options do not change the key.
	if _, hit, err := c.GetOrCompile(ms[0], core.WithProcs(9)); err != nil || !hit {
		t.Fatalf("procs-only options should hit: hit=%v err=%v", hit, err)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2, nil)
	ms := cacheMachines(t, 3)
	p0, _, _ := c.GetOrCompile(ms[0])
	c.GetOrCompile(ms[1])
	c.GetOrCompile(ms[0]) // refresh 0; LRU order now [0, 1]
	c.GetOrCompile(ms[2]) // evicts 1
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	if got := c.Get(p0.Fingerprint()); got != p0 {
		t.Fatal("recently used plan was evicted")
	}
	if _, hit, _ := c.GetOrCompile(ms[1]); hit {
		t.Fatal("evicted plan still hit")
	}
}

// TestPlanCacheInsertCanonicalizes: the plan a losing concurrent miss
// compiled collapses onto the cached instance.
func TestPlanCacheInsertCanonicalizes(t *testing.T) {
	c := NewPlanCache(8, nil)
	d := cacheMachines(t, 1)[0]
	cached, _, err := c.GetOrCompile(d)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := core.CompilePlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.insert(dup.Fingerprint(), dup); got != cached {
		t.Fatal("insert returned a non-canonical plan for an existing fingerprint")
	}
	if c.Len() != 1 {
		t.Fatalf("cache grew to %d entries for one fingerprint", c.Len())
	}
}

// TestEnginePlanReuse: both engine lanes share one plan per machine,
// re-registration across engines hits the shared cache, and an
// Unregister/Register round trip reuses the cached plan.
func TestEnginePlanReuse(t *testing.T) {
	met := new(telemetry.Metrics)
	cache := NewPlanCache(0, met)
	ms := cacheMachines(t, 4)

	for round := 0; round < 3; round++ {
		eng := New(WithProcs(2), WithPlanCache(cache))
		for i, d := range ms {
			m, err := eng.Register(fmt.Sprintf("m%d", i), d)
			if err != nil {
				t.Fatal(err)
			}
			if m.Plan() == nil || m.Fingerprint() == "" {
				t.Fatal("registered machine carries no plan")
			}
			if (round > 0) != m.PlanCached() {
				t.Fatalf("round %d: PlanCached=%v", round, m.PlanCached())
			}
		}
		eng.Close()
	}
	st := cache.Stats()
	if st.Misses != 4 || st.Hits != 8 {
		t.Fatalf("stats = %+v, want 4 misses / 8 hits", st)
	}

	// Unregister then re-register: the registry forgets the name but
	// the cache keeps the plan warm.
	eng := New(WithPlanCache(cache))
	defer eng.Close()
	m0, err := eng.Register("m0", ms[0])
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Unregister("m0") {
		t.Fatal("Unregister returned false for a registered machine")
	}
	if eng.Unregister("m0") {
		t.Fatal("Unregister returned true for an absent machine")
	}
	m, err := eng.Register("m0", ms[0])
	if err != nil {
		t.Fatal(err)
	}
	if !m.PlanCached() || m.Plan() != m0.Plan() {
		t.Fatal("re-registration did not reuse the cached plan")
	}
	if _, err := eng.Register("m0", ms[0]); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestPlanCacheConcurrentRegisterEvict is the race-pass target: a
// deliberately tiny cache thrashed by concurrent engine registrations,
// direct acceptor and transducer compiles, lookups and Unregisters. Run under -race it checks the
// locking; the final invariant checks the accounting.
func TestPlanCacheConcurrentRegisterEvict(t *testing.T) {
	met := new(telemetry.Metrics)
	cache := NewPlanCache(2, met) // force constant eviction
	ms := cacheMachines(t, 6)
	trs := make([]*fsm.Transducer, len(ms))
	for i, d := range ms {
		trs[i] = testTransducer(t, d)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := New(WithProcs(1), WithPlanCache(cache))
			defer eng.Close()
			for i := 0; i < 30; i++ {
				d := ms[(w+i)%len(ms)]
				name := fmt.Sprintf("w%d-m%d", w, i)
				switch i % 3 {
				case 0:
					if _, err := eng.Register(name, d); err != nil {
						t.Errorf("Register: %v", err)
						return
					}
					eng.Unregister(name)
				case 1:
					if _, _, err := cache.GetOrCompile(d); err != nil {
						t.Errorf("GetOrCompile: %v", err)
						return
					}
				case 2:
					p, _, err := cache.GetOrCompileTransducer(trs[(w+i)%len(trs)])
					if err != nil {
						t.Errorf("GetOrCompileTransducer: %v", err)
						return
					}
					cache.Get(p.Fingerprint())
				}
			}
		}(w)
	}
	wg.Wait()

	st := cache.Stats()
	if st.Entries > 2 {
		t.Fatalf("cache exceeded its bound: %d entries", st.Entries)
	}
	if st.Hits+st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("expected traffic and evictions under thrash, got %+v", st)
	}
	snap := met.Snapshot()
	if snap.PlanCacheHits != st.Hits || snap.PlanCacheMisses != st.Misses || snap.PlanCacheEvictions != st.Evictions {
		t.Fatalf("telemetry mirrors diverged: snap hits=%d misses=%d evictions=%d vs %+v",
			snap.PlanCacheHits, snap.PlanCacheMisses, snap.PlanCacheEvictions, st)
	}
}
