package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dpfsm/internal/fsm"
	"dpfsm/internal/telemetry"
)

func registryMachines(t *testing.T, n int) []*fsm.DFA {
	t.Helper()
	rng := rand.New(rand.NewSource(70))
	ms := make([]*fsm.DFA, n)
	for i := range ms {
		ms[i] = fsm.RandomConverging(rng, 24+i, 4, 5, 0.3)
	}
	return ms
}

// TestEnginePlanReuse: a machine's lanes share one plan, PlanRunner
// resolves a registered fingerprint to the machine's own single-core
// runner, and it stops resolving once the machine is unregistered.
// Every registration compiles, and each compile is timed.
func TestEnginePlanReuse(t *testing.T) {
	met := new(telemetry.Metrics)
	eng := New(WithProcs(2), WithTelemetry(met))
	defer eng.Close()
	ms := registryMachines(t, 4)
	var regs []*Machine
	for i, d := range ms {
		m, err := eng.Register(fmt.Sprintf("m%d", i), d)
		if err != nil {
			t.Fatal(err)
		}
		if m.Plan() == nil || m.Fingerprint() == "" {
			t.Fatal("registered machine carries no plan")
		}
		if m.single.PlanRef() != m.Plan() || m.multi == nil || m.multi.PlanRef() != m.Plan() {
			t.Fatalf("m%d: lanes do not share the machine's plan", i)
		}
		if got := eng.PlanRunner(m.Fingerprint()); got != m.Runner() {
			t.Fatalf("m%d: PlanRunner returned %p, want the machine's runner %p", i, got, m.Runner())
		}
		regs = append(regs, m)
	}
	if eng.PlanRunner("no-such-fingerprint") != nil {
		t.Fatal("PlanRunner resolved an unknown fingerprint")
	}

	if !eng.Unregister("m0") {
		t.Fatal("Unregister returned false for a registered machine")
	}
	if eng.Unregister("m0") {
		t.Fatal("Unregister returned true for an absent machine")
	}
	if eng.PlanRunner(regs[0].Fingerprint()) != nil {
		t.Fatal("PlanRunner still resolves an unregistered machine's plan")
	}
	// Re-registering the same machine compiles a fresh plan under the
	// same fingerprint.
	m, err := eng.Register("m0", ms[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != regs[0].Fingerprint() || m.Plan() == regs[0].Plan() {
		t.Fatal("re-registration should compile a new plan with the same fingerprint")
	}
	if eng.PlanRunner(m.Fingerprint()) != m.Runner() {
		t.Fatal("PlanRunner does not resolve the re-registered machine")
	}
	if _, err := eng.Register("m0", ms[0]); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if got := met.Snapshot().PlanCompile.Count; got != int64(len(ms)+1) {
		t.Fatalf("plan compile timer count = %d, want %d", got, len(ms)+1)
	}
}

// TestPlanCacheConcurrentRegisterEvict is the race-pass target for the
// registry as the plan store: concurrent Register/RegisterTransducer,
// Unregister, Run and PlanRunner on one engine. Under -race it checks
// the locking; the runs check that a machine answers exactly while the
// registry churns around it.
func TestPlanCacheConcurrentRegisterEvict(t *testing.T) {
	eng := New(WithProcs(1))
	defer eng.Close()
	ms := registryMachines(t, 6)
	trs := make([]*fsm.Transducer, len(ms))
	for i, d := range ms {
		trs[i] = testTransducer(t, d)
	}
	rng := rand.New(rand.NewSource(71))
	input := ms[0].RandomInput(rng, 512)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (w + i) % len(ms)
				d := ms[k]
				name := fmt.Sprintf("w%d-m%d", w, i)
				var m *Machine
				var err error
				if i%2 == 0 {
					m, err = eng.Register(name, d)
				} else {
					m, err = eng.RegisterTransducer(name, trs[k])
				}
				if err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				if eng.PlanRunner(m.Fingerprint()) == nil {
					t.Errorf("%s: PlanRunner misses a registered plan", name)
					return
				}
				in := input[:i*16]
				res := eng.Run(context.Background(), Job{Machine: name, Input: in})
				if res.Err != nil || res.Final != d.Run(in, d.Start()) {
					t.Errorf("%s: run final %d err %v, want %d", name, res.Final, res.Err, d.Run(in, d.Start()))
					return
				}
				eng.Unregister(name)
			}
		}(w)
	}
	wg.Wait()
	if names := eng.Machines(); len(names) != 0 {
		t.Fatalf("machines left registered: %v", names)
	}
	for _, d := range ms {
		m, err := eng.Register("probe", d)
		if err != nil {
			t.Fatal(err)
		}
		eng.Unregister("probe")
		if eng.PlanRunner(m.Fingerprint()) != nil {
			t.Fatal("PlanRunner resolves a plan after every machine with it left")
		}
	}
}
