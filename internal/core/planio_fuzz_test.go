package core

import (
	"encoding/binary"
	"hash/crc64"
	"math/rand"
	"slices"
	"testing"

	"dpfsm/internal/fsm"
)

// FuzzUnmarshalPlan mutates valid range, convergence and transducer
// plan blobs. The fuzzer owns a blob's body and the target seals it
// with a valid checksum, so mutations reach core's semantic checks
// instead of dying at the CRC. Every blob must be refused, or decode
// into a plan that runs exactly as its own machine on a probe input.
func FuzzUnmarshalPlan(f *testing.F) {
	rng := rand.New(rand.NewSource(70))
	d := fsm.RandomConverging(rng, 24, 5, 4, 0.3)
	seeds := []func() (*Plan, error){
		func() (*Plan, error) { return CompilePlan(d, WithStrategy(RangeCoalesced)) },
		func() (*Plan, error) { return CompilePlan(d, WithStrategy(Convergence)) },
		func() (*Plan, error) {
			return CompileTransducer(randomTransducer(f, d, fsm.KindMealy, 3), WithStrategy(RangeConvergence))
		},
	}
	for _, compile := range seeds {
		p, err := compile()
		if err != nil {
			f.Fatal(err)
		}
		data, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-8])
	}
	table := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint64(slices.Clip(body), crc64.Checksum(body, table))
		p, err := UnmarshalPlan(data)
		if err != nil {
			return
		}
		r, err := NewFromPlan(p)
		if err != nil {
			t.Fatalf("decoded %v plan does not run: %v", p.Strategy(), err)
		}
		d := p.Machine()
		// A wrong table entry shows in the composition vector of the
		// two symbols that read it, where a long input may have
		// converged past it: probe every pair of symbols (within a work
		// budget), then one longer random input.
		k, n := d.NumSymbols(), d.NumStates()
		probes := [][]byte{d.RandomInput(rand.New(rand.NewSource(1)), 300)}
		for j := range min(k*k, max(1<<20/n, 1)) {
			probes = append(probes, []byte{byte(j % k), byte(j / k)})
		}
		for _, in := range probes {
			for q, got := range r.CompositionVector(in) {
				if want := d.Run(in, fsm.State(q)); got != want {
					t.Fatalf("decoded %v plan runs state %d over %v to %d, machine to %d", p.Strategy(), q, in, got, want)
				}
			}
		}
	})
}
