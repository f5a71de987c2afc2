package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dpfsm/internal/fsm"
)

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	var b [64]byte
	n := runtime.Stack(b[:], false)
	return string(bytes.Fields(b[:n])[1])
}

// missSource answers phase 1 with width-one entries: the chunk's true
// start on even chunks, a wrong state on odd ones, so every odd chunk
// misses and phase 2 replays it.
type missSource struct {
	d      *fsm.DFA
	size   int
	starts []fsm.State
}

func newMissSource(d *fsm.DFA, input []byte, start fsm.State, size int) missSource {
	s := missSource{d: d, size: size}
	q := start
	for lo := 0; lo < len(input); lo += size {
		s.starts = append(s.starts, q)
		q = d.Run(input[lo:min(lo+size, len(input))], q)
	}
	return s
}

func (s missSource) ChunkBytes() int { return s.size }

func (s missSource) Compose(ctx context.Context, ch Chunk) Comp {
	from := s.starts[ch.Index]
	if ch.Index%2 == 1 {
		from = fsm.State((int(from) + 1) % s.d.NumStates())
	}
	return Comp{From: from, To: ch.Walk(ctx, s.d, from)}
}

// checkSpanOrder reports the first ordering or maximality violation:
// starts strictly increase, spans do not overlap, and no two touching
// spans share an output.
func checkSpanOrder(t *testing.T, spans []Span) {
	t.Helper()
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if b.Start <= a.Start || b.Start < a.End {
			t.Fatalf("span %d %+v does not follow %+v", i, b, a)
		}
		if b.Start == a.End && b.Out == a.Out {
			t.Fatalf("spans %d and %d touch with output %d: not maximal", i-1, i, a.Out)
		}
	}
}

// TestDriveSpansEmitsTheSequentialSpans drives every lane shape — the
// one-chunk stream, the multicore fan-out, and a width-one source with
// forced misses — at whole-input, 64 KiB and 1-byte blocks: the
// concatenated batches must be the scalar oracle's spans and
// TransduceSpans', in order and maximal, emitted on the caller's
// goroutine only after release.
func TestDriveSpansEmitsTheSequentialSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	ms := machines(t, rng)
	for mi, d := range []*fsm.DFA{ms[2], ms[6], ms[8], ms[9]} {
		for _, kind := range []fsm.Kind{fsm.KindMoore, fsm.KindMealy} {
			tr := randomTransducer(t, d, kind, 3)
			single := newTransducerRunner(t, tr, Base, WithProcs(1))
			multi := newTransducerRunner(t, tr, Base, WithProcs(4), WithMinChunk(512))
			for _, block := range []int{0, ctxCheckBytes, 1} {
				n := 150 << 10
				if block == 1 {
					n = 4 << 10
				}
				if block == 0 {
					block = n // whole input
				}
				in := d.RandomInput(rng, n)
				st := fsm.State(rng.Intn(d.NumStates()))
				wantTape, wantFinal := oracleTape(tr, in, st)
				want := oracleSpans(wantTape)
				lanes := []struct {
					name string
					r    *Runner
					src  Source
				}{
					{"single", single, nil},
					{"multicore", multi, nil},
					{"speculative-miss", multi, newMissSource(d, in, st, n/5)},
				}
				for _, lane := range lanes {
					caller := goid()
					released := false
					calls := 0
					var got []Span
					final, ds, err := lane.r.driveSpans(context.Background(), block, in, lane.r.split(lane.src, n), st, lane.src,
						func() { released = true },
						func(batch []Span) error {
							if id := goid(); id != caller {
								t.Errorf("emit on goroutine %s, caller is %s", id, caller)
							}
							if !released {
								t.Error("emit before release")
							}
							if len(batch) == 0 {
								t.Error("empty batch")
							}
							calls++
							got = append(got, batch...)
							return nil
						})
					what := func() string { return fmt.Sprintf("m%d %v %s", mi, kind, lane.name) }
					if err != nil {
						t.Fatalf("%s block %d: %v", what(), block, err)
					}
					if final != wantFinal {
						t.Fatalf("%s block %d: final %d want %d", what(), block, final, wantFinal)
					}
					if len(got) != len(want) {
						t.Fatalf("%s block %d: %d spans, oracle %d", what(), block, len(got), len(want))
					}
					var covered int64
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s block %d: span %d = %+v, oracle %+v", what(), block, i, got[i], want[i])
						}
						covered += int64(got[i].End - got[i].Start)
					}
					checkSpanOrder(t, got)
					if ds.Spans != len(want) || ds.SpanBytes != covered {
						t.Errorf("%s block %d: stats %+v, emitted %d spans over %d bytes", what(), block, ds, len(want), covered)
					}
					if lane.src != nil && d.NumStates() > 1 && ds.Misses == 0 {
						t.Errorf("%s block %d: no forced miss (stats %+v)", what(), block, ds)
					}
					if lane.src == nil && block == n {
						viaList, f2, err := lane.r.TransduceSpans(in, st)
						if err != nil || f2 != wantFinal || len(viaList) != len(got) {
							t.Fatalf("%s: TransduceSpans gave %d spans final %d err %v", what(), len(viaList), f2, err)
						}
						for i := range viaList {
							if viaList[i] != got[i] {
								t.Fatalf("%s: TransduceSpans span %d = %+v, emitted %+v", what(), i, viaList[i], got[i])
							}
						}
					}
					if lane.name == "single" && block < n && len(want) > 1 && calls < 2 {
						t.Errorf("%s block %d: %d emit calls, want one per block", what(), block, calls)
					}
				}
			}
		}
	}
}

// TestDriveSpansStreamsDuringTheRun: on the one-chunk schedule the
// first block's spans reach emit before the rest of the input is
// replayed — canceling from inside that first emit stops the run with
// nothing past the first block emitted.
func TestDriveSpansStreamsDuringTheRun(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	d := fsm.RandomConverging(rng, 64, 8, 5, 0.3)
	tr := randomTransducer(t, d, fsm.KindMealy, 3)
	r := newTransducerRunner(t, tr, Base, WithProcs(1))
	in := d.RandomInput(rng, 4*ctxCheckBytes)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []Span
	_, _, err := r.DriveSpans(ctx, in, d.Start(), nil, nil, func(batch []Span) error {
		got = append(got, batch...)
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if len(got) == 0 {
		t.Fatal("nothing emitted before the cancel")
	}
	for _, sp := range got {
		if sp.End > ctxCheckBytes {
			t.Fatalf("span %+v emitted past the first block: the run was not streamed", sp)
		}
	}
}

// TestDriveSpansEmitErrorStops: the sink's error abandons the run and
// comes back, on the streaming and the multi-chunk schedule alike, and
// the sink is not called again.
func TestDriveSpansEmitErrorStops(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	d := fsm.RandomConverging(rng, 64, 8, 5, 0.3)
	tr := randomTransducer(t, d, fsm.KindMoore, 3)
	errSink := errors.New("sink failed")
	in := d.RandomInput(rng, 3*ctxCheckBytes)
	for _, procs := range []int{1, 4} {
		r := newTransducerRunner(t, tr, Base, WithProcs(procs), WithMinChunk(4<<10))
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, ds, err := r.DriveSpans(ctx, in, d.Start(), nil, nil, func([]Span) error {
			calls++
			return errSink
		})
		cancel()
		if !errors.Is(err, errSink) {
			t.Errorf("procs=%d: err %v, want the sink's", procs, err)
		}
		if calls != 1 {
			t.Errorf("procs=%d: sink called %d times after failing", procs, calls)
		}
		if ds.Spans == 0 {
			t.Errorf("procs=%d: the failed batch was not counted: %+v", procs, ds)
		}
	}
}

// TestFusedStepMatchesTransducer is the fused table's property: for
// every state and byte of random Moore and Mealy transducers,
// step[q<<8|b] is δ(q, b)<<16 | OutputAt(q, b) — and bytes outside Σ
// fault — on compiled plans and on plans decoded from the wire.
func TestFusedStepMatchesTransducer(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for trial := 0; trial < 40; trial++ {
		d := fsm.Random(rng, 1+rng.Intn(300), 1+rng.Intn(256), 0.5)
		kind := fsm.KindMoore
		if trial%2 == 1 {
			kind = fsm.KindMealy
		}
		gamma := []int{2, 300, fsm.MaxOutputs}[trial%3]
		var tr *fsm.Transducer
		var err error
		if kind == fsm.KindMoore {
			tr, err = fsm.NewMoore(d, gamma)
			for q := 0; q < d.NumStates() && err == nil; q++ {
				tr.SetMooreOutput(fsm.State(q), fsm.Output(rng.Intn(gamma)))
			}
		} else {
			tr, err = fsm.NewMealy(d, gamma)
			for a := 0; a < d.NumSymbols() && err == nil; a++ {
				for q := 0; q < d.NumStates(); q++ {
					tr.SetMealyOutput(fsm.State(q), byte(a), fsm.Output(rng.Intn(gamma)))
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompileTransducer(tr)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := UnmarshalPlan(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*Plan{p, decoded} {
			if len(plan.step) != d.NumStates()<<8 {
				t.Fatalf("trial %d: step table has %d entries, want %d", trial, len(plan.step), d.NumStates()<<8)
			}
			for q := 0; q < d.NumStates(); q++ {
				for b := 0; b < 256; b++ {
					want := uint32(0xFFFF) << 16
					if b < d.NumSymbols() {
						want = uint32(d.Next(fsm.State(q), byte(b)))<<16 | uint32(tr.OutputAt(fsm.State(q), byte(b)))
					}
					if got := plan.step[q<<8|b]; got != want {
						t.Fatalf("trial %d (%v, %d states, %d symbols): step[%d<<8|%d] = %#x, want %#x",
							trial, kind, d.NumStates(), d.NumSymbols(), q, b, got, want)
					}
				}
			}
		}
	}
}
