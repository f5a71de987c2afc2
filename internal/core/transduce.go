package core

// Transduction over the Figure 5 decomposition. A transducer plan
// (CompileTransducer) carries a λ table alongside δ; transduction is
// the schedule (schedule.go) with an output-emitting phase 3: phases 1–2
// resolve every chunk's true start state, whichever Source answered
// phase 1, and phase 3 re-runs each chunk scalar from that start
// emitting one output per input byte. Because the emission at position i is a
// pure function of (state before i, symbol at i) — Transducer.OutputAt
// — and the fold delivers exactly those states, the parallel replay is
// exact by construction: every lane (single-core, multicore,
// speculative-after-verification) produces the byte-identical output
// tape the sequential machine would.

import (
	"fmt"
	"sort"
	"sync"

	"dpfsm/internal/fsm"
)

// Span is a maximal run of equal non-OutputNone outputs on the output
// tape: input[Start:End] all emitted Out. Token spans, match spans,
// and field extents all take this shape; gaps (OutputNone) separate
// spans.
type Span struct {
	Start int        `json:"start"`
	End   int        `json:"end"`
	Out   fsm.Output `json:"out"`
}

// errNotTransducer is the shared failure for transduce calls on
// acceptor plans.
func (r *Runner) transducer() (*fsm.Transducer, error) {
	if r.out == nil {
		return nil, fmt.Errorf("core: plan %s is an acceptor (no output table); compile with CompileTransducer", r.fingerprint)
	}
	return r.out, nil
}

// TransduceOutputs runs the transducer over input from start and
// returns the full output tape — exactly one output symbol per input
// byte — together with the final state. Multicore runners fill
// disjoint per-chunk slices of the tape concurrently; the result is
// identical to a sequential replay regardless of chunking.
func (r *Runner) TransduceOutputs(input []byte, start fsm.State) ([]fsm.Output, fsm.State, error) {
	t, err := r.transducer()
	if err != nil {
		return nil, 0, err
	}
	tape := make([]fsm.Output, len(input))
	final := r.RunChunked(input, start, func(off int, chunk []byte, st fsm.State) fsm.State {
		q := st
		dst := tape[off : off+len(chunk)]
		for i, b := range chunk {
			dst[i] = t.OutputAt(q, b)
			q = r.d.Next(q, b)
		}
		return q
	})
	return tape, final, nil
}

// TransduceSpans runs the transducer over input from start and returns
// the output tape folded into maximal spans of equal non-OutputNone
// outputs, in input order, plus the final state. Chunk-local spans are
// collected concurrently and stitched at chunk boundaries: a span
// ending exactly where the next begins with the same output is one
// span that the chunking split, so the halves are glued back. The
// result is therefore independent of chunk count — the sequential
// tape's spans, exactly.
func (r *Runner) TransduceSpans(input []byte, start fsm.State) ([]Span, fsm.State, error) {
	t, err := r.transducer()
	if err != nil {
		return nil, 0, err
	}
	scan := NewSpanScan(t)
	final := r.RunChunked(input, start, scan.Chunk)
	return scan.Spans(), final, nil
}

// SpanScan is the span-scan phase-3 consumer: Chunk folds each replayed
// block's outputs into maximal spans, collected concurrently; Spans
// stitches them into the sequential span list once the run is over.
type SpanScan struct {
	t     *fsm.Transducer
	mu    sync.Mutex
	parts [][]Span
}

// NewSpanScan returns an empty span scan over t.
func NewSpanScan(t *fsm.Transducer) *SpanScan { return &SpanScan{t: t} }

// Chunk is the ChunkFunc: it scans chunk from st and returns the state
// after it.
func (s *SpanScan) Chunk(off int, chunk []byte, st fsm.State) fsm.State {
	spans, q := scanSpans(s.t, off, chunk, st)
	if len(spans) > 0 {
		s.mu.Lock()
		s.parts = append(s.parts, spans)
		s.mu.Unlock()
	}
	return q
}

// Spans returns the stitched span list.
func (s *SpanScan) Spans() []Span { return stitchSpans(s.parts) }

// scanSpans is the scalar per-chunk replay: it advances the machine
// over chunk from st, folding the emitted outputs into maximal runs on
// the fly (no intermediate tape), and returns the chunk-local spans in
// global coordinates plus the state after the chunk.
func scanSpans(t *fsm.Transducer, off int, chunk []byte, st fsm.State) ([]Span, fsm.State) {
	var spans []Span
	d := t.DFA()
	q := st
	cur := fsm.OutputNone
	curStart := 0
	for i, b := range chunk {
		out := t.OutputAt(q, b)
		q = d.Next(q, b)
		if out == cur {
			continue
		}
		if cur != fsm.OutputNone {
			spans = append(spans, Span{Start: off + curStart, End: off + i, Out: cur})
		}
		cur, curStart = out, i
	}
	if cur != fsm.OutputNone {
		spans = append(spans, Span{Start: off + curStart, End: off + len(chunk), Out: cur})
	}
	return spans, q
}

// stitchSpans orders the concurrently collected chunk-local span lists
// and glues runs that a chunk boundary split: the previous span ends
// exactly where the next starts and both carry the same output.
// Within a part spans are already ordered and maximal, so ordering
// parts by their first span's start is enough.
func stitchSpans(parts [][]Span) []Span {
	if len(parts) == 0 {
		return nil
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0].Start < parts[j][0].Start })
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]Span, 0, n)
	for _, p := range parts {
		for _, s := range p {
			if last := len(out) - 1; last >= 0 && out[last].End == s.Start && out[last].Out == s.Out {
				out[last].End = s.End
				continue
			}
			out = append(out, s)
		}
	}
	return out
}
