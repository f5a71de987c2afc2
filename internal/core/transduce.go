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
//
// The replay reads the plan's fused step table (fuseStep), one load per
// byte for both δ and λ. Spans leave through DriveSpans' ordered sink:
// streamed block by block on the one-chunk schedule, held per block and
// released in order on a multi-chunk one.

import (
	"context"
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

// SpanSink receives spans in input order. A batch is valid only for the
// duration of the call (DriveSpans reuses its buffer): a sink that keeps
// spans copies them. A non-nil error stops the run.
type SpanSink func([]Span) error

// checkTransducer is the shared failure for transduce calls on acceptor
// plans.
func (r *Runner) checkTransducer() error {
	if r.out == nil {
		return fmt.Errorf("core: plan %s is an acceptor (no output table); compile with CompileTransducer", r.fingerprint)
	}
	return nil
}

// TransduceOutputs runs the transducer over input from start and
// returns the full output tape — exactly one output symbol per input
// byte — together with the final state. Multicore runners fill
// disjoint per-chunk slices of the tape concurrently; the result is
// identical to a sequential replay regardless of chunking.
func (r *Runner) TransduceOutputs(input []byte, start fsm.State) ([]fsm.Output, fsm.State, error) {
	if err := r.checkTransducer(); err != nil {
		return nil, 0, err
	}
	step := r.step
	tape := make([]fsm.Output, len(input))
	final := r.RunChunked(input, start, func(off int, chunk []byte, st fsm.State) fsm.State {
		q := uint32(st)
		dst := tape[off : off+len(chunk)]
		for i, b := range chunk {
			e := step[q<<8|uint32(b)]
			dst[i], q = fsm.Output(e), e>>16
		}
		return fsm.State(q)
	})
	return tape, final, nil
}

// TransduceSpans runs the transducer over input from start and returns
// the output tape folded into maximal spans of equal non-OutputNone
// outputs, in input order, plus the final state: DriveSpans with a sink
// that collects. The result is independent of chunk count — the
// sequential tape's spans, exactly.
func (r *Runner) TransduceSpans(input []byte, start fsm.State) ([]Span, fsm.State, error) {
	var spans []Span
	final, _, err := r.DriveSpans(context.Background(), input, start, nil, nil, func(batch []Span) error {
		spans = append(spans, batch...)
		return nil
	})
	return spans, final, err
}

// DriveSpans is Drive with the span scan as phase 3: the output tape
// folded into maximal runs of equal non-OutputNone outputs, handed to
// emit in input order. A span that a block or chunk boundary split is
// glued back before it is emitted, so the concatenated batches are the
// sequential tape's spans, exactly. emit runs only on the caller's
// goroutine:
//
//   - the one-chunk schedule streams: each replayed block's closed
//     spans reach emit before the next block runs (ctxCheckBytes blocks
//     under a cancelable ctx, the whole input under a plain one);
//   - a multi-chunk schedule replays its chunks concurrently, so their
//     spans are held per block and emitted in order once it is over.
//
// release, when non-nil, is called once the run no longer fans out and
// before the first emit — before the run on one chunk, after it on
// several — so a caller can free a fan-out slot before a slow sink can
// hold it; it is not called when DriveSpans fails before the run
// starts. An error from emit abandons the rest of the run and is
// returned, as are ctx's and an acceptor plan's; spans emitted before
// it stay emitted. DriveStats.Spans and SpanBytes count what emit got.
func (r *Runner) DriveSpans(ctx context.Context, input []byte, start fsm.State, src Source, release func(), emit SpanSink) (fsm.State, DriveStats, error) {
	if err := r.checkTransducer(); err != nil {
		return start, DriveStats{}, err
	}
	ctx, block, chunks, err := r.prepare(ctx, input, src)
	if err != nil {
		return start, DriveStats{}, err
	}
	return r.driveSpans(ctx, block, input, chunks, start, src, release, emit)
}

// driveSpans is DriveSpans past the schedule's preamble.
func (r *Runner) driveSpans(ctx context.Context, block int, input []byte, chunks [][2]int, start fsm.State, src Source, release func(), emit SpanSink) (fsm.State, DriveStats, error) {
	s := &spanScan{step: r.step, emit: emit, end: len(input)}
	var final fsm.State
	ds := DriveStats{Symbols: int64(len(input))}
	var err error
	if chunks == nil {
		buf := getSpanBuf()
		s.buf = *buf
		defer func() { putSpanBuf(buf, s.buf) }()
		if release != nil {
			release()
		}
		final, err = r.driveOne(ctx, block, input, start, src, s.stream, &ds)
		if s.err != nil {
			err = s.err
		}
	} else {
		final, err = r.driveChunks(ctx, block, input, chunks, start, src, s.collect, &ds)
		if release != nil {
			release()
		}
		if err == nil {
			err = s.flush()
		}
	}
	ds.Spans, ds.SpanBytes = s.spans, s.bytes
	return final, ds, err
}

// spanScan is DriveSpans' phase 3 and its ordered emitter.
type spanScan struct {
	step []uint32
	emit SpanSink
	end  int // the input's length
	// open is the span still open at the emitted frontier (Out ==
	// OutputNone: none); buf is the reused batch; err is the sink's
	// first failure.
	open  Span
	buf   []Span
	err   error
	spans int
	bytes int64

	mu    sync.Mutex
	parts []spanPart // collect's per-block spans, in completion order
}

// spanPart is one block's spans in global coordinates after a reserved
// slot (spans[0]), its last one possibly open, in the pooled buffer buf
// that flush returns once it has emitted them.
type spanPart struct {
	off   int
	spans []Span
	buf   *[]Span
}

// stream is the one-chunk ChunkFunc: blocks arrive in input order on the
// caller's goroutine, the open span carries across them, and each
// block's closed spans — with the last block, the open one too — are
// emitted at once.
func (s *spanScan) stream(off int, block []byte, st fsm.State) fsm.State {
	if s.err != nil {
		return st // the sink failed: the run is abandoned
	}
	var q fsm.State
	s.buf, s.open, q = scanSpans(s.step, s.buf[:0], s.open, off, block, st)
	if off+len(block) == s.end && s.open.Out != fsm.OutputNone {
		s.buf = append(s.buf, s.open)
	}
	_ = s.send(s.buf) // a failure stays in s.err and stops the run
	return q
}

// collect is the multi-chunk ChunkFunc, safe for concurrent calls: it
// keeps each block's spans for flush in a pooled buffer, behind a
// reserved first slot.
func (s *spanScan) collect(off int, block []byte, st fsm.State) fsm.State {
	buf := getSpanBuf()
	spans, open, q := scanSpans(s.step, append(*buf, Span{}), Span{}, off, block, st)
	if open.Out != fsm.OutputNone {
		spans = append(spans, open)
	}
	if len(spans) <= 1 {
		putSpanBuf(buf, spans)
		return q
	}
	s.mu.Lock()
	s.parts = append(s.parts, spanPart{off: off, spans: spans, buf: buf})
	s.mu.Unlock()
	return q
}

// spanBufs recycles scan buffers across blocks and runs, so a replay
// does not regrow its span buffer span by span each time. A buffer is
// free again once its batch has been emitted: sinks do not keep
// batches.
var spanBufs sync.Pool

// getSpanBuf returns an empty pooled span buffer.
func getSpanBuf() *[]Span {
	if b, ok := spanBufs.Get().(*[]Span); ok {
		return b
	}
	return new([]Span)
}

// putSpanBuf returns b to the pool holding used's storage.
func putSpanBuf(b *[]Span, used []Span) {
	*b = used[:0]
	spanBufs.Put(b)
}

// flush emits the collected parts in input order, one batch per part,
// without copying. Within a part spans are ordered and maximal; across
// parts, the span open at the frontier either continues into the
// part's first span (same output, touching: one span the split cut,
// so they are glued) or is emitted ahead of it from the reserved slot.
// Each part's last span stays open for the next, except the last
// part's, which nothing follows.
func (s *spanScan) flush() error {
	sort.Slice(s.parts, func(i, j int) bool { return s.parts[i].off < s.parts[j].off })
	for i := range s.parts {
		p := s.parts[i].spans
		first := 1
		if s.open.End == p[1].Start && s.open.Out == p[1].Out {
			p[1].Start = s.open.Start
		} else if s.open.Out != fsm.OutputNone {
			p[0], first = s.open, 0
		}
		batch := p[first:]
		if i < len(s.parts)-1 {
			s.open, batch = p[len(p)-1], batch[:len(batch)-1]
		}
		if err := s.send(batch); err != nil {
			return err
		}
		putSpanBuf(s.parts[i].buf, p)
	}
	return nil
}

// send hands one batch to the sink and accounts it.
func (s *spanScan) send(batch []Span) error {
	if len(batch) == 0 {
		return nil
	}
	s.spans += len(batch)
	for _, sp := range batch {
		s.bytes += int64(sp.End - sp.Start)
	}
	if err := s.emit(batch); err != nil {
		s.err = err
	}
	return s.err
}

// scanSpans is the scalar replay: it advances the machine over block,
// at global offset off, from st through the fused step table, folding
// the outputs into maximal runs on the fly (no intermediate tape). open
// is the run open where the block starts (Out == OutputNone: none);
// runs that close inside the block are appended to dst, and the run
// open at its end is returned with the state after it.
func scanSpans(step []uint32, dst []Span, open Span, off int, block []byte, st fsm.State) ([]Span, Span, fsm.State) {
	q := uint32(st)
	cur, curStart := open.Out, open.Start
	for i, b := range block {
		e := step[q<<8|uint32(b)]
		q = e >> 16
		if out := fsm.Output(e); out != cur {
			if cur != fsm.OutputNone {
				dst = append(dst, Span{Start: curStart, End: off + i, Out: cur})
			}
			cur, curStart = out, off+i
		}
	}
	return dst, Span{Start: curStart, End: off + len(block), Out: cur}, fsm.State(q)
}
