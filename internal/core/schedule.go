package core

import (
	"context"
	"sync"
	"time"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/trace"
)

// The Figure 5 schedule. Every way this module executes a machine is
// one schedule with two parts plugged in:
//
//   - a phase-1 Source answers, per chunk, either the chunk's full
//     composition vector or a width-one entry (guess → end): the
//     runner's own enumeration (a nil Source), a speculative guess
//     (internal/speculative, the §7 baseline), or a cluster peer's
//     vector (internal/cluster);
//   - a phase-3 ChunkFunc replays chunks from their resolved start
//     states: none for final-state queries (phase 3 skipped, §3.4), φ
//     (Run), span scan and output tape (transduction), first accept,
//     or a caller's own (RunChunked).
//
// Phase 2 walks the chunks left to right. A width-one entry whose guess
// misses the carried state is replayed right there, from the carried
// state, through the ChunkFunc (or a sequential walk when there is
// none) — the replay is the authoritative one, so there is no third
// pass. Chunk 0's start is known up front: with a ChunkFunc its phase 3
// runs during the other chunks' phase 1 (no enumeration at all);
// without one the Source may answer it with a width-one entry that
// cannot miss. The single-core case is the one-chunk schedule, run on
// the caller's goroutine.
//
// Every block of work — phase-1 composition and phase-3 replay alike —
// polls ctx every ctxCheckBytes; a context that can never be canceled
// and carries no trace (ctxIsPlain) gets whole-chunk blocks.

// Comp is one chunk's phase-1 answer: its composition vector (Vec[q] is
// the state the chunk ends in when started in q) or, when Vec is nil, a
// width-one entry — started in From, the chunk ends in To.
type Comp struct {
	Vec      []fsm.State
	From, To fsm.State
}

// step advances the carried state st across the chunk, reporting false
// when a width-one entry's guess does not match st.
func (c Comp) step(st fsm.State) (fsm.State, bool) {
	if c.Vec != nil {
		return c.Vec[st], true
	}
	return c.To, c.From == st
}

// Chunk is one phase-1 work item handed to a Source.
type Chunk struct {
	Index int
	Input []byte
	// Known reports that Start is the chunk's true start state (chunk 0
	// of a run without phase 3): a width-one answer from Start cannot
	// miss.
	Start fsm.State
	Known bool

	block int
}

// Walk runs the chunk sequentially from st, polling ctx between blocks.
// After cancellation the returned state is meaningless (the schedule
// discards it).
func (ch Chunk) Walk(ctx context.Context, d *fsm.DFA, st fsm.State) fsm.State {
	return walk(ctx, ch.block, d, ch.Input, st)
}

// Source is a pluggable phase 1. Compose is called concurrently, once
// per chunk, and must poll ctx (Chunk.Walk does); an answer produced
// after cancellation is discarded.
type Source interface {
	// ChunkBytes fixes the chunk size; 0 keeps the runner's split
	// (procs chunks, none below the minimum chunk size).
	ChunkBytes() int
	Compose(ctx context.Context, ch Chunk) Comp
}

// DriveStats is the record of one driven run. A canceled run returns
// what it accounted before it stopped.
type DriveStats struct {
	Chunks int
	// Misses counts width-one entries whose guess missed and were
	// replayed in phase 2; ReplayBytes is their input.
	Misses      int
	ReplayBytes int
	// Spans counts the spans DriveSpans emitted and SpanBytes the input
	// bytes they cover.
	Spans     int
	SpanBytes int64
	// Symbols is the input length. The rest is the enumerative
	// accounting of phase 1 (of the one chunk, for a final-state query)
	// summed over chunks, exactly what the runner's sink received: zero
	// unless the runner has a sink or the run is traced. A caller's
	// phase 3 accounts into the sink only.
	Symbols, Gathers, Shuffles, FactorCalls, FactorWins int64
	// ActiveFinalSum sums the final active width of the
	// ActiveFinalChunks chunks that ran an enumerative pass.
	ActiveFinalSum    int64
	ActiveFinalChunks int
}

// Drive runs input from start through the Figure 5 schedule with src as
// phase 1 (nil: the runner's strategy) and f as phase 3 (nil: a
// final-state query). f is called concurrently on distinct chunks, each
// chunk's blocks in order, with globally correct offsets. On
// cancellation Drive returns ctx.Err(); f's side effects are then
// partial and the state unspecified. A trace on ctx receives the phase
// decomposition as spans.
func (r *Runner) Drive(ctx context.Context, input []byte, start fsm.State, src Source, f ChunkFunc) (fsm.State, DriveStats, error) {
	ctx, block, chunks, err := r.prepare(ctx, input, src)
	if err != nil {
		return start, DriveStats{}, err
	}
	ds := DriveStats{Symbols: int64(len(input))}
	var st fsm.State
	if chunks == nil {
		st, err = r.driveOne(ctx, block, input, start, src, f, &ds)
	} else {
		st, err = r.driveChunks(ctx, block, input, chunks, start, src, f, &ds)
	}
	return st, ds, err
}

// prepare is the schedule's preamble: the defaulted ctx, the block size
// polled under it, and the chunk tiling (nil: the one-chunk schedule).
func (r *Runner) prepare(ctx context.Context, input []byte, src Source) (context.Context, int, [][2]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return ctx, 0, nil, err
	}
	r.noteEntry(len(input))
	block := ctxCheckBytes
	if ctxIsPlain(ctx) {
		block = max(len(input), 1)
	}
	return ctx, block, r.split(src, len(input)), nil
}

// driveChunks is the schedule over two or more chunks. (Kept apart from
// Drive so the one-chunk path never pays for the goroutine closures'
// captured variables.)
func (r *Runner) driveChunks(ctx context.Context, block int, input []byte, chunks [][2]int, start fsm.State, src Source, f ChunkFunc, ds *DriveStats) (fsm.State, error) {
	r.noteMulticore(chunks)
	tel := r.tel
	name := SpanMulticore
	if f != nil {
		name = SpanChunked
	}
	_, sp := trace.Start(ctx, name)
	if sp != nil {
		sp.SetAttrs(
			trace.Str(AttrStrategy, r.strategy.String()),
			trace.Int(AttrBytes, int64(len(input))),
			trace.Int(AttrChunks, int64(len(chunks))),
		)
		defer sp.End()
	}

	ds.Chunks = len(chunks)
	comps := r.phase1(ctx, sp, block, input, chunks, start, src, f, f == nil, ds)
	if err := ctx.Err(); err != nil {
		return start, err
	}

	p2 := childSpan(sp, SpanPhase2)
	var t2 time.Time
	if tel != nil {
		t2 = time.Now()
	}
	var starts []fsm.State
	var replayed []bool
	if f != nil {
		starts = make([]fsm.State, len(chunks))
		replayed = make([]bool, len(chunks))
		replayed[0] = true
	}
	st := r.phase2(ctx, sp, block, input, chunks, comps, start, f, starts, replayed, ds)
	p2.End()
	if tel != nil {
		tel.Phase2Time.ObserveSince(t2)
	}
	if f == nil {
		if tel != nil {
			tel.Phase3Skips.Inc()
		}
		return st, ctx.Err()
	}

	var wg sync.WaitGroup
	for p, ch := range chunks {
		if replayed[p] {
			continue
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			if tel != nil {
				defer tel.Phase3Time.Start().Stop()
			}
			p3 := chunkSpan(sp, SpanPhase3Chunk, p, lo, hi)
			consume(ctx, block, lo, input[lo:hi], starts[p], f)
			p3.End()
		}(p, ch[0], ch[1])
	}
	wg.Wait()
	return st, ctx.Err()
}

// driveOne is the one-chunk schedule on the caller's goroutine: the
// single-core lane, and every input too small to split.
func (r *Runner) driveOne(ctx context.Context, block int, input []byte, start fsm.State, src Source, f ChunkFunc, ds *DriveStats) (fsm.State, error) {
	ds.Chunks = 1
	name := SpanSingle
	if f != nil {
		name = SpanChunked
	}
	_, sp := trace.Start(ctx, name)
	if sp != nil {
		sp.SetAttrs(
			trace.Str(AttrStrategy, r.strategy.String()),
			trace.Int(AttrBytes, int64(len(input))),
		)
		if f != nil {
			sp.SetAttrs(trace.Int(AttrChunks, 1))
		}
	}
	var q fsm.State
	var rs *runStats
	if f != nil {
		q = consume(ctx, block, 0, input, start, f)
	} else {
		if src == nil {
			rs = r.newRunStats(sp != nil)
		}
		chunks := [1][2]int{{0, len(input)}}
		comps := [1]Comp{r.compose(ctx, src, Chunk{Input: input, Start: start, Known: true, block: block}, rs)}
		q = r.phase2(ctx, nil, block, input, chunks[:], comps[:], start, nil, nil, nil, ds)
		if rs != nil {
			ds.add(rs)
		}
	}
	r.endChunk(sp, rs)
	return q, ctx.Err()
}

// phase1 resolves every chunk's composition concurrently — the one
// phase-1 fan-out. With f set, chunk 0's start is already known, so
// instead of composing it the chunk runs its phase 3 here, overlapped
// with the other chunks' phase 1 (saving 1/P of the enumerative work).
// known0 tells the source that start is chunk 0's true start. The
// chunks' accounting is summed into ds.
func (r *Runner) phase1(ctx context.Context, sp *trace.Span, block int, input []byte, chunks [][2]int, start fsm.State, src Source, f ChunkFunc, known0 bool, ds *DriveStats) []Comp {
	tel := r.tel
	comps := make([]Comp, len(chunks))
	// Each chunk's accumulator has a slot (none when the run does not
	// account), summed into ds once the fan-out is over.
	slots := 0
	if src == nil && (tel != nil || sp != nil) {
		slots = len(chunks)
	}
	acct := make([]runStats, slots)
	var wg sync.WaitGroup
	for p, ch := range chunks {
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			if p == 0 && f != nil {
				if tel != nil {
					defer tel.Phase3Time.Start().Stop()
				}
				c0 := chunkSpan(sp, SpanPhase3Chunk0, 0, lo, hi)
				comps[0] = Comp{From: start, To: consume(ctx, block, lo, input[lo:hi], start, f)}
				c0.End()
				return
			}
			if tel != nil {
				defer tel.Phase1Time.Start().Stop()
			}
			csp := chunkSpan(sp, SpanPhase1Chunk, p, lo, hi)
			var rs *runStats
			if len(acct) > 0 && (tel != nil || csp != nil) {
				rs = &acct[p]
				*rs = runStats{convergedAt: -1, traced: csp != nil}
			}
			comps[p] = r.compose(trace.ContextWithSpan(ctx, csp), src, Chunk{
				Index: p, Input: input[lo:hi], Start: start, Known: p == 0 && known0,
				block: block,
			}, rs)
			r.endChunk(csp, rs)
		}(p, ch[0], ch[1])
	}
	wg.Wait()
	for i := range acct {
		ds.add(&acct[i])
	}
	return comps
}

// phase2 walks the chunks left to right from start — the one
// start-state walk — and returns the final state. A width-one entry
// whose guess misses the carried state is replayed on the spot, from
// the carried state: through f (marking replayed), or by a sequential
// walk when f is nil. starts, when non-nil, receives every chunk's
// start state for phase 3; the misses are counted in ds.
func (r *Runner) phase2(ctx context.Context, sp *trace.Span, block int, input []byte, chunks [][2]int, comps []Comp, start fsm.State, f ChunkFunc, starts []fsm.State, replayed []bool, ds *DriveStats) fsm.State {
	st := start
	for p, c := range comps {
		if starts != nil {
			starts[p] = st
		}
		next, ok := c.step(st)
		if ok {
			st = next
			continue
		}
		lo, hi := chunks[p][0], chunks[p][1]
		ds.Misses++
		ds.ReplayBytes += hi - lo
		if f == nil {
			st = walk(ctx, block, r.d, input[lo:hi], st)
			continue
		}
		rsp := chunkSpan(sp, SpanPhase3Chunk, p, lo, hi)
		st = consume(ctx, block, lo, input[lo:hi], st, f)
		rsp.End()
		replayed[p] = true
	}
	return st
}

// split tiles an n-byte input for src; nil means a single chunk.
func (r *Runner) split(src Source, n int) [][2]int {
	if src != nil {
		if size := src.ChunkBytes(); size > 0 {
			if n <= size {
				return nil
			}
			chunks := make([][2]int, 0, (n+size-1)/size)
			for lo := 0; lo < n; lo += size {
				chunks = append(chunks, [2]int{lo, min(lo+size, n)})
			}
			return chunks
		}
	} else if r.strategy == Sequential {
		// The sequential baseline has no enumeration to split.
		return nil
	}
	if !r.useMulticore(n) {
		return nil
	}
	return r.splitChunks(n)
}

// compose answers phase 1 for one chunk: src's answer, or the runner's
// own — a width-one entry from a known start (the single-start fold is
// cheaper than the full vector), the enumerative vector otherwise —
// noting into rs (nil: not accounting).
func (r *Runner) compose(ctx context.Context, src Source, ch Chunk, rs *runStats) Comp {
	if src != nil {
		return src.Compose(ctx, ch)
	}
	if ch.Known {
		return Comp{From: ch.Start, To: r.foldFinal(ctx, ch, rs)}
	}
	return Comp{Vec: r.foldVec(ctx, ch, rs)}
}

// foldFinal runs the chunk from ch.Start block by block, carrying the
// reached state across blocks.
func (r *Runner) foldFinal(ctx context.Context, ch Chunk, rs *runStats) fsm.State {
	q := ch.Start
	for off := 0; off < len(ch.Input); off += ch.block {
		if ctx.Err() != nil {
			return q
		}
		b := ch.Input[off:min(off+ch.block, len(ch.Input))]
		if r.strategy == Sequential {
			q = r.d.RunUnrolled(b, q)
			continue
		}
		if rs != nil {
			rs.off = off
		}
		q = r.finalSingle(b, q, rs)
	}
	return q
}

// foldVec computes the chunk's composition vector block by block,
// gather-merging the per-block vectors.
func (r *Runner) foldVec(ctx context.Context, ch Chunk, rs *runStats) []fsm.State {
	var total []fsm.State
	for off := 0; off < len(ch.Input); off += ch.block {
		if ctx.Err() != nil {
			return total
		}
		b := ch.Input[off:min(off+ch.block, len(ch.Input))]
		if rs != nil {
			rs.off = off
		}
		v := r.compVecSingle(b, rs)
		if total == nil {
			total = v
			continue
		}
		gather.Into(total, total, v)
		if rs != nil {
			rs.gathers++
		}
	}
	if total == nil {
		// Empty chunk: the identity function.
		total = gather.Identity[fsm.State](r.n)
	}
	return total
}

// consume runs f over chunk from st block by block, polling ctx between
// blocks; off is the global offset of chunk[0].
func consume(ctx context.Context, block, off int, chunk []byte, st fsm.State, f ChunkFunc) fsm.State {
	for lo := 0; lo < len(chunk); lo += block {
		if ctx.Err() != nil {
			return st
		}
		st = f(off+lo, chunk[lo:min(lo+block, len(chunk))], st)
	}
	return st
}

// walk is the sequential table walk, block by block.
func walk(ctx context.Context, block int, d *fsm.DFA, input []byte, st fsm.State) fsm.State {
	for lo := 0; lo < len(input); lo += block {
		if ctx.Err() != nil {
			return st
		}
		st = d.RunUnrolled(input[lo:min(lo+block, len(input))], st)
	}
	return st
}

// chunkSpan opens a per-chunk span under parent (nil when untraced).
func chunkSpan(parent *trace.Span, name string, p, lo, hi int) *trace.Span {
	if parent == nil {
		return nil
	}
	sp := parent.Child(name)
	sp.SetAttrs(
		trace.Int(AttrChunk, int64(p)),
		trace.Int(AttrOffset, int64(lo)),
		trace.Int(AttrBytes, int64(hi-lo)),
	)
	return sp
}

// childSpan is parent.Child, nil-safe.
func childSpan(parent *trace.Span, name string) *trace.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(name)
}
