package core

import (
	"context"
	"sync"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/telemetry"
)

// Multicore execution (Figure 5): a parallel prefix over transition-
// function composition. Phase 1 computes, for each input chunk in
// parallel, the chunk's composition vector (final state from every
// start state) using the runner's single-core strategy. Phase 2 is the
// short sequential scan that recovers the true start state of every
// chunk. Phase 3 re-runs each chunk in parallel with its now-known
// start state to invoke φ; accept-only queries skip it entirely, since
// the answer is already determined by the phase-1 vectors — which is
// why the paper calls the first two phases "extremely fast" (§3.4).
// The schedule itself lives in schedule.go; this file holds the chunking
// and the entry points that are thin wrappers over it.

// splitChunks divides n input bytes into p ranges no smaller than
// minChunk, reducing p if necessary. Every caller's invariants hold
// for any n: the ranges tile [0, n) in order, there is always at
// least one range, and no range is empty unless n itself is zero.
func (r *Runner) splitChunks(n int) [][2]int {
	if n <= 0 {
		// Degenerate input: a single empty chunk keeps the "at least
		// one chunk" invariant (phase 2 then folds over an identity
		// vector) without emitting empty siblings next to real work.
		return [][2]int{{0, 0}}
	}
	p := r.procs
	minChunk := r.minChunk
	if minChunk < 1 {
		// New clamps this, but guard here too: a non-positive minimum
		// would divide by zero below and emit zero-length chunks.
		minChunk = 1
	}
	if max := n / minChunk; p > max {
		p = max
	}
	if p > n {
		// Input shorter than the worker count (possible when minChunk
		// is 1): cap at one byte per chunk so i*n/p is strictly
		// increasing and no chunk comes out empty.
		p = n
	}
	if p < 1 {
		p = 1
	}
	chunks := make([][2]int, p)
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		chunks[i] = [2]int{lo, hi}
	}
	return chunks
}

// noteMulticore records one Figure 5 execution over the given chunks.
func (r *Runner) noteMulticore(chunks [][2]int) {
	if t := r.tel; t != nil {
		t.MulticoreRuns.Inc()
		t.Chunks.Add(int64(len(chunks)))
		for _, ch := range chunks {
			t.ChunkBytes.Observe(int64(ch[1] - ch[0]))
		}
	}
}

// compVecMulticore is CompositionVector over chunks: the schedule's
// phase 1 with no known start, and a vector merge in place of phase 2;
// phase 3 is never needed.
func (r *Runner) compVecMulticore(input []byte) []fsm.State {
	chunks := r.splitChunks(len(input))
	r.noteMulticore(chunks)
	comps := r.phase1(context.Background(), nil, len(input), input, chunks, 0, nil, nil, false)
	var sp telemetry.Span
	if t := r.tel; t != nil {
		sp = t.Phase2Time.Start()
	}
	total := comps[0].Vec
	for _, c := range comps[1:] {
		gather.Into(total, total, c.Vec)
	}
	sp.Stop()
	if t := r.tel; t != nil {
		t.Gathers.Add(int64(len(comps) - 1))
		t.Phase3Skips.Inc()
	}
	return total
}

// ChunkFunc processes one input chunk whose true start state has been
// resolved by phases 1–2, and returns the state after the chunk. off is
// the global offset of chunk[0]. Returning the final state lets the
// single-goroutine fast path avoid recomputing it enumeratively.
type ChunkFunc func(off int, chunk []byte, start fsm.State) fsm.State

// RunChunked is the Figure 5 decomposition with a caller-supplied phase
// 3: phases 1 and 2 resolve the start state of every chunk using the
// runner's enumerative strategy, then f runs once per chunk — in
// parallel, so f must be safe for concurrent calls on distinct chunks.
// Clients whose outputs depend on *transitions* rather than reached
// states (Huffman decoding emits the symbols along each edge, §6.2;
// tokenizers emit token boundaries) use this to run their own sequential
// decoder per chunk once the start state is known. Returns the final
// state.
func (r *Runner) RunChunked(input []byte, start fsm.State, f ChunkFunc) fsm.State {
	st, _, _ := r.Drive(context.Background(), input, start, nil, f)
	return st
}

// FirstAccepting returns the earliest position i such that the machine
// is in an accepting state after consuming input[0..i], or -1 if it
// never is. With sticky-accept machines (the regex package's default
// "contains" compilation) this is the end position of the first match
// — what a grep-style tool reports. Multicore runners resolve chunk
// start states enumeratively and scan chunks concurrently; the
// earliest hit wins.
func (r *Runner) FirstAccepting(input []byte, start fsm.State) int {
	if r.strategy == Sequential || !r.useMulticore(len(input)) {
		r.noteEntry(len(input))
		return r.firstAcceptingSeq(input, 0, start)
	}
	var mu sync.Mutex
	best := -1
	r.RunChunked(input, start, func(off int, chunk []byte, st fsm.State) fsm.State {
		// Skip the scan if a hit earlier than this chunk is known.
		mu.Lock()
		skip := best >= 0 && best < off
		mu.Unlock()
		if skip {
			return r.d.Run(chunk, st)
		}
		q := st
		hit := -1
		for i, b := range chunk {
			q = r.d.Next(q, b)
			if hit < 0 && r.d.Accepting(q) {
				hit = off + i
				// Keep running: the chunk's final state is still
				// needed by the schedule.
			}
		}
		if hit >= 0 {
			mu.Lock()
			if best < 0 || hit < best {
				best = hit
			}
			mu.Unlock()
		}
		return q
	})
	return best
}

// firstAcceptingSeq scans sequentially from a known start state.
func (r *Runner) firstAcceptingSeq(input []byte, off int, start fsm.State) int {
	q := start
	for i, b := range input {
		q = r.d.Next(q, b)
		if r.d.Accepting(q) {
			return off + i
		}
	}
	return -1
}
