package core

import (
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
)

// Pooled per-run scratch. The convergence and range-coalescing loops
// need identity-initialized working vectors (Acc and S, or the name
// vector C) on every run; for a single multi-megabyte input that
// allocation is noise, but the engine's batch workload — millions of
// small inputs over a shared Runner — would pay two n-wide
// allocations per job. Each Runner owns a sync.Pool of scratch
// buffers: a worker goroutine that stays on one P effectively reuses
// the same buffers job after job, and the pool handles the multicore
// phase-1 goroutines hitting it concurrently.
//
// Only the non-escaping entry points (Final, Accepts, Run, and the
// composition-vector paths whose outputs are copied into fresh
// slices) draw from the pool; buffers are returned only after every
// read of the run's result, never while a view of them is still live.
type scratch struct {
	// Lane buffers, one per state width: byte lanes for n ≤ 256 states
	// and for range-coalesced names, fsm.State lanes above. vecs carves
	// them into Acc, S and factor's index vector L.
	b []byte
	w []fsm.State
	// pos is factor's position table. It is all zero between factor
	// calls, so it is never reset as a whole.
	pos []uint32
}

// vecs returns identity-filled Acc and S vectors of width n in T's
// lanes, an index vector L of the same width, and a position table
// covering every value below max(n, 256) — every state of an n-state
// machine and every range-coalesced name — which is everything one
// factored run needs.
func vecs[T gather.Elem](sc *scratch, n int) (acc, s, l []T, pos []uint32) {
	buf, ok := any(&sc.b).(*[]T)
	if !ok {
		buf = any(&sc.w).(*[]T)
	}
	if len(*buf) < 3*n {
		*buf = make([]T, 3*n)
	}
	if len(sc.pos) < max(n, 256) {
		sc.pos = make([]uint32, max(n, 256))
	}
	acc, s, l = (*buf)[:n:n], (*buf)[n:2*n:2*n], (*buf)[2*n:3*n:3*n]
	for i := range acc {
		acc[i] = T(i)
		s[i] = T(i)
	}
	return acc, s, l, sc.pos
}

// factor is §5.1's Factor, in place and linear in len(s): it rewrites
// s to U, its distinct elements in first-occurrence order, fills
// l[:len(s)] so that the old s equals L ⊗ U, and returns |U|. pos must
// cover every value of s and be all zero; factor leaves it all zero
// again by clearing only the |U| entries it set, so one pooled table
// serves every call at no cost proportional to its size.
func factor[T gather.Elem](s, l []T, pos []uint32) int {
	nu := 0
	for i, v := range s {
		p := pos[v]
		if p == 0 {
			// nu ≤ i, so this write never clobbers an unread element.
			s[nu] = v
			nu++
			p = uint32(nu)
			pos[v] = p
		}
		l[i] = T(p - 1)
	}
	for _, v := range s[:nu] {
		pos[v] = 0
	}
	return nu
}

// getScratch takes a scratch from the runner's pool.
func (r *Runner) getScratch() *scratch {
	if sc, ok := r.scratchPool.Get().(*scratch); ok {
		return sc
	}
	return new(scratch)
}

// putScratch returns sc to the pool. The caller must not retain any
// view of sc's buffers.
func (r *Runner) putScratch(sc *scratch) {
	r.scratchPool.Put(sc)
}
