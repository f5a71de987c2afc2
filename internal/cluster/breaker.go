package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// peerState is the coordinator's per-peer bookkeeping: the circuit
// breaker, the set of plans known to be installed on the peer, and the
// traffic counters Health reports.
//
// The breaker is the standard three-state machine. Closed passes
// everything. After threshold consecutive failures it opens, and the
// peer's chunks skip straight to local fallback — no point queueing
// work behind a dead socket. After the cooldown one half-open probe is
// let through: success closes the breaker, failure re-opens it for
// another cooldown.
type peerState struct {
	mu       sync.Mutex
	consec   int       // consecutive failures since last success
	open     bool      //
	openedAt time.Time // when the breaker (re)opened
	probing  bool      // a half-open probe is in flight

	// installMu single-flights plan shipping to this peer: when a job's
	// chunks fan out concurrently, exactly one goroutine ships, the rest
	// find the plan installed. Held across the install RPC, so it is a
	// separate lock from mu.
	installMu sync.Mutex
	// plans maps installed fingerprints to the epoch of their install
	// (a per-peer monotonic counter). The epoch lets the 404 path
	// invalidate only the install it actually observed: if another
	// chunk already re-shipped, the invalidation is a no-op instead of
	// un-installing the fresh copy.
	plans     map[string]uint64
	planEpoch uint64

	tasks     atomic.Int64 // remote chunks answered
	retries   atomic.Int64 // re-sent attempts
	failures  atomic.Int64 // failed attempts
	fallbacks atomic.Int64 // chunks degraded to local execution
	shipped   atomic.Int64 // plans shipped
	opens     atomic.Int64 // breaker open transitions
}

// allow reports whether an attempt may go to the peer now. While open
// it admits exactly one probe per cooldown window.
func (ps *peerState) allow(now time.Time, threshold int, cooldown time.Duration) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.open {
		return true
	}
	if now.Sub(ps.openedAt) >= cooldown && !ps.probing {
		ps.probing = true
		return true
	}
	return false
}

// success records a completed attempt: the breaker closes and the
// failure streak resets.
func (ps *peerState) success() {
	ps.mu.Lock()
	ps.open = false
	ps.probing = false
	ps.consec = 0
	ps.mu.Unlock()
}

// failure records a failed attempt; true when this failure newly
// opened the breaker. A failed half-open probe re-arms the open window
// without counting as a new open.
func (ps *peerState) failure(now time.Time, threshold int) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.consec++
	if ps.open {
		if ps.probing {
			ps.probing = false
			ps.openedAt = now
		}
		return false
	}
	if ps.consec >= threshold {
		ps.open = true
		ps.openedAt = now
		ps.opens.Add(1)
		return true
	}
	return false
}

// view renders the breaker for Health.
func (ps *peerState) view(now time.Time, cooldown time.Duration) (state string, consec int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch {
	case !ps.open:
		return BreakerClosed, ps.consec
	case now.Sub(ps.openedAt) >= cooldown:
		return BreakerHalfOpen, ps.consec
	default:
		return BreakerOpen, ps.consec
	}
}

// installedEpoch returns the epoch fingerprint was installed at, 0 if
// not installed. Under installMu the answer is stable; without it, it
// is the epoch as of the read, which is what tryPeer's unknown-plan
// guard compares against.
func (ps *peerState) installedEpoch(fingerprint string) uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.plans[fingerprint]
}

// notePlan marks fingerprint installed at a fresh epoch.
func (ps *peerState) notePlan(fingerprint string) {
	ps.mu.Lock()
	if ps.plans == nil {
		ps.plans = make(map[string]uint64)
	}
	ps.planEpoch++
	ps.plans[fingerprint] = ps.planEpoch
	ps.mu.Unlock()
}

// invalidatePlan drops the installed flag, but only if the install the
// caller observed (seen) is still the current one — the peer answered
// unknown-plan despite it, so that install is stale (peer restarted or
// evicted the plan). seen 0 (never installed) leaves an install a
// sibling chunk made since in place.
func (ps *peerState) invalidatePlan(fingerprint string, seen uint64) {
	ps.mu.Lock()
	if ps.plans[fingerprint] == seen {
		delete(ps.plans, fingerprint)
	}
	ps.mu.Unlock()
}
