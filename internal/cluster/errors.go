package cluster

import "errors"

// Typed configuration and protocol errors. Sentinels (rather than
// fmt.Errorf strings) so callers and tests can branch with
// errors.Is; transport implementations wrap them with per-peer
// context.
var (
	// ErrNoPeers is returned by NewCoordinator when the peer set is
	// empty — a distributed coordinator with nobody to talk to.
	ErrNoPeers = errors.New("cluster: need at least one peer")
	// ErrUnknownPlan is the peer's "I do not hold that plan" answer
	// (HTTP 404 on /v1/cluster/exec); the coordinator responds by
	// shipping the plan and retrying.
	ErrUnknownPlan = errors.New("cluster: peer does not hold the plan")
	// ErrPlanMismatch is the peer's 409: the shipped plan's decoded
	// fingerprint disagrees with the fingerprint it was declared under.
	ErrPlanMismatch = errors.New("cluster: plan fingerprint mismatch")
	// ErrBreakerOpen reports that a peer's circuit breaker refused the
	// attempt without touching the network.
	ErrBreakerOpen = errors.New("cluster: circuit breaker open")
	// ErrBadVector reports a structurally valid response that does not
	// answer the task it was sent for (wrong length, wrong echo, or a
	// state out of range).
	ErrBadVector = errors.New("cluster: malformed composition vector")
)

// PeerError is a transport failure with an HTTP status attached: a
// reachable peer that answered with a non-success status outside the
// protocol's mapped codes (404/409).
type PeerError struct {
	Peer   string
	Status int
	Body   string
}

func (e *PeerError) Error() string {
	if e.Body != "" {
		return "cluster: peer " + e.Peer + " answered " + itoa(e.Status) + ": " + e.Body
	}
	return "cluster: peer " + e.Peer + " answered " + itoa(e.Status)
}

// itoa avoids importing strconv for one three-digit number.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
