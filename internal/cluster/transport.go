package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"dpfsm/internal/plan"
)

// Transport moves cluster protocol messages between a coordinator and
// one peer. The production implementation is HTTPTransport; tests
// inject fault-wrapped or in-memory transports through the same
// interface, so the coordinator's retry/breaker/degradation logic is
// exercised identically either way.
type Transport interface {
	// ExecChunk sends one chunk task to peer and returns its decoded
	// composition vector. Implementations must map the protocol's
	// negative answers to ErrUnknownPlan (peer lacks the plan) and
	// ErrPlanMismatch so the coordinator can react specifically.
	ExecChunk(ctx context.Context, peer string, task *plan.ClusterTask) (*plan.ClusterVector, error)
	// InstallPlan ships a serialized plan (core.Plan.MarshalBinary
	// bytes) to peer under the declared fingerprint.
	InstallPlan(ctx context.Context, peer string, fingerprint string, data []byte) error
}

// Peer-protocol routes, served by cluster.Peer's handler. Exported so
// callers build URLs symbolically.
const (
	ExecPath  = "/v1/cluster/exec"
	PlansPath = "/v1/cluster/plans"
)

// DefaultHTTPTimeout caps one HTTP exchange when the caller's context
// carries no tighter deadline.
const DefaultHTTPTimeout = 30 * time.Second

// HTTPTransport speaks the peer protocol over HTTP: binary cluster
// messages POSTed to the peer's /v1/cluster/* endpoints. Peers are
// addressed by base URL ("http://host:port").
type HTTPTransport struct {
	client *http.Client
}

// NewHTTPTransport wraps client (nil gets a dedicated client with
// DefaultHTTPTimeout). Fault-injection tests pass a client whose
// RoundTripper is a FaultRoundTripper.
func NewHTTPTransport(client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	return &HTTPTransport{client: client}
}

// ExecChunk POSTs the marshaled task and decodes the vector response.
// 404 maps to ErrUnknownPlan, 409 to ErrPlanMismatch; any other
// non-200 surfaces as a PeerError. A response that fails to decode
// (truncated, corrupt) is an error too — the strict decoder is the
// integrity check for the network path.
func (t *HTTPTransport) ExecChunk(ctx context.Context, peer string, task *plan.ClusterTask) (*plan.ClusterVector, error) {
	body, err := task.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal task: %w", err)
	}
	resp, err := t.post(ctx, peer+ExecPath, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		drain(resp.Body)
		return nil, fmt.Errorf("%w (peer %s, fingerprint %s)", ErrUnknownPlan, peer, task.Fingerprint)
	case http.StatusConflict:
		drain(resp.Body)
		return nil, fmt.Errorf("%w (peer %s)", ErrPlanMismatch, peer)
	default:
		return nil, peerError(peer, resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxVectorResponse))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading vector from %s: %w", peer, err)
	}
	vec, err := plan.UnmarshalClusterVector(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding vector from %s: %w", peer, err)
	}
	return vec, nil
}

// maxVectorResponse bounds a vector response read: framing + the
// largest legal vector (2^16 uint16 states) with slack.
const maxVectorResponse = 1 << 20

// InstallPlan POSTs the serialized plan under its declared
// fingerprint. 409 maps to ErrPlanMismatch.
func (t *HTTPTransport) InstallPlan(ctx context.Context, peer string, fingerprint string, data []byte) error {
	u := peer + PlansPath + "?fingerprint=" + url.QueryEscape(fingerprint)
	resp, err := t.post(ctx, u, data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated, http.StatusNoContent:
		drain(resp.Body)
		return nil
	case http.StatusConflict:
		drain(resp.Body)
		return fmt.Errorf("%w (peer %s, fingerprint %s)", ErrPlanMismatch, peer, fingerprint)
	default:
		return peerError(peer, resp)
	}
}

func (t *HTTPTransport) post(ctx context.Context, u string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		// Keep context errors recognizable through the client wrapper so
		// the coordinator can distinguish cancellation from peer failure.
		if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(err, ctxErr) {
			err = fmt.Errorf("%w (%v)", ctxErr, err)
		}
		return nil, err
	}
	return resp, nil
}

// peerError renders a non-protocol status as a PeerError, capturing a
// bounded body prefix for the log line.
func peerError(peer string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return &PeerError{Peer: peer, Status: resp.StatusCode, Body: string(bytes.TrimSpace(b))}
}

// drain consumes a response body so the client's connection is
// reusable.
func drain(r io.Reader) { _, _ = io.Copy(io.Discard, io.LimitReader(r, 4<<10)) }
