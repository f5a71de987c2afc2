package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"dpfsm/internal/core"
	"dpfsm/internal/plan"
)

// Peer is the serving side of the cluster protocol: it answers chunk
// tasks with composition vectors, by plan fingerprint. fsmserve mounts
// Handler into its mux so every node is simultaneously a coordinator
// (for its own requests) and a peer (for everyone else's); tests mount
// the same handler on httptest servers.
//
// A task's plan comes from one of two places. The optional resolver
// maps a fingerprint to a runner the node already holds — fsmserve
// wires its engine registry, so a machine both nodes serve runs on the
// peer's own registered runner. A coordinator still ships every plan
// before its first task there; Install accepts a plan the resolver
// knows without decoding or storing it. Any other plan is decoded,
// verified against its declared fingerprint (409 on mismatch) and kept
// in a store of at most maxShippedPlans runners, oldest evicted first;
// a coordinator whose plan was evicted gets unknown-plan and re-ships.
type Peer struct {
	mu      sync.Mutex
	runners map[string]*core.Runner // shipped plans: fingerprint → single-core runner
	order   []string                // runners' keys, oldest install first

	// resolver, when set, resolves fingerprints of plans the node
	// already holds; nil when it holds none of them.
	resolver func(fingerprint string) *core.Runner

	// maxMessage bounds a request body (maxWireMessage).
	maxMessage int64

	tasks     atomic.Int64
	installs  atomic.Int64
	rejects   atomic.Int64
	taskBytes atomic.Int64
}

// maxShippedPlans bounds a peer's store of shipped plans. A worker
// needs each machine once and then only its chunks, so the store is a
// working set; a coordinator whose plan was evicted re-ships it.
const maxShippedPlans = 256

// NewPeer builds an empty peer. resolver may be nil.
func NewPeer(resolver func(fingerprint string) *core.Runner) *Peer {
	return &Peer{runners: make(map[string]*core.Runner), resolver: resolver, maxMessage: maxWireMessage}
}

// PeerStats is a point-in-time view of one peer's served traffic.
type PeerStats struct {
	// Plans is the number of shipped plans held; Tasks the chunk tasks
	// served; Installs the plans accepted over the wire; Rejects the
	// protocol rejections (mismatch, bad message); TaskBytes the chunk
	// bytes executed.
	Plans     int   `json:"plans"`
	Tasks     int64 `json:"tasks"`
	Installs  int64 `json:"installs"`
	Rejects   int64 `json:"rejects"`
	TaskBytes int64 `json:"task_bytes"`
}

// Stats returns the peer's served-traffic counters.
func (p *Peer) Stats() PeerStats {
	p.mu.Lock()
	plans := len(p.runners)
	p.mu.Unlock()
	return PeerStats{
		Plans:     plans,
		Tasks:     p.tasks.Load(),
		Installs:  p.installs.Load(),
		Rejects:   p.rejects.Load(),
		TaskBytes: p.taskBytes.Load(),
	}
}

// Install decodes and installs a serialized plan under fingerprint.
// The decoded plan's own fingerprint must match the declared one
// (ErrPlanMismatch otherwise); installing a fingerprint the peer
// already holds or resolves is an idempotent no-op.
func (p *Peer) Install(fingerprint string, data []byte) error {
	if p.runner(fingerprint) != nil {
		return nil
	}
	cp, err := core.UnmarshalPlan(data)
	if err != nil {
		return fmt.Errorf("cluster: decoding shipped plan: %w", err)
	}
	if cp.Fingerprint() != fingerprint {
		return fmt.Errorf("%w: declared %s, decoded %s", ErrPlanMismatch, fingerprint, cp.Fingerprint())
	}
	return p.install(fingerprint, cp)
}

// install builds the runner and publishes it, evicting the oldest
// shipped plan past maxShippedPlans. Chunk tasks run single-core on
// the peer: parallelism across a job comes from the fan-out over peers
// (and each peer's concurrent HTTP handlers), not from a second
// fan-out inside each chunk.
func (p *Peer) install(fingerprint string, cp *core.Plan) error {
	r, err := core.NewFromPlan(cp, core.WithProcs(1))
	if err != nil {
		return fmt.Errorf("cluster: building runner for shipped plan: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, have := p.runners[fingerprint]; have {
		return nil
	}
	if len(p.order) == maxShippedPlans {
		delete(p.runners, p.order[0])
		p.order = p.order[1:]
	}
	p.runners[fingerprint] = r
	p.order = append(p.order, fingerprint)
	p.installs.Add(1)
	return nil
}

// runner resolves the runner for fingerprint: a shipped plan, else
// whatever the resolver holds (used in place, not copied into the
// store). nil when the plan is unknown.
func (p *Peer) runner(fingerprint string) *core.Runner {
	p.mu.Lock()
	r := p.runners[fingerprint]
	p.mu.Unlock()
	if r == nil && p.resolver != nil {
		r = p.resolver(fingerprint)
	}
	return r
}

// Exec runs one decoded task and returns its composition vector.
func (p *Peer) Exec(task *plan.ClusterTask) (*plan.ClusterVector, error) {
	r := p.runner(task.Fingerprint)
	if r == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPlan, task.Fingerprint)
	}
	vec := r.CompositionVector(task.Input)
	p.tasks.Add(1)
	p.taskBytes.Add(int64(len(task.Input)))
	states := make([]uint16, len(vec))
	for i, st := range vec {
		states[i] = uint16(st)
	}
	return &plan.ClusterVector{
		Fingerprint: task.Fingerprint,
		ChunkIndex:  task.ChunkIndex,
		States:      states,
	}, nil
}

// Handler returns the peer's HTTP surface: POST ExecPath (binary
// ClusterTask in, binary ClusterVector out) and POST PlansPath
// (serialized plan in, keyed by ?fingerprint=). Mount it at the
// routes' own paths — the handler switches on r.URL.Path.
func (p *Peer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case ExecPath:
			p.handleExec(w, req)
		case PlansPath:
			p.handleInstall(w, req)
		default:
			http.Error(w, "unknown cluster route", http.StatusNotFound)
		}
	})
}

// maxWireMessage bounds request bodies: a plan or chunk can be large,
// but not unbounded.
const maxWireMessage = 128 << 20

// readBody reads a request body of at most p.maxMessage bytes, writing
// 413 for a larger one and 400 for a failed read; ok reports whether
// the caller may go on.
func (p *Peer) readBody(w http.ResponseWriter, req *http.Request, what string) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, p.maxMessage))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading "+what+": "+err.Error(), status)
		return nil, false
	}
	return body, true
}

func (p *Peer) handleExec(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST a cluster task", http.StatusMethodNotAllowed)
		return
	}
	body, ok := p.readBody(w, req, "task")
	if !ok {
		return
	}
	task, err := plan.UnmarshalClusterTask(body)
	if err != nil {
		p.rejects.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	vec, err := p.Exec(task)
	if err != nil {
		p.rejects.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownPlan) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	out, err := vec.MarshalBinary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(out)
}

func (p *Peer) handleInstall(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST a serialized plan", http.StatusMethodNotAllowed)
		return
	}
	fingerprint := req.URL.Query().Get("fingerprint")
	if fingerprint == "" {
		http.Error(w, "missing ?fingerprint=", http.StatusBadRequest)
		return
	}
	body, ok := p.readBody(w, req, "plan")
	if !ok {
		return
	}
	if err := p.Install(fingerprint, body); err != nil {
		p.rejects.Add(1)
		status := http.StatusBadRequest
		if errors.Is(err, ErrPlanMismatch) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.WriteHeader(http.StatusCreated)
}
