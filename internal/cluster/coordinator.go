// Package cluster executes the Figure 5 decomposition across networked
// peers, after the paper's concluding claim that the approach "is
// suitable for any modern data parallel architecture … to large
// clusters running MapReduce like frameworks". A Coordinator is a
// phase-1 source for core's schedule: each chunk's composition vector
// comes from the peer that owns it on the placement ring, and the
// schedule's phase 2 walks the vectors in chunk order (associativity of ⊗
// again, now across a network boundary). The wire-traffic profile is
// the point the paper makes against naive designs: one n-entry vector
// per *chunk*, independent of chunk length, so communication shrinks
// relative to compute as chunks grow — "designed to minimize
// communication when the number of processors is much smaller than the
// amount of parallelism available" (§3.4).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/plan"
	"dpfsm/internal/trace"
)

// Span names the coordinator emits on traced distributed jobs.
const (
	SpanExec = "cluster.exec" // one distributed job
	SpanTask = "cluster.task" // one chunk's remote (or fallback) execution

	AttrPeer     = "peer"
	AttrChunk    = "chunk"
	AttrChunks   = "chunks"
	AttrRetries  = "retries"
	AttrFallback = "fallback" // chunk re-executed locally
	AttrDegraded = "degraded"
)

// Config sizes a distributed coordinator. Zero values take the
// documented defaults; only Peers is required.
type Config struct {
	// Peers are the base URLs of the cluster's nodes (including, by
	// convention, everything except this node itself). Deduped and
	// sorted internally, so peer order is irrelevant to placement.
	Peers []string
	// Transport moves protocol messages; nil selects an HTTPTransport
	// with default timeouts.
	Transport Transport
	// ChunkBytes is the fan-out granularity. <= 0 selects 1 MiB.
	ChunkBytes int
	// TaskTimeout bounds each remote attempt (nested inside the job's
	// context). <= 0 selects 5s.
	TaskTimeout time.Duration
	// MaxRetries is how many times one chunk is re-sent after its first
	// failed attempt before falling back to local execution. < 0
	// disables retries; 0 selects the default of 2.
	MaxRetries int
	// BaseBackoff is the first retry's delay, doubling per attempt with
	// jitter up to MaxBackoff. <= 0 selects 10ms (cap 500ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold opens a peer's circuit breaker after this many
	// consecutive failures; while open, the peer's chunks skip straight
	// to local fallback. <= 0 selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting
	// one half-open probe through. <= 0 selects 5s.
	BreakerCooldown time.Duration
	// Vnodes is the placement ring's virtual-node count per peer.
	// <= 0 selects DefaultVnodes.
	Vnodes int
	// Seed seeds the backoff jitter (deterministic for tests); 0
	// selects 1.
	Seed int64
}

// Defaults for the zero Config fields.
const (
	DefaultChunkBytes       = 1 << 20
	DefaultTaskTimeout      = 5 * time.Second
	DefaultMaxRetries       = 2
	DefaultBaseBackoff      = 10 * time.Millisecond
	DefaultMaxBackoff       = 500 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

// Breaker states, reported by PeerHealth.State.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// Coordinator fans a large input's chunks out over the peer set, and
// core's schedule folds the returned composition vectors locally in chunk
// order — the paper's §3.4 MapReduce decomposition over an actual
// network.
// Every failure mode degrades to local re-execution of the affected
// chunks: a coordinator with every peer down still answers correctly,
// just at scalar speed. Exec never returns a wrong answer because a
// peer was slow, crashed, or fed it a torn frame; the strict wire
// decoder plus the oracle-equivalent local fallback make "slower,
// never wrong" a structural property.
type Coordinator struct {
	transport Transport
	ring      *Ring
	peers     []string
	states    map[string]*peerState

	chunkBytes  int
	taskTimeout time.Duration
	maxRetries  int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	threshold   int
	cooldown    time.Duration

	// now is the breaker clock, swappable in tests.
	now func() time.Time

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewCoordinator validates cfg and builds the coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	ring := NewRing(cfg.Peers, cfg.Vnodes)
	peers := ring.Peers()
	if len(peers) == 0 {
		return nil, ErrNoPeers
	}
	c := &Coordinator{
		transport:   cfg.Transport,
		ring:        ring,
		peers:       peers,
		states:      make(map[string]*peerState, len(peers)),
		chunkBytes:  cfg.ChunkBytes,
		taskTimeout: cfg.TaskTimeout,
		maxRetries:  cfg.MaxRetries,
		baseBackoff: cfg.BaseBackoff,
		maxBackoff:  cfg.MaxBackoff,
		threshold:   cfg.BreakerThreshold,
		cooldown:    cfg.BreakerCooldown,
		now:         time.Now,
	}
	if c.transport == nil {
		c.transport = NewHTTPTransport(nil)
	}
	if c.chunkBytes <= 0 {
		c.chunkBytes = DefaultChunkBytes
	}
	if c.taskTimeout <= 0 {
		c.taskTimeout = DefaultTaskTimeout
	}
	switch {
	case c.maxRetries < 0:
		c.maxRetries = 0
	case c.maxRetries == 0:
		c.maxRetries = DefaultMaxRetries
	}
	if c.baseBackoff <= 0 {
		c.baseBackoff = DefaultBaseBackoff
	}
	if c.maxBackoff <= 0 {
		c.maxBackoff = DefaultMaxBackoff
	}
	if c.threshold <= 0 {
		c.threshold = DefaultBreakerThreshold
	}
	if c.cooldown <= 0 {
		c.cooldown = DefaultBreakerCooldown
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng = rand.New(rand.NewSource(seed))
	for _, p := range peers {
		c.states[p] = &peerState{}
	}
	return c, nil
}

// Peers returns the deduped, sorted peer set.
func (c *Coordinator) Peers() []string { return append([]string(nil), c.peers...) }

// ChunkBytes reports the fan-out granularity.
func (c *Coordinator) ChunkBytes() int { return c.chunkBytes }

// Owner returns the peer that owns key on the placement ring — the
// home node for a machine's plan and its perf profile alike (both are
// placed by the plan fingerprint, so they co-locate by construction).
func (c *Coordinator) Owner(fingerprint string) string { return c.ring.Owner(fingerprint) }

// Ring exposes the placement ring (read-only use).
func (c *Coordinator) Ring() *Ring { return c.ring }

// ExecStats accounts one distributed job.
type ExecStats struct {
	// Chunks is the fan-out width; RemoteChunks answered over the
	// network, LocalChunks fell back to local re-execution.
	Chunks       int `json:"chunks"`
	RemoteChunks int `json:"remote_chunks"`
	LocalChunks  int `json:"local_chunks"`
	// Retries counts re-sent chunk attempts across the job.
	Retries int `json:"retries"`
	// Degraded is true when any chunk fell back locally: the answer is
	// still exact, but the job did not get full cluster parallelism.
	Degraded bool `json:"degraded"`
	// BytesToPeers counts chunk bytes shipped; VectorBytes counts
	// composition-vector bytes returned (2 per state per remote chunk).
	BytesToPeers int `json:"bytes_to_peers"`
	VectorBytes  int `json:"vector_bytes"`
}

// Exec runs input through r's machine from start, fanning chunks out
// over the peer set and walking the returned composition vectors in
// chunk order on r. r also computes the chunks that fall back to local
// re-execution, so a single-core runner fits it best. The only error Exec returns is the context's:
// every network failure degrades to local re-execution instead.
func (c *Coordinator) Exec(ctx context.Context, r *core.Runner, input []byte, start fsm.State) (fsm.State, ExecStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	job := c.NewJob(r, len(input))
	if len(job.tasks) == 0 {
		return start, ExecStats{}, nil
	}
	ctx, sp := trace.Start(ctx, SpanExec)
	defer sp.End()
	if sp != nil {
		sp.SetAttrs(
			trace.Str("fingerprint", r.PlanRef().Fingerprint()),
			trace.Int(AttrChunks, int64(len(job.tasks))),
			trace.Int("bytes", int64(len(input))),
		)
	}
	final, _, err := r.Drive(ctx, input, start, job, nil)
	stats := job.Stats()
	if err != nil {
		return start, stats, err
	}
	if stats.Degraded && sp != nil {
		sp.SetAttrs(trace.Bool(AttrDegraded, true))
	}
	return final, stats, nil
}

// Job is one distributed run's phase-1 source for core's schedule
// (core.Source): chunks of ChunkBytes, each chunk's composition vector
// from its ring-assigned peer, with retry, breaker and local fallback.
// Build one per run with NewJob; read its accounting with Stats once
// the run is over.
type Job struct {
	c     *Coordinator
	r     *core.Runner // the job's plan; computes fallback vectors
	prefs []string
	tasks []taskStats
}

// NewJob prepares a distributed run of r's plan over an n-byte input;
// chunks whose peer cannot answer are re-executed on r.
func (c *Coordinator) NewJob(r *core.Runner, n int) *Job {
	return &Job{
		c:     c,
		r:     r,
		prefs: c.ring.Prefs(r.PlanRef().Fingerprint()),
		tasks: make([]taskStats, (n+c.chunkBytes-1)/c.chunkBytes),
	}
}

// ChunkBytes fixes the schedule's chunking at the coordinator's fan-out
// granularity.
func (j *Job) ChunkBytes() int { return j.c.chunkBytes }

// Compose resolves one chunk's composition vector remotely, or locally
// when its peer cannot answer.
func (j *Job) Compose(ctx context.Context, ch core.Chunk) core.Comp {
	task := &plan.ClusterTask{
		Fingerprint: j.r.PlanRef().Fingerprint(),
		ChunkIndex:  uint32(ch.Index),
		TotalChunks: uint32(len(j.tasks)),
		Input:       ch.Input,
	}
	vec, ts := j.c.execChunk(ctx, j.r, task, j.prefs)
	ts.bytes = len(ch.Input)
	j.tasks[ch.Index] = ts
	return core.Comp{Vec: vec}
}

// Stats accounts the chunks the job composed; chunks the schedule
// replayed locally instead (chunk 0 of a run with a phase 3) are
// neither remote nor fallbacks.
func (j *Job) Stats() ExecStats {
	stats := ExecStats{Chunks: len(j.tasks)}
	for _, ts := range j.tasks {
		stats.Retries += ts.retries
		switch {
		case ts.remote:
			stats.RemoteChunks++
			stats.BytesToPeers += ts.bytes
			stats.VectorBytes += 2 * j.r.PlanRef().States()
		case ts.bytes > 0:
			stats.LocalChunks++
			stats.Degraded = true
		}
	}
	return stats
}

// taskStats is one chunk's outcome; bytes is zero for chunks the job
// never composed.
type taskStats struct {
	remote  bool
	retries int
	bytes   int
}

// execChunk resolves one chunk's composition vector: remote with
// retry/backoff against the chunk's assigned peer, local re-execution
// when the peer is down, the breaker is open, or retries are
// exhausted. It always returns a correct vector.
func (c *Coordinator) execChunk(ctx context.Context, r *core.Runner, task *plan.ClusterTask, prefs []string) ([]fsm.State, taskStats) {
	p := r.PlanRef()
	peer := prefs[int(task.ChunkIndex)%len(prefs)]
	ps := c.states[peer]
	var ts taskStats

	_, sp := trace.Start(ctx, SpanTask)
	defer sp.End()
	if sp != nil {
		sp.SetAttrs(
			trace.Str(AttrPeer, peer),
			trace.Int(AttrChunk, int64(task.ChunkIndex)),
			trace.Int("bytes", int64(len(task.Input))),
		)
	}
	defer func() {
		if sp != nil {
			sp.SetAttrs(trace.Int(AttrRetries, int64(ts.retries)), trace.Bool(AttrFallback, !ts.remote))
		}
	}()

	for attempt := 0; attempt <= c.maxRetries; attempt++ {
		if ctx.Err() != nil {
			break
		}
		if attempt > 0 {
			ts.retries++
			ps.retries.Add(1)
			if !c.sleepBackoff(ctx, attempt) {
				break
			}
		}
		if !ps.allow(c.now(), c.threshold, c.cooldown) {
			break
		}
		vec, err := c.tryPeer(ctx, peer, p, task)
		if err == nil {
			ps.success()
			ps.tasks.Add(1)
			ts.remote = true
			return vec, ts
		}
		if errors.Is(err, context.Canceled) || (errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil) {
			// The job itself is done, not the peer: do not punish the
			// breaker for our own cancellation.
			break
		}
		ps.failures.Add(1)
		ps.failure(c.now(), c.threshold)
	}

	// Graceful degradation: re-execute the chunk locally. Slower —
	// scalar, on the coordinator — but byte-for-byte what the peer
	// would have answered.
	ps.fallbacks.Add(1)
	return r.CompositionVector(task.Input), ts
}

// tryPeer makes one remote attempt: send the task under the
// per-attempt timeout, validate the echo. The plan ships only when the
// peer answers unknown-plan, so a peer that serves the machine itself
// or still holds an earlier copy never receives it.
func (c *Coordinator) tryPeer(ctx context.Context, peer string, p *core.Plan, task *plan.ClusterTask) ([]fsm.State, error) {
	actx, cancel := context.WithTimeout(ctx, c.taskTimeout)
	defer cancel()
	ps := c.states[peer]
	epoch := ps.installedEpoch(task.Fingerprint)
	vec, err := c.transport.ExecChunk(actx, peer, task)
	if errors.Is(err, ErrUnknownPlan) {
		// The peer never had the plan, restarted, evicted it from its
		// store, or no longer serves the machine it resolved the plan
		// to: ship once within the same attempt. The epoch guard makes
		// the invalidation a no-op if a sibling chunk already shipped
		// after this task's epoch was read.
		ps.invalidatePlan(task.Fingerprint, epoch)
		if err := c.ensureInstalled(actx, peer, p); err != nil {
			return nil, err
		}
		vec, err = c.transport.ExecChunk(actx, peer, task)
	}
	if err != nil {
		return nil, err
	}
	return c.validateVector(p, task, vec)
}

// validateVector checks a peer's answer against the task it was sent
// for; a structurally valid frame that answers the wrong question is
// as much a failure as a torn one.
func (c *Coordinator) validateVector(p *core.Plan, task *plan.ClusterTask, vec *plan.ClusterVector) ([]fsm.State, error) {
	n := p.States()
	switch {
	case vec.Fingerprint != task.Fingerprint:
		return nil, fmt.Errorf("%w: fingerprint echo %q, want %q", ErrBadVector, vec.Fingerprint, task.Fingerprint)
	case vec.ChunkIndex != task.ChunkIndex:
		return nil, fmt.Errorf("%w: chunk echo %d, want %d", ErrBadVector, vec.ChunkIndex, task.ChunkIndex)
	case len(vec.States) != n:
		return nil, fmt.Errorf("%w: %d entries, want %d", ErrBadVector, len(vec.States), n)
	}
	out := make([]fsm.State, n)
	for i, st := range vec.States {
		if int(st) >= n {
			return nil, fmt.Errorf("%w: entry %d names state %d of %d", ErrBadVector, i, st, n)
		}
		out[i] = fsm.State(st)
	}
	return out, nil
}

// ensureInstalled ships p to peer once per (peer, fingerprint) —
// single-flighted under the peer's install lock, so a job's concurrent
// chunks that all met unknown-plan produce one serialization and one
// ship, not one per chunk.
func (c *Coordinator) ensureInstalled(ctx context.Context, peer string, p *core.Plan) error {
	ps := c.states[peer]
	fp := p.Fingerprint()
	ps.installMu.Lock()
	defer ps.installMu.Unlock()
	if ps.installedEpoch(fp) != 0 {
		return nil
	}
	data, err := p.MarshalBinary()
	if err != nil {
		return fmt.Errorf("cluster: serializing plan: %w", err)
	}
	if err := c.transport.InstallPlan(ctx, peer, fp, data); err != nil {
		return err
	}
	ps.notePlan(fp)
	ps.shipped.Add(1)
	return nil
}

// sleepBackoff waits the attempt's exponential backoff with jitter;
// false when ctx ended first.
func (c *Coordinator) sleepBackoff(ctx context.Context, attempt int) bool {
	d := c.baseBackoff << (attempt - 1)
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	// Full jitter in [d/2, d): desynchronizes a thundering herd of
	// retries without stretching the worst case.
	c.rngMu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rngMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// PeerHealth is one peer's live protocol health, as Health reports
// it.
type PeerHealth struct {
	Peer                string `json:"peer"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Tasks               int64  `json:"tasks"`
	Retries             int64  `json:"retries"`
	Failures            int64  `json:"failures"`
	LocalFallbacks      int64  `json:"local_fallbacks"`
	PlanShips           int64  `json:"plan_ships"`
	BreakerOpens        int64  `json:"breaker_opens"`
}

// Health reports per-peer breaker state and traffic counters, sorted
// by peer.
func (c *Coordinator) Health() []PeerHealth {
	out := make([]PeerHealth, 0, len(c.peers))
	for _, peer := range c.peers {
		ps := c.states[peer]
		state, consec := ps.view(c.now(), c.cooldown)
		out = append(out, PeerHealth{
			Peer:                peer,
			State:               state,
			ConsecutiveFailures: consec,
			Tasks:               ps.tasks.Load(),
			Retries:             ps.retries.Load(),
			Failures:            ps.failures.Load(),
			LocalFallbacks:      ps.fallbacks.Load(),
			PlanShips:           ps.shipped.Load(),
			BreakerOpens:        ps.opens.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
