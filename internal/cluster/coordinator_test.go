package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/plan"
)

// nopTransport satisfies Transport for tests that never hit the wire
// (placement-only assertions).
type nopTransport struct{}

func (nopTransport) ExecChunk(context.Context, string, *plan.ClusterTask) (*plan.ClusterVector, error) {
	return nil, errors.New("nop transport")
}
func (nopTransport) InstallPlan(context.Context, string, string, []byte) error { return nil }

// peerBox lets a test "restart" a node: same listener, fresh Peer with
// an empty plan store.
type peerBox struct {
	mu sync.Mutex
	p  *Peer
}

func (b *peerBox) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	p := b.p
	b.mu.Unlock()
	p.Handler().ServeHTTP(w, r)
}

func (b *peerBox) peer() *Peer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.p
}

func (b *peerBox) restart() {
	b.mu.Lock()
	b.p = NewPeer()
	b.mu.Unlock()
}

// testCluster is n real httptest nodes behind a fault-injecting
// round-tripper, plus a coordinator configured for fast tests.
type testCluster struct {
	t      *testing.T
	boxes  []*peerBox
	hosts  []string
	faults *FaultRoundTripper
	coord  *Coordinator
}

func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, faults: NewFaultRoundTripper(nil)}
	var peers []string
	for i := 0; i < n; i++ {
		box := &peerBox{p: NewPeer()}
		srv := httptest.NewServer(box)
		t.Cleanup(srv.Close)
		tc.boxes = append(tc.boxes, box)
		peers = append(peers, srv.URL)
		tc.hosts = append(tc.hosts, HostOf(srv.URL))
	}
	cfg.Peers = peers
	cfg.Transport = NewHTTPTransport(&http.Client{Transport: tc.faults})
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 2 * time.Millisecond
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	return tc
}

// total sums the coordinator's per-peer Health counters.
func (tc *testCluster) total() PeerHealth {
	var sum PeerHealth
	for _, h := range tc.coord.Health() {
		sum.Tasks += h.Tasks
		sum.Retries += h.Retries
		sum.Failures += h.Failures
		sum.LocalFallbacks += h.LocalFallbacks
		sum.PlanShips += h.PlanShips
	}
	return sum
}

func (tc *testCluster) exec(p *core.Plan, input []byte, start fsm.State) (fsm.State, ExecStats) {
	tc.t.Helper()
	got, stats, err := tc.coord.Exec(context.Background(), single(tc.t, p), input, start)
	if err != nil {
		tc.t.Fatal(err)
	}
	return got, stats
}

func TestCoordinatorNoPeers(t *testing.T) {
	if _, err := NewCoordinator(Config{}); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("got %v, want ErrNoPeers", err)
	}
}

func TestCoordinatorEmptyInput(t *testing.T) {
	_, p := testMachine(t, 10)
	tc := newTestCluster(t, 2, Config{ChunkBytes: 512})
	got, stats := tc.exec(p, nil, 3)
	if got != 3 || stats.Chunks != 0 {
		t.Fatalf("empty input: state %d stats %+v, want start echoed with 0 chunks", got, stats)
	}
}

// The distributed answer must equal the scalar oracle, fully remote,
// across chunk-count shapes from sub-chunk to many-chunks-per-peer.
func TestCoordinatorMatchesOracle(t *testing.T) {
	d, p := testMachine(t, 11)
	tc := newTestCluster(t, 3, Config{ChunkBytes: 512})
	rng := rand.New(rand.NewSource(12))
	for _, size := range []int{1, 100, 512, 513, 4096, 20_000} {
		input := d.RandomInput(rng, size)
		got, stats := tc.exec(p, input, d.Start())
		if want := d.Run(input, d.Start()); got != want {
			t.Fatalf("size %d: distributed %d, oracle %d", size, got, want)
		}
		if stats.Degraded || stats.LocalChunks != 0 {
			t.Fatalf("size %d: degraded without faults: %+v", size, stats)
		}
		if wantChunks := (size + 511) / 512; stats.Chunks != wantChunks || stats.RemoteChunks != wantChunks {
			t.Fatalf("size %d: chunk accounting %+v, want %d remote", size, stats, wantChunks)
		}
	}
	if h := tc.total(); h.Tasks == 0 || h.LocalFallbacks != 0 {
		t.Fatalf("health %+v, want remote tasks and no fallback on the clean path", h)
	}
}

// One injected fault of each kind, after warmup: the retry absorbs it —
// right answer, no degradation, retry observable in stats and health.
func TestCoordinatorRetriesAbsorbInjectedFaults(t *testing.T) {
	cases := []struct {
		name  string
		fault FaultKind
	}{
		{"drop", FaultDrop},
		{"http500", Fault500},
		{"truncate", FaultTruncate},
		{"delay-past-timeout", FaultDelay},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			d, p := testMachine(t, 20)
			tc := newTestCluster(t, 2, Config{ChunkBytes: 256, TaskTimeout: 50 * time.Millisecond})
			tc.faults.Delay = 250 * time.Millisecond
			rng := rand.New(rand.NewSource(21))
			input := d.RandomInput(rng, 2048)

			// Warmup ships the plan so the injected fault lands on an exec
			// exchange (truncate must tear a vector frame, not an install
			// acknowledgement).
			tc.exec(p, input, d.Start())
			for _, host := range tc.hosts {
				tc.faults.Push(host, tcase.fault)
			}
			got, stats := tc.exec(p, input, d.Start())
			if want := d.Run(input, d.Start()); got != want {
				t.Fatalf("under %s: distributed %d, oracle %d", tcase.name, got, want)
			}
			if stats.Degraded {
				t.Fatalf("under %s: a single fault should be absorbed by retry, got %+v", tcase.name, stats)
			}
			if stats.Retries == 0 {
				t.Fatalf("under %s: no retry recorded", tcase.name)
			}
			if h := tc.total(); h.Retries == 0 || h.Failures == 0 {
				t.Fatalf("under %s: health missed the fault (retries=%d failures=%d)",
					tcase.name, h.Retries, h.Failures)
			}
		})
	}
}

// Every peer dead: retries exhaust, every chunk re-executes locally,
// and the job still answers exactly the oracle — degraded, not wrong.
func TestCoordinatorDegradesToLocalWhenAllPeersDown(t *testing.T) {
	d, p := testMachine(t, 30)
	tc := newTestCluster(t, 2, Config{ChunkBytes: 256, MaxRetries: 1})
	for _, host := range tc.hosts {
		tc.faults.SetAlways(host, FaultDrop)
	}
	rng := rand.New(rand.NewSource(31))
	input := d.RandomInput(rng, 3000)
	got, stats := tc.exec(p, input, d.Start())
	if want := d.Run(input, d.Start()); got != want {
		t.Fatalf("all peers down: distributed %d, oracle %d", got, want)
	}
	if !stats.Degraded || stats.LocalChunks != stats.Chunks || stats.RemoteChunks != 0 {
		t.Fatalf("all peers down: stats %+v, want fully local + degraded", stats)
	}
	if h := tc.total(); h.LocalFallbacks != int64(stats.Chunks) {
		t.Fatalf("health counted %d local fallbacks, want all %d chunks", h.LocalFallbacks, stats.Chunks)
	}
}

// Exact attempt accounting: MaxRetries+1 HTTP attempts per chunk
// against a dead peer, then local fallback.
func TestCoordinatorRetryBudget(t *testing.T) {
	d, p := testMachine(t, 40)
	tc := newTestCluster(t, 1, Config{ChunkBytes: 1 << 20, MaxRetries: 2})
	tc.faults.SetAlways(tc.hosts[0], FaultDrop)
	input := d.RandomInput(rand.New(rand.NewSource(41)), 100) // one chunk
	_, stats := tc.exec(p, input, d.Start())
	if got := tc.faults.Calls(tc.hosts[0]); got != 3 {
		t.Fatalf("dead peer saw %d requests, want MaxRetries+1 = 3", got)
	}
	if stats.Retries != 2 || !stats.Degraded {
		t.Fatalf("stats %+v, want 2 retries then degradation", stats)
	}
}

// Full breaker lifecycle on one peer: closed → open after threshold
// consecutive failures (open skips the network entirely), half-open
// after the cooldown, failed probe re-arms it, successful probe closes
// it.
func TestCoordinatorBreakerLifecycle(t *testing.T) {
	d, p := testMachine(t, 50)
	tc := newTestCluster(t, 1, Config{
		ChunkBytes:       1 << 20,
		MaxRetries:       1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	host := tc.hosts[0]
	input := d.RandomInput(rand.New(rand.NewSource(51)), 200)
	want := d.Run(input, d.Start())

	// Warmup: plan installed, breaker closed.
	if got, _ := tc.exec(p, input, d.Start()); got != want {
		t.Fatalf("warmup answered %d, want %d", got, want)
	}
	base := time.Now()
	clock := base
	tc.coord.now = func() time.Time { return clock }

	// Two failed attempts in one job trip the threshold.
	tc.faults.SetAlways(host, FaultDrop)
	if got, stats := tc.exec(p, input, d.Start()); got != want || !stats.Degraded {
		t.Fatalf("tripping job: got %d (want %d), stats %+v", got, want, stats)
	}
	h := tc.coord.Health()
	if len(h) != 1 || h[0].State != BreakerOpen || h[0].BreakerOpens != 1 {
		t.Fatalf("after threshold failures: health %+v, want open with 1 open-transition", h)
	}

	// Open breaker: next job goes straight to fallback, zero requests
	// and no failed attempt.
	calls := tc.faults.Calls(host)
	before := tc.total()
	if got, stats := tc.exec(p, input, d.Start()); got != want || !stats.Degraded {
		t.Fatalf("open-breaker job: got %d, stats %+v", got, stats)
	}
	if tc.faults.Calls(host) != calls {
		t.Fatalf("open breaker still sent requests: %d → %d", calls, tc.faults.Calls(host))
	}
	if h := tc.total(); h.LocalFallbacks != before.LocalFallbacks+1 || h.Failures != before.Failures {
		t.Fatalf("breaker skip: health %+v after %+v, want one more fallback and no new failure", h, before)
	}

	// Cooldown elapses → half-open; a failed probe costs exactly one
	// request and re-arms the open window.
	clock = base.Add(2 * time.Hour)
	if h := tc.coord.Health(); h[0].State != BreakerHalfOpen {
		t.Fatalf("after cooldown: state %q, want half-open", h[0].State)
	}
	calls = tc.faults.Calls(host)
	tc.exec(p, input, d.Start())
	if got := tc.faults.Calls(host); got != calls+1 {
		t.Fatalf("failed probe sent %d requests, want exactly 1", got-calls)
	}
	if h := tc.coord.Health(); h[0].State != BreakerOpen {
		t.Fatalf("after failed probe: state %q, want open again", h[0].State)
	}

	// Peer recovers; next probe closes the breaker and traffic resumes.
	tc.faults.Clear(host)
	clock = clock.Add(2 * time.Hour)
	got, stats := tc.exec(p, input, d.Start())
	if got != want || stats.Degraded || stats.RemoteChunks != 1 {
		t.Fatalf("recovery job: got %d, stats %+v, want remote and exact", got, stats)
	}
	if h := tc.coord.Health(); h[0].State != BreakerClosed {
		t.Fatalf("after successful probe: state %q, want closed", h[0].State)
	}
}

// A plan ships once per peer; later jobs reuse it. A peer restart
// (empty plan store) is healed by the 404 → re-ship path inside one
// attempt, with no retry and no degradation.
func TestCoordinatorPlanShippingAndPeerRestart(t *testing.T) {
	d, p := testMachine(t, 60)
	tc := newTestCluster(t, 2, Config{ChunkBytes: 256})
	rng := rand.New(rand.NewSource(61))
	input := d.RandomInput(rng, 4096)
	want := d.Run(input, d.Start())

	tc.exec(p, input, d.Start())
	tc.exec(p, input, d.Start())
	installs := int64(0)
	for _, box := range tc.boxes {
		s := box.peer().Stats()
		if s.Installs > 1 {
			t.Fatalf("peer saw %d installs of one plan", s.Installs)
		}
		installs += s.Installs
	}
	if ships := tc.total().PlanShips; installs != 2 || ships != 2 {
		t.Fatalf("installs=%d ships=%d, want one ship per peer", installs, ships)
	}

	tc.boxes[0].restart()
	tc.boxes[1].restart()
	got, stats := tc.exec(p, input, d.Start())
	if got != want || stats.Degraded {
		t.Fatalf("after peer restarts: got %d (want %d), stats %+v", got, want, stats)
	}
	if ships := tc.total().PlanShips; ships != 4 {
		t.Fatalf("restart should re-ship to both peers: ships=%d, want 4", ships)
	}
}

// Plans ship only on a miss: the task goes first, so a peer that
// already holds the plan never receives it from this coordinator, and
// a peer that does not receives it exactly once, however many chunks
// and jobs.
func TestCoordinatorShipsOnlyOnMiss(t *testing.T) {
	d, p := testMachine(t, 62)
	tc := newTestCluster(t, 2, Config{ChunkBytes: 256})
	if err := tc.boxes[0].peer().Install(p.Fingerprint(), marshalPlan(t, p)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	for job := 0; job < 3; job++ {
		input := d.RandomInput(rng, 4096)
		got, stats := tc.exec(p, input, d.Start())
		if want := d.Run(input, d.Start()); got != want || stats.Degraded {
			t.Fatalf("job %d: %d (want %d), %+v", job, got, want, stats)
		}
	}
	for _, h := range tc.coord.Health() {
		want := int64(1)
		if HostOf(h.Peer) == tc.hosts[0] {
			want = 0
		}
		if h.Tasks == 0 || h.PlanShips != want {
			t.Errorf("peer %s: %d tasks, plan_ships %d, want tasks and %d ships", h.Peer, h.Tasks, h.PlanShips, want)
		}
	}
}

// badEchoTransport answers structurally valid vectors for the wrong
// chunk — the coordinator must treat that as a failure, not fold it.
type badEchoTransport struct {
	peer *Peer
}

func (b *badEchoTransport) ExecChunk(ctx context.Context, _ string, task *plan.ClusterTask) (*plan.ClusterVector, error) {
	vec, err := b.peer.Exec(task)
	if err != nil {
		return nil, err
	}
	vec.ChunkIndex++
	return vec, nil
}

func (b *badEchoTransport) InstallPlan(_ context.Context, _ string, fingerprint string, data []byte) error {
	return b.peer.Install(fingerprint, data)
}

func TestCoordinatorRejectsWrongChunkEcho(t *testing.T) {
	d, p := testMachine(t, 70)
	coord, err := NewCoordinator(Config{
		Peers:       []string{"http://peer-a"},
		Transport:   &badEchoTransport{peer: NewPeer()},
		ChunkBytes:  256,
		MaxRetries:  1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	input := d.RandomInput(rng, 1000)
	got, stats, err := coord.Exec(context.Background(), single(t, p), input, d.Start())
	if err != nil {
		t.Fatal(err)
	}
	if want := d.Run(input, d.Start()); got != want {
		t.Fatalf("wrong-echo peer corrupted the answer: %d, want %d", got, want)
	}
	if !stats.Degraded || stats.RemoteChunks != 0 {
		t.Fatalf("wrong echoes must never count as remote successes: %+v", stats)
	}
}

// Chunk-split invariance over the network: different ChunkBytes, same
// peers, same answer.
func TestCoordinatorChunkSplitInvariance(t *testing.T) {
	d, p := testMachine(t, 80)
	coarse := newTestCluster(t, 2, Config{ChunkBytes: 4096})
	fine := newTestCluster(t, 2, Config{ChunkBytes: 128})
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 5; i++ {
		input := d.RandomInput(rng, 1+rng.Intn(10_000))
		a, _ := coarse.exec(p, input, d.Start())
		b, _ := fine.exec(p, input, d.Start())
		if want := d.Run(input, d.Start()); a != want || b != want {
			t.Fatalf("split variance: coarse %d fine %d oracle %d", a, b, want)
		}
	}
}
