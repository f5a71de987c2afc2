package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/plan"
)

func testMachine(t *testing.T, seed int64) (*fsm.DFA, *core.Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := fsm.RandomConverging(rng, 2+rng.Intn(40), 6, 6, 0.3)
	p, err := core.CompilePlan(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

// single builds the single-core runner a coordinator job runs on.
func single(t *testing.T, p *core.Plan) *core.Runner {
	t.Helper()
	r, err := core.NewFromPlan(p, core.WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func marshalPlan(t *testing.T, p *core.Plan) []byte {
	t.Helper()
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPeerInstallAndExec(t *testing.T) {
	d, p := testMachine(t, 1)
	peer := NewPeer(nil)
	fp := p.Fingerprint()
	if err := peer.Install(fp, marshalPlan(t, p)); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-install.
	if err := peer.Install(fp, marshalPlan(t, p)); err != nil {
		t.Fatal(err)
	}
	if got := peer.Stats().Installs; got != 1 {
		t.Fatalf("installs = %d, want 1", got)
	}

	rng := rand.New(rand.NewSource(2))
	input := d.RandomInput(rng, 4096)
	vec, err := peer.Exec(&plan.ClusterTask{Fingerprint: fp, ChunkIndex: 0, TotalChunks: 1, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	if vec.Fingerprint != fp || vec.ChunkIndex != 0 {
		t.Fatalf("bad echo: %q chunk %d", vec.Fingerprint, vec.ChunkIndex)
	}
	if len(vec.States) != d.NumStates() {
		t.Fatalf("vector has %d entries, want %d", len(vec.States), d.NumStates())
	}
	// The vector IS the composition: entry q must equal the scalar run
	// from q.
	for q := 0; q < d.NumStates(); q++ {
		if want := d.Run(input, fsm.State(q)); fsm.State(vec.States[q]) != want {
			t.Fatalf("vector[%d] = %d, scalar oracle says %d", q, vec.States[q], want)
		}
	}
}

func TestPeerInstallMismatch(t *testing.T) {
	_, p := testMachine(t, 3)
	peer := NewPeer(nil)
	err := peer.Install("not-the-fingerprint", marshalPlan(t, p))
	if !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("got %v, want ErrPlanMismatch", err)
	}
	if _, err := peer.Exec(&plan.ClusterTask{Fingerprint: p.Fingerprint(), ChunkIndex: 0, TotalChunks: 1, Input: []byte("x")}); !errors.Is(err, ErrUnknownPlan) {
		t.Fatalf("exec after rejected install: got %v, want ErrUnknownPlan", err)
	}
}

// TestPeerResolver: a plan the resolver knows runs on the resolved
// runner itself; neither a task nor a shipped copy of that plan adds
// it to the peer's store.
func TestPeerResolver(t *testing.T) {
	d, p := testMachine(t, 4)
	r := single(t, p)
	resolved := 0
	peer := NewPeer(func(fp string) *core.Runner {
		if fp == p.Fingerprint() {
			resolved++
			return r
		}
		return nil
	})
	input := d.RandomInput(rand.New(rand.NewSource(40)), 64)
	vec, err := peer.Exec(&plan.ClusterTask{Fingerprint: p.Fingerprint(), ChunkIndex: 0, TotalChunks: 1, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	if want := d.Run(input, 0); fsm.State(vec.States[0]) != want {
		t.Fatalf("resolved runner computes %d, want %d", vec.States[0], want)
	}
	if _, err := peer.Exec(&plan.ClusterTask{Fingerprint: "unknown", ChunkIndex: 0, TotalChunks: 1, Input: input}); !errors.Is(err, ErrUnknownPlan) {
		t.Fatalf("unknown fingerprint through resolver: got %v", err)
	}
	// A shipped copy of a resolvable plan is accepted without decoding:
	// even bytes that do not decode succeed.
	if err := peer.Install(p.Fingerprint(), []byte("not a plan")); err != nil {
		t.Fatalf("install of a resolvable plan: %v", err)
	}
	if st := peer.Stats(); st.Plans != 0 || st.Installs != 0 {
		t.Fatalf("resolvable plan was stored: %+v", st)
	}
	if resolved != 2 {
		t.Fatalf("resolver consulted %d times, want 2 (task, install)", resolved)
	}
}

// TestPeerShippedPlanBound: the store of shipped plans holds at most
// maxShippedPlans, evicting the oldest, and a coordinator whose plan
// was evicted re-ships it once and still answers exactly.
func TestPeerShippedPlanBound(t *testing.T) {
	d, p := testMachine(t, 6)
	tc := newTestCluster(t, 1, Config{ChunkBytes: 256})
	input := d.RandomInput(rand.New(rand.NewSource(60)), 2000)
	want := d.Run(input, d.Start())
	if got, stats := tc.exec(p, input, d.Start()); got != want || stats.Degraded {
		t.Fatalf("first job: %d (want %d), %+v", got, want, stats)
	}
	peer := tc.boxes[0].peer()
	rng := rand.New(rand.NewSource(61))
	for installed := 1; installed <= maxShippedPlans; {
		other, err := core.CompilePlan(fsm.RandomConverging(rng, 2+rng.Intn(30), 4, 5, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		if other.Fingerprint() == p.Fingerprint() {
			continue
		}
		before := peer.Stats().Installs
		if err := peer.Install(other.Fingerprint(), marshalPlan(t, other)); err != nil {
			t.Fatal(err)
		}
		if peer.Stats().Installs > before {
			installed++
		}
	}
	if st := peer.Stats(); st.Plans != maxShippedPlans || st.Installs != maxShippedPlans+1 {
		t.Fatalf("after %d installs: %+v, want %d plans held", maxShippedPlans+1, st, maxShippedPlans)
	}
	if _, err := peer.Exec(&plan.ClusterTask{Fingerprint: p.Fingerprint(), TotalChunks: 1, Input: input}); !errors.Is(err, ErrUnknownPlan) {
		t.Fatalf("oldest plan still held: %v", err)
	}
	ships := tc.tel.ClusterPlanShips.Load()
	if got, stats := tc.exec(p, input, d.Start()); got != want || stats.Degraded || stats.RemoteChunks != stats.Chunks {
		t.Fatalf("job on the evicted plan: %d (want %d), %+v", got, want, stats)
	}
	if n := tc.tel.ClusterPlanShips.Load() - ships; n != 1 {
		t.Fatalf("evicted plan re-shipped %d times, want 1", n)
	}
}

// The full HTTP surface: 404 before install, 201 on install, 409 on
// mismatched install, 200 with a decodable vector on exec, 400 on a
// torn task, 413 on an oversized body, 405 on GET.
func TestPeerHandlerHTTP(t *testing.T) {
	d, p := testMachine(t, 5)
	fp := p.Fingerprint()
	srv := httptest.NewServer(NewPeer(nil).Handler())
	defer srv.Close()

	task := &plan.ClusterTask{Fingerprint: fp, ChunkIndex: 0, TotalChunks: 1, Input: d.RandomInput(rand.New(rand.NewSource(50)), 64)}
	taskBytes, err := task.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(ExecPath, taskBytes); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("exec before install: status %d, want 404", resp.StatusCode)
	}
	if resp := post(PlansPath+"?fingerprint=wrong", marshalPlan(t, p)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched install: status %d, want 409", resp.StatusCode)
	}
	if resp := post(PlansPath+"?fingerprint="+fp, marshalPlan(t, p)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: status %d, want 201", resp.StatusCode)
	}
	resp := post(ExecPath, taskBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec: status %d, want 200", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	vec, err := plan.UnmarshalClusterVector(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := d.Run(task.Input, 0); fsm.State(vec.States[0]) != want {
		t.Fatalf("HTTP vector[0] = %d, oracle %d", vec.States[0], want)
	}

	if resp := post(ExecPath, taskBytes[:10]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn task: status %d, want 400", resp.StatusCode)
	}
	// Bodies past the wire bound are refused whole, not truncated.
	small := NewPeer(nil)
	small.maxMessage = int64(len(taskBytes)) - 1
	smallSrv := httptest.NewServer(small.Handler())
	defer smallSrv.Close()
	for _, path := range []string{ExecPath, PlansPath + "?fingerprint=" + fp} {
		resp, err := http.Post(smallSrv.URL+path, "application/octet-stream", bytes.NewReader(taskBytes))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body got status %d, want 413", path, resp.StatusCode)
		}
	}
	getResp, err := http.Get(srv.URL + ExecPath)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET exec: status %d, want 405", getResp.StatusCode)
	}
}
