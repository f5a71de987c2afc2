package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpfsm/internal/engine"
	"dpfsm/internal/serverapi"
)

// Two real fsmserve nodes over HTTP: A coordinates, B serves chunks.
// Both register the default pattern set, so their fingerprints agree
// and B can resolve shipped plans against its own registry.
func clusterPair(t *testing.T) (*server, *httptest.Server, *server, *httptest.Server) {
	t.Helper()
	srvA, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvA.Close)
	tsA := httptest.NewServer(srvA.mux())
	t.Cleanup(tsA.Close)

	srvB, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvB.Close)
	tsB := httptest.NewServer(srvB.mux())
	t.Cleanup(tsB.Close)

	if err := srvA.enableCluster([]string{tsB.URL}, 512, 2048); err != nil {
		t.Fatal(err)
	}
	return srvA, tsA, srvB, tsB
}

// clusterInput is large enough to clear the 2048-byte cluster
// threshold and contains one embedded match.
func clusterInput() []byte {
	var b bytes.Buffer
	for b.Len() < 8192 {
		b.WriteString("GET /index.html?q=hello normal traffic padding ")
	}
	b.WriteString("id=1 UNION  SELECT password FROM users")
	for b.Len() < 16384 {
		b.WriteString(" trailing benign bytes to spread across chunks ")
	}
	return b.Bytes()
}

func TestServerClusterLaneOverHTTP(t *testing.T) {
	srvA, tsA, srvB, tsB := clusterPair(t)
	input := clusterInput()
	d := srvA.engine.Machine("sqli").DFA()
	wantAccepts := d.Accepting(d.Run(input, d.Start()))

	resp, err := http.Post(tsA.URL+"/v1/run?machine=sqli", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res serverapi.RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Lane != engine.LaneCluster {
		t.Fatalf("lane %q (%s), want cluster", res.Lane, res.SelectionReason)
	}
	if res.Accepts != wantAccepts {
		t.Fatalf("cluster run accepts=%v, oracle %v", res.Accepts, wantAccepts)
	}
	if res.Degraded {
		t.Fatalf("degraded with a healthy peer: %+v", res)
	}

	// The coordinator's side of the story on /v1/status: one cluster
	// job, a healthy peer, a shipped plan.
	var st serverapi.Status
	sresp, err := http.Get(tsA.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("/v1/status has no cluster section on a coordinating node")
	}
	if st.Cluster.Jobs == 0 || st.Cluster.MinBytes != 2048 || st.Cluster.ChunkBytes != 512 {
		t.Fatalf("cluster status %+v", st.Cluster)
	}
	if len(st.Cluster.Peers) != 1 || st.Cluster.Peers[0].State != "closed" || st.Cluster.Peers[0].Tasks == 0 {
		t.Fatalf("peer health %+v", st.Cluster.Peers)
	}
	if st.Cluster.Peers[0].Peer != tsB.URL {
		t.Fatalf("peer %q, want %q", st.Cluster.Peers[0].Peer, tsB.URL)
	}
	// B serves sqli itself: it ran A's chunks on its registered runner
	// and kept no copy of the plan A shipped.
	if got := srvB.peer.Stats(); got.Plans != 0 || got.Tasks == 0 {
		t.Fatalf("peer B stats %+v, want tasks served from its registry and no stored plan", got)
	}

	// Once B no longer serves sqli, A's shipped plan is what B runs: the
	// rerun answers the same, and B holds exactly that one plan.
	req, err := http.NewRequest(http.MethodDelete, tsB.URL+"/v1/machines/sqli", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK && dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE on B: status %d", dresp.StatusCode)
	}
	rresp, err := http.Post(tsA.URL+"/v1/run?machine=sqli", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var rerun serverapi.RunResult
	if err := json.NewDecoder(rresp.Body).Decode(&rerun); err != nil {
		t.Fatal(err)
	}
	if rerun.Lane != engine.LaneCluster || rerun.Accepts != res.Accepts || rerun.Final != res.Final || rerun.Degraded {
		t.Fatalf("rerun after DELETE on B: %+v, first run %+v", rerun, res)
	}
	if got := srvB.peer.Stats().Plans; got != 1 {
		t.Fatalf("peer B holds %d plans after the rerun, want 1", got)
	}
}

// The peer-serving half is always mounted: B exposes the cluster
// endpoints even though it has no peers of its own, and its status
// carries no cluster section.
func TestServerPeerEndpointsAlwaysMounted(t *testing.T) {
	_, _, srvB, tsB := clusterPair(t)

	resp, err := http.Post(tsB.URL+"/v1/cluster/exec", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A garbage task is a client error, not a routing miss.
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage exec task: status %d, want 400", resp.StatusCode)
	}

	var st serverapi.Status
	sresp, err := http.Get(tsB.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster != nil {
		t.Fatalf("peer-only node reports a cluster section: %+v", st.Cluster)
	}
	if srvB.peer == nil {
		t.Fatal("peer side not constructed")
	}
}

// Kill the only peer mid-service: the cluster lane degrades to local
// re-execution, the answer stays exact, and the response says so.
func TestServerClusterDegradesWhenPeerDies(t *testing.T) {
	srvA, tsA, _, tsB := clusterPair(t)
	input := clusterInput()
	d := srvA.engine.Machine("sqli").DFA()
	wantAccepts := d.Accepting(d.Run(input, d.Start()))

	tsB.Close() // peer gone before the first fan-out

	resp, err := http.Post(tsA.URL+"/v1/run?machine=sqli", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: degradation must not surface as an error", resp.StatusCode)
	}
	var res serverapi.RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Lane != engine.LaneCluster || !res.Degraded {
		t.Fatalf("dead peer: lane %q degraded %v, want degraded cluster run", res.Lane, res.Degraded)
	}
	if res.Accepts != wantAccepts {
		t.Fatalf("degraded run accepts=%v, oracle %v", res.Accepts, wantAccepts)
	}
	if srvA.metrics.ClusterDegraded.Load() == 0 || srvA.metrics.ClusterLocalFallbacks.Load() == 0 {
		t.Fatal("telemetry missed the degradation")
	}

	var st serverapi.Status
	sresp, err := http.Get(tsA.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Degraded == 0 {
		t.Fatalf("status after degradation: %+v", st.Cluster)
	}
}
