package engine

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dpfsm/internal/cluster"
	"dpfsm/internal/fsm"
	"dpfsm/internal/telemetry"
)

// clusterEngine is an engine wired to n live httptest peers with a
// low cluster threshold, plus the fault injector in front of them.
func clusterEngine(t *testing.T, n int) (*Engine, *cluster.FaultRoundTripper, []string, *telemetry.Metrics) {
	t.Helper()
	faults := cluster.NewFaultRoundTripper(nil)
	var peers, hosts []string
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(cluster.NewPeer(nil).Handler())
		t.Cleanup(srv.Close)
		peers = append(peers, srv.URL)
		hosts = append(hosts, cluster.HostOf(srv.URL))
	}
	tel := &telemetry.Metrics{}
	co, err := cluster.NewCoordinator(cluster.Config{
		Peers:       peers,
		Transport:   cluster.NewHTTPTransport(&http.Client{Transport: faults}),
		ChunkBytes:  512,
		MaxRetries:  1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(
		WithWorkers(2),
		WithProcs(2),
		WithLargeInput(1<<20),
		WithTelemetry(tel),
	)
	t.Cleanup(e.Close)
	e.SetClusterMinBytes(2048)
	e.SetCluster(co)
	return e, faults, hosts, tel
}

func TestEngineClusterLane(t *testing.T) {
	e, _, _, tel := clusterEngine(t, 2)
	rng := rand.New(rand.NewSource(90))
	d := fsm.RandomConverging(rng, 30, 6, 6, 0.3)
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}

	big := d.RandomInput(rng, 10_000)
	res := e.Run(context.Background(), Job{Machine: "m", Input: big})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Lane != LaneCluster {
		t.Fatalf("big input took lane %q (%s), want cluster", res.Lane, res.Reason)
	}
	if want := d.Run(big, d.Start()); res.Final != want {
		t.Fatalf("cluster lane answered %d, oracle %d", res.Final, want)
	}
	if res.Degraded {
		t.Fatalf("degraded with healthy peers: %+v", res)
	}
	if tel.EngineCluster.Load() != 1 || tel.ClusterTasks.Load() == 0 {
		t.Fatalf("telemetry: EngineCluster=%d ClusterTasks=%d", tel.EngineCluster.Load(), tel.ClusterTasks.Load())
	}

	// Transduction takes the same lane: peers answer phase 1, phase 3
	// replays locally, and the spans are the sequential ones.
	tr := testTransducer(t, d)
	if _, err := e.RegisterTransducer("tok", tr); err != nil {
		t.Fatal(err)
	}
	tres := e.Transduce(context.Background(), Job{Machine: "tok", Input: big})
	if tres.Err != nil {
		t.Fatal(tres.Err)
	}
	want, wantFinal := scalarSpans(tr, big, d.Start())
	if tres.Lane != LaneCluster || tres.Degraded {
		t.Fatalf("transduce: lane %q degraded %v, want a clean cluster job", tres.Lane, tres.Degraded)
	}
	if tres.Final != wantFinal || !spansEqual(tres.Spans, want) {
		t.Fatalf("cluster transduce diverges: final %d want %d, %d spans want %d",
			tres.Final, wantFinal, len(tres.Spans), len(want))
	}

	// Below the cluster threshold the job stays local even with a
	// coordinator attached.
	small := d.RandomInput(rng, 100)
	res = e.Run(context.Background(), Job{Machine: "m", Input: small})
	if res.Err != nil || res.Lane != LaneSingle {
		t.Fatalf("small input: lane %q err %v, want single-core", res.Lane, res.Err)
	}
}

// Peers die mid-serving: the lane degrades to local re-execution, the
// answer stays exact, and the degradation is visible on the Result,
// the batch stats, and the telemetry counter.
func TestEngineClusterLaneDegrades(t *testing.T) {
	e, faults, hosts, tel := clusterEngine(t, 2)
	rng := rand.New(rand.NewSource(91))
	d := fsm.RandomConverging(rng, 30, 6, 6, 0.3)
	if _, err := e.Register("m", d); err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		faults.SetAlways(h, cluster.FaultDrop)
	}

	input := d.RandomInput(rng, 8192)
	results, stats := e.RunBatch(context.Background(), []Job{{Machine: "m", Input: input}})
	res := results[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Lane != LaneCluster || !res.Degraded {
		t.Fatalf("dead peers: lane %q degraded %v, want degraded cluster job", res.Lane, res.Degraded)
	}
	if want := d.Run(input, d.Start()); res.Final != want {
		t.Fatalf("degraded run answered %d, oracle %d", res.Final, want)
	}
	if stats.Cluster != 1 || stats.Degraded != 1 {
		t.Fatalf("batch stats %+v, want Cluster=1 Degraded=1", stats)
	}
	if tel.ClusterDegraded.Load() == 0 || tel.ClusterLocalFallbacks.Load() == 0 {
		t.Fatal("telemetry missed the degradation")
	}

	// A transduction degrades the same way and stays span-exact.
	tr := testTransducer(t, d)
	if _, err := e.RegisterTransducer("tok", tr); err != nil {
		t.Fatal(err)
	}
	tres := e.Transduce(context.Background(), Job{Machine: "tok", Input: input})
	if tres.Err != nil {
		t.Fatal(tres.Err)
	}
	if tres.Lane != LaneCluster || !tres.Degraded {
		t.Fatalf("dead peers: transduce lane %q degraded %v, want degraded cluster job", tres.Lane, tres.Degraded)
	}
	if want, wantFinal := scalarSpans(tr, input, d.Start()); tres.Final != wantFinal || !spansEqual(tres.Spans, want) {
		t.Fatalf("degraded transduce diverges: final %d want %d", tres.Final, wantFinal)
	}

	// Detach the coordinator: the same input now takes a local lane.
	e.SetCluster(nil)
	res = e.Run(context.Background(), Job{Machine: "m", Input: input})
	if res.Err != nil || res.Lane == LaneCluster {
		t.Fatalf("after detach: lane %q err %v", res.Lane, res.Err)
	}
}
