package conformance

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"dpfsm/internal/cluster"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
)

// The distributed lane's differential probe: the same machine served
// over real HTTP by two in-process peers, coordinated at two different
// chunk sizes. Correctness here is the paper's §3.4 claim stretched
// across a network — the composition vectors a peer returns must
// reduce to the oracle's final state no matter how the input was
// chunked, and a fan-out that loses every peer must still answer
// exactly (degraded, never wrong). Transducer probes take the same
// lane with a local span-scan phase 3, and must be span-exact.

// clusterCoarseChunk and clusterFineChunk are the two fan-out
// granularities compared per input: coarse keeps most soak inputs in
// one or two chunks, fine forces many-chunk reduction on the same
// bytes.
const (
	clusterCoarseChunk = 4096
	clusterFineChunk   = 128
)

// checkCluster spins up two live peers, replays every input through
// both coordinators against the oracle, then kills the network under
// the longest input and requires a correct degraded answer. One probe
// per machine: peer setup amortizes over the machine's input set.
func (c *checker) checkCluster(inputs [][]byte) *Divergence {
	if len(c.strategies) == 0 || len(inputs) == 0 {
		return nil
	}
	r := c.singles[c.strategies[0]]
	fail := func(check string, input []byte, start, want, got fsm.State, detail string) *Divergence {
		return c.divergence(check, "", input, start, want, got, detail)
	}

	faults := cluster.NewFaultRoundTripper(nil)
	client := &http.Client{Transport: faults}
	var peers, hosts []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(cluster.NewPeer(nil).Handler())
		defer srv.Close()
		peers = append(peers, srv.URL)
		hosts = append(hosts, cluster.HostOf(srv.URL))
	}
	newCoord := func(chunk int) (*cluster.Coordinator, error) {
		return cluster.NewCoordinator(cluster.Config{
			Peers:       peers,
			Transport:   cluster.NewHTTPTransport(client),
			ChunkBytes:  chunk,
			MaxRetries:  1,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
		})
	}
	coords := make(map[int]*cluster.Coordinator, 2)
	for _, chunk := range []int{clusterCoarseChunk, clusterFineChunk} {
		co, err := newCoord(chunk)
		if err != nil {
			return fail("cluster-final", nil, 0, 0, 0, "coordinator: "+err.Error())
		}
		coords[chunk] = co
	}

	ctx := context.Background()
	start := c.d.Start()
	for _, in := range inputs {
		want := OracleFinal(c.d, in, start)
		for chunk, co := range coords {
			got, stats, err := co.Exec(ctx, r, in, start)
			if err != nil {
				return fail("cluster-final", in, start, want, got,
					fmt.Sprintf("chunk=%d: %v", chunk, err))
			}
			if got != want {
				return fail("cluster-final", in, start, want, got,
					fmt.Sprintf("chunk=%d stats=%+v", chunk, stats))
			}
			if stats.Degraded {
				return fail("cluster-final", in, start, want, got,
					fmt.Sprintf("chunk=%d degraded with healthy peers: %+v", chunk, stats))
			}
			if dv := c.checkClusterTransduce(co, in, start, false); dv != nil {
				return dv
			}
		}
	}

	// Fault leg: every peer drops every request. The answer must still
	// match the oracle, and the run must say it degraded.
	for _, h := range hosts {
		faults.SetAlways(h, cluster.FaultDrop)
	}
	in := pickLongest(inputs)
	want := OracleFinal(c.d, in, start)
	got, stats, err := coords[clusterFineChunk].Exec(ctx, r, in, start)
	if err != nil {
		return fail("cluster-degraded", in, start, want, got, "fault leg: "+err.Error())
	}
	if got != want {
		return fail("cluster-degraded", in, start, want, got,
			fmt.Sprintf("dead peers answered wrong: stats=%+v", stats))
	}
	if len(in) > 0 && (!stats.Degraded || stats.RemoteChunks != 0 || stats.LocalChunks != stats.Chunks) {
		return fail("cluster-degraded", in, start, want, got,
			fmt.Sprintf("dead peers not surfaced as degraded: stats=%+v", stats))
	}
	return c.checkClusterTransduce(coords[clusterFineChunk], in, start, true)
}

// checkClusterTransduce drives every transducer probe through co as
// phase 1 with a span-scan phase 3, against OracleTransduce. dead says
// the peers are down: a multi-chunk run must then report degradation.
func (c *checker) checkClusterTransduce(co *cluster.Coordinator, in []byte, start fsm.State, dead bool) *Divergence {
	for _, probe := range c.trans {
		check := "cluster-transduce"
		if dead {
			check = "cluster-transduce-degraded"
		}
		kind := probe.kind.String()
		wantTape, wantFinal := OracleTransduce(probe.t, in, start)
		job := co.NewJob(probe.single, len(in))
		var spans []core.Span
		got, _, err := probe.single.DriveSpans(context.Background(), in, start, job, nil, func(batch []core.Span) error {
			spans = append(spans, batch...)
			return nil
		})
		stats := job.Stats()
		if err != nil {
			return c.divergence(check, kind, in, start, wantFinal, got, "error: "+err.Error())
		}
		if got != wantFinal {
			return c.divergence(check, kind, in, start, wantFinal, got, fmt.Sprintf("final state, stats=%+v", stats))
		}
		wantSpans := oracleSpans(wantTape)
		if len(spans) != len(wantSpans) {
			return c.divergence(check, kind, in, start, wantFinal, got,
				fmt.Sprintf("%d spans, oracle folds %d (chunk=%d)", len(spans), len(wantSpans), co.ChunkBytes()))
		}
		for i := range spans {
			if spans[i] != wantSpans[i] {
				return c.divergence(check, kind, in, start, wantFinal, got,
					fmt.Sprintf("span %d = %+v, oracle %+v (chunk=%d)", i, spans[i], wantSpans[i], co.ChunkBytes()))
			}
		}
		// Chunk 0 replays locally, so only runs of two or more chunks
		// compose anything over the network.
		if multi := stats.Chunks > 1; stats.Degraded != (dead && multi) {
			return c.divergence(check, kind, in, start, wantFinal, got,
				fmt.Sprintf("degraded=%v with dead=%v: stats=%+v", stats.Degraded, dead, stats))
		}
	}
	return nil
}
