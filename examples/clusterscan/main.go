// clusterscan: the paper's concluding claim made concrete — the
// enumerative decomposition fanned out over a cluster. Two in-process
// peers (cluster.Peer handlers served by httptest) split the chunks
// between them; the coordinator ships each peer the compiled plan once
// and gets one composition vector back per chunk. Prints the wire-traffic
// accounting that makes the approach cluster-friendly: result traffic
// is per-chunk, not per-byte.
package main

import (
	"context"
	"fmt"
	"net/http/httptest"

	"dpfsm/internal/cluster"
	"dpfsm/internal/core"
	"dpfsm/internal/regex"
	"dpfsm/internal/workload"
)

func main() {
	d, err := regex.Compile(`UNION\s+SELECT`, regex.Options{CaseInsensitive: true})
	if err != nil {
		panic(err)
	}
	r, err := core.New(d)
	if err != nil {
		panic(err)
	}
	traffic := workload.HTTPTraffic(21, 32<<20)
	copy(traffic[20<<20:], []byte("q=1 UNION SELECT pass FROM users"))

	var peers []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(cluster.NewPeer(nil).Handler())
		defer srv.Close()
		peers = append(peers, srv.URL)
	}

	fmt.Printf("machine: %v; input: %d MiB; peers: %d\n\n", d, len(traffic)>>20, len(peers))
	fmt.Printf("%-10s %-8s %-10s %-14s %-14s %-10s\n",
		"chunk", "chunks", "match", "to-peers", "vectors", "overhead")

	for _, chunkMB := range []int{1, 4, 16} {
		co, err := cluster.NewCoordinator(cluster.Config{Peers: peers, ChunkBytes: chunkMB << 20})
		if err != nil {
			panic(err)
		}
		final, stats, err := co.Exec(context.Background(), r, traffic, d.Start())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %-8d %-10v %-14s %-14s %.4f%%\n",
			fmt.Sprintf("%dMiB", chunkMB), stats.Chunks, d.Accepting(final),
			fmt.Sprintf("%d B", stats.BytesToPeers),
			fmt.Sprintf("%d B", stats.VectorBytes),
			100*float64(stats.VectorBytes)/float64(stats.BytesToPeers))
	}
	fmt.Println("\nresult traffic is one composition vector per chunk — independent of chunk bytes,")
	fmt.Println("which is why §3.4's decomposition suits clusters where communication dominates.")
}
