package cluster

import (
	"errors"
	"math/rand"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
)

// compile is CompilePlan failing the test on error.
func compile(t *testing.T, d *fsm.DFA) *core.Plan {
	t.Helper()
	p, err := core.CompilePlan(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The distributed answer equals the sequential one for any peer count,
// and the traffic accounting is exact: every input byte ships once and
// one 2-byte-per-state vector returns per chunk.
func TestClusterMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	clusters := map[int]*testCluster{}
	for _, peers := range []int{1, 3, 8} {
		clusters[peers] = newTestCluster(t, peers, Config{ChunkBytes: 4096})
	}
	for iter := 0; iter < 10; iter++ {
		d := fsm.RandomConverging(rng, 2+rng.Intn(60), 6, 6, 0.3)
		p := compile(t, d)
		in := d.RandomInput(rng, 1+rng.Intn(100_000))
		for _, peers := range []int{1, 3, 8} {
			st := fsm.State(rng.Intn(d.NumStates()))
			got, stats := clusters[peers].exec(p, in, st)
			if want := d.Run(in, st); got != want {
				t.Fatalf("iter %d peers %d: %d want %d", iter, peers, got, want)
			}
			wantChunks := (len(in) + 4095) / 4096
			if stats.Chunks != wantChunks || stats.RemoteChunks != wantChunks {
				t.Fatalf("chunks %+v, want %d remote", stats, wantChunks)
			}
			if stats.BytesToPeers != len(in) {
				t.Fatalf("shipped %d bytes, want %d", stats.BytesToPeers, len(in))
			}
			if stats.VectorBytes != wantChunks*d.NumStates()*2 {
				t.Fatalf("returned %d bytes, want %d", stats.VectorBytes, wantChunks*d.NumStates()*2)
			}
		}
	}
}

func TestClusterCommunicationShrinksWithChunkSize(t *testing.T) {
	// The §3.4 point: result traffic is per-chunk, so bigger chunks →
	// less communication for the same input.
	rng := rand.New(rand.NewSource(241))
	d := fsm.RandomConverging(rng, 30, 4, 5, 0.3)
	p := compile(t, d)
	in := d.RandomInput(rng, 1<<20)

	_, sSmall := newTestCluster(t, 2, Config{ChunkBytes: 4 << 10}).exec(p, in, d.Start())
	_, sBig := newTestCluster(t, 2, Config{ChunkBytes: 256 << 10}).exec(p, in, d.Start())
	if sBig.VectorBytes >= sSmall.VectorBytes {
		t.Fatalf("bigger chunks should return less: %d vs %d", sBig.VectorBytes, sSmall.VectorBytes)
	}
	if sSmall.VectorBytes/sBig.VectorBytes < 32 {
		t.Errorf("64× chunk growth should shrink traffic ~64×: %d vs %d", sSmall.VectorBytes, sBig.VectorBytes)
	}
}

func TestClusterAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(242))
	d := fsm.RandomConverging(rng, 20, 4, 4, 0.5)
	p := compile(t, d)
	tc := newTestCluster(t, 2, Config{ChunkBytes: 512})
	for trial := 0; trial < 10; trial++ {
		in := d.RandomInput(rng, 5000)
		if got, _ := tc.exec(p, in, d.Start()); d.Accepting(got) != d.Accepts(in) {
			t.Fatal("acceptance mismatch")
		}
	}
}

func TestClusterEmptyInput(t *testing.T) {
	d := fsm.MustNew(3, 2)
	d.SetStart(2)
	tc := newTestCluster(t, 2, Config{})
	st, stats := tc.exec(compile(t, d), nil, 2)
	if st != 2 || stats.Chunks != 0 || stats.BytesToPeers != 0 {
		t.Fatalf("empty input: state %d stats %+v", st, stats)
	}
	if tc.total().PlanShips != 0 {
		t.Error("an empty job should not ship the plan")
	}
}

// A peer list that dedupes to nothing is a configuration error, and
// non-positive tuning knobs fall back to the package defaults.
func TestClusterConfigErrors(t *testing.T) {
	if _, err := NewCoordinator(Config{Peers: []string{"", ""}}); !errors.Is(err, ErrNoPeers) {
		t.Errorf("blank peers: got %v, want ErrNoPeers", err)
	}
	c, err := NewCoordinator(Config{Peers: []string{"a", "a"}, ChunkBytes: -1, TaskTimeout: -1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Peers(); len(got) != 1 || got[0] != "a" {
		t.Errorf("peers %v, want [a]", got)
	}
	if c.ChunkBytes() != DefaultChunkBytes || c.taskTimeout != DefaultTaskTimeout || c.maxRetries != 0 {
		t.Errorf("chunk %d timeout %v retries %d, want defaults with retries disabled",
			c.ChunkBytes(), c.taskTimeout, c.maxRetries)
	}
}

func TestClusterReusableAcrossJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(243))
	d := fsm.RandomConverging(rng, 25, 4, 5, 0.3)
	p := compile(t, d)
	tc := newTestCluster(t, 3, Config{ChunkBytes: 1024})
	for job := 0; job < 5; job++ {
		in := d.RandomInput(rng, 20_000)
		got, _ := tc.exec(p, in, d.Start())
		if want := d.Run(in, d.Start()); got != want {
			t.Fatalf("job %d: %d want %d", job, got, want)
		}
	}
	// One ship per peer, however many jobs and chunks followed.
	if ships := tc.total().PlanShips; ships != 3 {
		t.Errorf("plan shipped %d times to 3 peers", ships)
	}
}
