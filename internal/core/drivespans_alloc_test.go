package core_test

import (
	"context"
	"runtime"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/workload"
)

// TestDriveSpansMultiChunkAllocs pins what a multi-chunk transduction
// allocates: each block's spans stay in a pooled buffer from phase 3
// until flush emits them, so a procs=2 DriveSpans over a 4 MiB HTML page
// under a cancelable context (64 KiB blocks) allocates far less than the
// page's spans (about 2.4 bytes per input byte), where copying every
// block's spans allocated them all on each run.
func TestDriveSpansMultiChunkAllocs(t *testing.T) {
	if core.RaceEnabled() {
		// Under the race detector sync.Pool drops pooled items at
		// random, so the pool refills make the count noise.
		t.Skip("allocation counts are not deterministic under -race")
	}
	p, err := core.CompileTransducer(htmltok.NewTransducer())
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewFromPlan(p, core.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	page := workload.HTMLPage(5, 4<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var spans int
	run := func() {
		spans = 0
		_, ds, err := r.DriveSpans(ctx, page, p.Machine().Start(), nil, nil, func(batch []core.Span) error {
			spans += len(batch)
			return nil
		})
		if err != nil || ds.Chunks < 2 {
			t.Fatalf("DriveSpans: %v over %d chunks, want a multi-chunk run", err, ds.Chunks)
		}
	}
	run() // fill the span buffer pool
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	spanBytes := uint64(spans) * 24
	t.Logf("%d spans (%d B) per run; %d B allocated per run", spans, spanBytes, perRun)
	if perRun > spanBytes/4 {
		t.Errorf("a run allocates %d B, over a quarter of its %d B of spans", perRun, spanBytes)
	}
}
