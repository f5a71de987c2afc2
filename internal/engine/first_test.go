package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/telemetry"
)

// stickyDFA accepts from the first 1 symbol on: its first accepting
// position is the index of the first 1.
func stickyDFA() *fsm.DFA {
	d := fsm.MustNew(2, 2)
	d.SetColumn(0, []fsm.State{0, 1})
	d.SetColumn(1, []fsm.State{1, 1})
	d.SetAccepting(1, true)
	return d
}

// zerosWithOne is n zero symbols with a 1 at pos (none when pos < 0).
func zerosWithOne(n, pos int) []byte {
	in := make([]byte, n)
	if pos >= 0 {
		in[pos] = 1
	}
	return in
}

// TestFirstJobEveryLane runs First jobs on every local lane — single
// (under the Auto plan and under a Base plan) and multicore — with no
// match, a match in the first chunk and a match in the last chunk, and
// checks the answer against core.Runner.FirstAccepting and the final
// state against the sequential walk.
func TestFirstJobEveryLane(t *testing.T) {
	d := stickyDFA()
	store := perfprofile.NewStore("")
	e := New(WithWorkers(4), WithProcs(4), WithLargeInput(4096),
		WithTelemetry(new(telemetry.Metrics)), WithPerfProfiles(store))
	defer e.Close()
	m, err := e.Register("sticky", d, core.WithMinChunk(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("sticky-base", d, core.WithStrategy(core.Base)); err != nil {
		t.Fatal(err)
	}
	oracle := m.Runner()

	run := func(lane string, job Job) {
		t.Helper()
		n := len(job.Input)
		for _, pos := range []int{-1, 3, n - 5} {
			job.Input = zerosWithOne(n, pos)
			job.First = true
			res := e.Run(context.Background(), job)
			if res.Err != nil {
				t.Fatalf("%s pos %d: %v", lane, pos, res.Err)
			}
			if res.Lane != lane {
				t.Fatalf("%s pos %d: ran on lane %q (%s)", lane, pos, res.Lane, res.Reason)
			}
			if want := oracle.FirstAccepting(job.Input, d.Start()); res.FirstMatch != want || want != pos {
				t.Errorf("%s pos %d: first match %d, FirstAccepting %d", lane, pos, res.FirstMatch, want)
			}
			if want := d.Run(job.Input, d.Start()); res.Final != want || res.Accepts != d.Accepting(want) {
				t.Errorf("%s pos %d: final %d accepts %v, want %d", lane, pos, res.Final, res.Accepts, want)
			}
		}
	}
	run(LaneSingle, Job{Machine: "sticky", Input: make([]byte, 1000)})
	run(LaneSingle, Job{Machine: "sticky-base", Input: make([]byte, 1000)})
	run(LaneMulticore, Job{Machine: "sticky", Input: make([]byte, 64<<10)})
}

// pollCtx is a cancelable context whose Err starts reporting
// cancellation after a number of polls: a cancel that lands mid-run.
type pollCtx struct {
	context.Context
	polls atomic.Int32
	after int32
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestFirstJobCanceled: a First job answers its context's error, both
// when the context is done before the job starts and when it is
// canceled while the first-accept scan runs.
func TestFirstJobCanceled(t *testing.T) {
	d := stickyDFA()
	e := New(WithWorkers(2), WithProcs(4), WithLargeInput(4096))
	defer e.Close()
	if _, err := e.Register("sticky", d, core.WithMinChunk(512)); err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{100, 64 << 10} {
		res := e.Run(done, Job{Machine: "sticky", Input: make([]byte, n), First: true})
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("%d B on a canceled context: err %v", n, res.Err)
		}
	}

	// 1 MiB of zeros on the single lane (procs=1) is 16 blocks of 64 KiB,
	// each polling the context: the cancel lands mid-scan.
	single := New(WithWorkers(1), WithProcs(1))
	defer single.Close()
	if _, err := single.Register("sticky", d); err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	ctx := &pollCtx{Context: live, after: 4}
	res := single.Run(ctx, Job{Machine: "sticky", Input: make([]byte, 1<<20), First: true})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("canceled mid-scan: err %v", res.Err)
	}
	if polls := ctx.polls.Load(); polls > 8 {
		t.Errorf("scan ran on after cancellation: %d polls", polls)
	}
}

// TestFirstJobSymbolsMatchTelemetry: a First job scans its input once,
// inside the job, so the record's Symbols is the telemetry delta.
func TestFirstJobSymbolsMatchTelemetry(t *testing.T) {
	d := stickyDFA()
	tel := new(telemetry.Metrics)
	e := New(WithWorkers(2), WithProcs(4), WithLargeInput(4096), WithTelemetry(tel))
	defer e.Close()
	if _, err := e.Register("sticky", d, core.WithMinChunk(512)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1000, 64 << 10} {
		before := tel.Snapshot().Symbols
		res := e.Run(context.Background(), Job{Machine: "sticky", Input: zerosWithOne(n, n/2), First: true})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		delta := tel.Snapshot().Symbols - before
		if res.Stats.Symbols != delta || delta != int64(n) {
			t.Errorf("%d B on lane %s: record Symbols %d, telemetry delta %d", n, res.Lane, res.Stats.Symbols, delta)
		}
	}
}
