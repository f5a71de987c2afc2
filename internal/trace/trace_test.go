package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewIDsAreDistinctHex(t *testing.T) {
	a, b := New(), New()
	if a.ID() == b.ID() {
		t.Fatalf("two traces share ID %s", a.ID())
	}
	if len(a.ID()) != 32 || !isHex(a.ID()) {
		t.Fatalf("bad trace ID %q", a.ID())
	}
	if !strings.HasPrefix(a.Traceparent(), "00-"+a.ID()+"-") {
		t.Fatalf("traceparent %q does not carry trace ID", a.Traceparent())
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	id, parent, err := ParseTraceparent(valid)
	if err != nil {
		t.Fatal(err)
	}
	if id != "4bf92f3577b34da6a3ce929d0e0e4736" || parent != "00f067aa0ba902b7" {
		t.Fatalf("got id=%s parent=%s", id, parent)
	}

	invalid := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4bf92f3577b34da6a3ce929d0e0e47ZZ-00f067aa0ba902b7-01",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01garbage",
	}
	// A later version may carry more fields after a '-'.
	if _, _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); err != nil {
		t.Errorf("version-01 header with an appended field: %v", err)
	}
	for _, h := range invalid {
		if _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed header", h)
		}
	}
}

func TestFromParentContinuesInboundTrace(t *testing.T) {
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr := FromParent(h)
	if tr.ID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("FromParent kept ID %s", tr.ID())
	}
	if tr.parent != "00f067aa0ba902b7" {
		t.Fatalf("FromParent parent %s", tr.parent)
	}
	// A malformed header falls back to a fresh trace instead of failing.
	if got := FromParent("garbage"); got == nil || got.ID() == "" {
		t.Fatal("FromParent(garbage) did not fall back to New")
	}
}

func TestSpanTreeJSON(t *testing.T) {
	tr := New()
	tr.SetName("POST /v1/run")
	tr.SetAttrs(Str("machine", "sqli"), Int("bytes", 4096))

	root := tr.StartSpan("engine.exec")
	root.SetAttrs(Str("lane", "multicore"), Bool("ok", true), Float("mbps", 123.5))
	c1 := root.Child("core.phase1.chunk")
	c1.SetAttrs(Int("chunk", 0))
	c1.End()
	c2 := root.Child("core.phase1.chunk")
	c2.SetAttrs(Int("chunk", 1))
	c2.End()
	root.End()
	tr.Finish()

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceID    string         `json:"trace_id"`
		Name       string         `json:"name"`
		DurationNs int64          `json:"duration_ns"`
		Attrs      map[string]any `json:"attrs"`
		Spans      []struct {
			Name     string         `json:"name"`
			Attrs    map[string]any `json:"attrs"`
			Children []struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != tr.ID() || doc.Name != "POST /v1/run" {
		t.Fatalf("doc header %+v", doc)
	}
	if doc.DurationNs <= 0 {
		t.Fatalf("finished trace has duration %d", doc.DurationNs)
	}
	if doc.Attrs["machine"] != "sqli" || doc.Attrs["bytes"] != float64(4096) {
		t.Fatalf("trace attrs %v", doc.Attrs)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "engine.exec" {
		t.Fatalf("root spans %+v", doc.Spans)
	}
	if got := doc.Spans[0].Attrs["ok"]; got != true {
		t.Fatalf("bool attr %v", got)
	}
	if len(doc.Spans[0].Children) != 2 {
		t.Fatalf("children %+v", doc.Spans[0].Children)
	}
	if doc.Spans[0].Children[1].Attrs["chunk"] != float64(1) {
		t.Fatalf("child attrs %v", doc.Spans[0].Children[1].Attrs)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New()
	root := tr.StartSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.Child("worker")
			s.SetAttrs(Int("i", int64(i)))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	tr.Finish()
	if got := len(tr.Spans()); got != 33 {
		t.Fatalf("got %d spans, want 33", got)
	}
	if _, err := json.Marshal(tr); err != nil {
		t.Fatal(err)
	}
}

func TestSpanCapDrops(t *testing.T) {
	tr := New()
	tr.maxSpans = 4
	for i := 0; i < 10; i++ {
		tr.StartSpan("s").End()
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("retained %d spans, want 4", got)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tr.Dropped())
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	var sp *Span
	// None of these may panic.
	tr.SetName("x")
	tr.SetAttrs(Int("a", 1))
	tr.Finish()
	tr.SetError("boom")
	sp = tr.StartSpan("s")
	sp.SetAttrs(Str("k", "v"))
	sp.End()
	if c := sp.Child("c"); c != nil {
		t.Fatal("nil span produced non-nil child")
	}
	if tr.ID() != "" || tr.Duration() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace reads are not zero")
	}
}

func TestContextPlumbing(t *testing.T) {
	// No trace: Start is an identity with a nil span.
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil || ctx2 != ctx {
		t.Fatal("Start without a trace was not a no-op")
	}
	if FromContext(ctx) != nil || FromContext(nil) != nil {
		t.Fatal("FromContext invented a trace")
	}

	tr := New()
	ctx = NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the trace")
	}
	ctx, outer := Start(ctx, "outer")
	if outer == nil {
		t.Fatal("Start returned nil span with trace attached")
	}
	_, inner := Start(ctx, "inner")
	inner.End()
	outer.End()
	views := tr.Spans()
	if len(views) != 2 {
		t.Fatalf("spans %d", len(views))
	}
	if views[1].Parent != views[0].ID {
		t.Fatalf("inner span parent %d, want %d", views[1].Parent, views[0].ID)
	}
}

func TestUntracedPathAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, sp := Start(ctx, "hot")
		sp.SetAttrs(Int("n", 1))
		sp.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Fatalf("untraced Start allocated %v times per run", allocs)
	}
}

func TestRecorderRingAndFind(t *testing.T) {
	r := NewRecorder(4)
	var ids []string
	for i := 0; i < 6; i++ {
		tr := New()
		tr.SetName(fmt.Sprintf("t%d", i))
		r.Record(tr)
		ids = append(ids, tr.ID())
	}
	if r.Total() != 6 || r.Cap() != 4 {
		t.Fatalf("total %d cap %d", r.Total(), r.Cap())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot %d traces, want 4", len(snap))
	}
	// Newest first: t5, t4, t3, t2.
	for i, want := range []string{"t5", "t4", "t3", "t2"} {
		if snap[i].Name() != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, snap[i].Name(), want)
		}
	}
	// Evicted traces are gone; retained ones findable.
	if r.Find(ids[0]) != nil {
		t.Fatal("evicted trace still findable")
	}
	if got := r.Find(ids[5]); got == nil || got.ID() != ids[5] {
		t.Fatal("retained trace not findable")
	}
	if r.Find("") != nil || r.Find("nope") != nil {
		t.Fatal("Find invented a trace")
	}
	// Record finishes unfinished traces.
	if !snap[0].Finished() {
		t.Fatal("recorded trace left unfinished")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr := New()
				tr.Finish()
				r.Record(tr)
				r.Snapshot()
				r.Find(tr.ID())
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("total %d", r.Total())
	}
}

func TestDurationLiveAndFinished(t *testing.T) {
	tr := New()
	time.Sleep(time.Millisecond)
	live := tr.Duration()
	if live <= 0 {
		t.Fatal("live duration not positive")
	}
	tr.Finish()
	d1 := tr.Duration()
	time.Sleep(time.Millisecond)
	if tr.Duration() != d1 {
		t.Fatal("duration moved after Finish")
	}
}

// FuzzTraceparent drives the inbound traceparent parser with arbitrary
// headers. It must never panic, and what it accepts must be the W3C
// fields: a non-ff hex version, a 32- and a 16-hex-char non-zero ID at
// their fixed offsets and hex flags, with nothing after them in version
// 00 and only a '-'-led suffix in later versions; FromParent then
// continues the accepted trace.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		id, parent, err := ParseTraceparent(h)
		tr := FromParent(h)
		if len(tr.ID()) != 32 || !isHex(tr.ID()) {
			t.Fatalf("FromParent(%q) has trace ID %q", h, tr.ID())
		}
		if err != nil {
			if id != "" || parent != "" {
				t.Fatalf("rejected %q but returned fields %q, %q", h, id, parent)
			}
			return
		}
		if len(h) < 55 || h[:2] == "ff" || !isHex(h[:2]) || !isHex(h[53:55]) {
			t.Fatalf("accepted %q with a bad version or flags", h)
		}
		if (h[:2] == "00" && len(h) != 55) || (len(h) > 55 && h[55] != '-') {
			t.Fatalf("accepted %q with trailing data", h)
		}
		if id != h[3:35] || parent != h[36:52] || !isHex(id) || !isHex(parent) || allZero(id) || allZero(parent) {
			t.Fatalf("accepted %q as id %q parent %q", h, id, parent)
		}
		if tr.ID() != id {
			t.Fatalf("FromParent(%q) started trace %q, want %q", h, tr.ID(), id)
		}
	})
}
