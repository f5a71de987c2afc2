package telemetry

import (
	"bufio"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file is a promtool-style lint for the text exposition, run as a
// plain Go test (no Prometheus dependency): every line must parse
// under the 0.0.4 text format, names must be legal, every series must
// be preceded by HELP/TYPE of its family, histogram buckets must be
// cumulative and capped by +Inf == _count, and label values must use
// only the three legal escapes.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// seriesRe splits "name{labels} value" / "name value", with an
	// optional OpenMetrics exemplar suffix ` # {labels} value ts`.
	seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)( # \{([^}]*)\} (\S+)(?: (\S+))?)?$`)
	// labelRe matches one k="v" pair with v already escaped.
	labelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\\\|\\"|\\n)*)"$`)
	hexRe   = regexp.MustCompile(`^[0-9a-f]{32}$`)
)

// fullMetrics builds a Metrics with every family populated, so the
// lint covers every exposition branch.
func fullMetrics() *Metrics {
	m := new(Metrics)
	m.Runs.Inc()
	m.Symbols.Add(1000)
	m.Gathers.Add(500)
	m.Shuffles.Add(2500)
	m.FactorCalls.Add(10)
	m.FactorWins.Add(7)
	m.ActiveHighWater.Observe(64)
	m.ActiveFinal.Observe(3)
	m.StrategySelected.Get("convergence").Inc()
	m.StrategyRuns.Get("convergence").Inc()
	// A hostile label value: quotes, backslash, newline, UTF-8.
	m.StrategyRuns.Get("we\"ird\\label\nwith Ünicode").Inc()
	m.StreamBlocks.Inc()
	m.StreamBytes.Add(4096)
	m.MulticoreRuns.Inc()
	m.Chunks.Add(4)
	m.ChunkBytes.Observe(1 << 20)
	m.Phase1Time.Observe(1_000_000)
	m.Phase2Time.Observe(10_000)
	m.Phase3Time.Observe(900_000)
	m.Phase3Skips.Inc()
	m.EngineJobs.Add(5)
	m.EngineJobErrors.Inc()
	m.EngineCanceled.Inc()
	m.EngineBatches.Inc()
	m.EngineSingleCore.Add(3)
	m.EngineMulticore.Add(2)
	m.EngineTransduce.Add(2)
	m.TransduceSpans.Add(40)
	m.TransduceOutputBytes.Add(2048)
	m.EngineQueueDepth.Set(4)
	m.EngineQueueHighWater.Observe(9)
	m.EngineJobBytes.Observe(256)
	m.EngineJobTime.Observe(50_000)
	m.EngineJobExemplars.Observe(50_000, lintTraceID, 1_700_000_000_123_456_789)
	for i := int64(1); i <= 100; i++ {
		m.EngineJobLatency.Observe(i * 1000)
	}
	return m
}

// lintTraceID is the retained trace the lint's exemplar points at.
const lintTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

func TestPrometheusExpositionLints(t *testing.T) {
	var sb strings.Builder
	fullMetrics().WritePrometheus(&sb)
	// The runtime bridge shares the exposition, so it must pass the
	// same lint: appended here exactly as the /v1/metrics handler
	// concatenates the two writers.
	WriteRuntimePrometheus(&sb)
	text := sb.String()

	type family struct{ help, typ string }
	families := map[string]family{}
	var current string
	seenSeries := map[string]bool{}
	seenExemplars := 0
	histBuckets := map[string][]struct {
		le  string
		val int64
	}{}

	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" {
			continue
		}
		if strings.HasPrefix(l, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(l, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("line %d: HELP without text: %q", line, l)
				continue
			}
			name := parts[0]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: invalid metric name %q", line, name)
			}
			f := families[name]
			f.help = parts[1]
			families[name] = f
			current = name
			continue
		}
		if strings.HasPrefix(l, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(l, "# TYPE "))
			if len(parts) != 2 {
				t.Errorf("line %d: malformed TYPE: %q", line, l)
				continue
			}
			name, typ := parts[0], parts[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: invalid type %q", line, typ)
			}
			f := families[name]
			f.typ = typ
			families[name] = f
			current = name
			continue
		}
		if strings.HasPrefix(l, "#") {
			t.Errorf("line %d: unknown comment %q", line, l)
			continue
		}

		mm := seriesRe.FindStringSubmatch(l)
		if mm == nil {
			t.Errorf("line %d: unparseable series line %q", line, l)
			continue
		}
		name, labels, value := mm[1], mm[3], mm[4]
		exLabels, exValue, exTs := mm[6], mm[7], mm[8]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: bad sample value %q", line, value)
		}

		// Series must belong to the family announced just above it
		// (histograms add _bucket/_sum/_count suffixes).
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if families[base].typ == "" && strings.HasSuffix(name, suf) {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if base != current {
			t.Errorf("line %d: series %s under family %s", line, name, current)
		}
		f, ok := families[base]
		if !ok || f.help == "" || f.typ == "" {
			t.Errorf("line %d: series %s missing HELP/TYPE", line, name)
		}
		if !strings.HasPrefix(name, "dpfsm_") {
			t.Errorf("line %d: series %s missing dpfsm_ prefix", line, name)
		}
		if f.typ == "counter" && !strings.HasSuffix(base, "_total") {
			t.Errorf("line %d: counter %s lacks _total suffix", line, base)
		}

		// Parse labels; each must be a legal name with a legally
		// escaped value.
		var le string
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Errorf("line %d: bad label pair %q", line, pair)
					continue
				}
				if !labelNameRe.MatchString(lm[1]) {
					t.Errorf("line %d: bad label name %q", line, lm[1])
				}
				if lm[1] == "le" {
					le = lm[2]
				}
			}
		}

		// OpenMetrics exemplar validation: only on _bucket lines, with
		// legal labels including a hex trace_id, a float value within
		// the bucket's le bound, and a parseable timestamp.
		if mm[5] != "" {
			if !strings.HasSuffix(name, "_bucket") {
				t.Errorf("line %d: exemplar on non-bucket series %s", line, name)
			}
			var traceID string
			for _, pair := range splitLabels(exLabels) {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Errorf("line %d: bad exemplar label pair %q", line, pair)
					continue
				}
				if lm[1] == "trace_id" {
					traceID = lm[2]
				}
			}
			if !hexRe.MatchString(traceID) {
				t.Errorf("line %d: exemplar trace_id %q is not 32 hex chars", line, traceID)
			}
			ev, err := strconv.ParseFloat(exValue, 64)
			if err != nil {
				t.Errorf("line %d: bad exemplar value %q", line, exValue)
			}
			if le != "" && le != "+Inf" {
				bound, _ := strconv.ParseFloat(le, 64)
				if ev > bound {
					t.Errorf("line %d: exemplar value %g above bucket le=%s", line, ev, le)
				}
			}
			if exTs != "" {
				if _, err := strconv.ParseFloat(exTs, 64); err != nil {
					t.Errorf("line %d: bad exemplar timestamp %q", line, exTs)
				}
			}
			seenExemplars++
		}

		key := name + "{" + labels + "}"
		if seenSeries[key] {
			t.Errorf("line %d: duplicate series %s", line, key)
		}
		seenSeries[key] = true

		if strings.HasSuffix(name, "_bucket") {
			v, _ := strconv.ParseInt(value, 10, 64)
			histBuckets[base] = append(histBuckets[base], struct {
				le  string
				val int64
			}{le, v})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Histogram buckets must be cumulative (non-decreasing) and end at
	// le="+Inf" equal to _count.
	for base, buckets := range histBuckets {
		last := buckets[len(buckets)-1]
		if last.le != "+Inf" {
			t.Errorf("%s: last bucket le=%q, want +Inf", base, last.le)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].val < buckets[i-1].val {
				t.Errorf("%s: bucket %d not cumulative: %d < %d", base, i, buckets[i].val, buckets[i-1].val)
			}
		}
	}

	// The hostile label survived with exactly the three legal escapes.
	if !strings.Contains(text, `strategy="we\"ird\\label\nwith Ünicode"`) {
		t.Error("hostile label value not escaped to the 0.0.4 convention")
	}
	if strings.Contains(text, `\u`) {
		t.Error("exposition contains \\u escapes (strconv.Quote leak)")
	}

	// Spot-check the new families exist.
	for _, want := range []string{
		"dpfsm_engine_job_ns", "dpfsm_engine_job_latency_ns",
	} {
		if families[want].typ == "" {
			keys := make([]string, 0, len(families))
			for k := range families {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			t.Errorf("family %s missing (have %v)", want, keys)
		}
	}
	if !seenSeries[`dpfsm_engine_job_latency_ns{quantile="0.99"}`] {
		t.Error("p99 latency series missing")
	}

	// fullMetrics recorded one exemplar; it must survive exposition on
	// the bucket whose bound admits it.
	if seenExemplars != 1 {
		t.Errorf("exemplars in exposition = %d, want 1", seenExemplars)
	}
	if !strings.Contains(text, `# {trace_id="`+lintTraceID+`"} 50000 1700000000.123456789`) {
		t.Error("engine_job_ns exemplar missing or malformed")
	}
}

// splitLabels splits `a="x",b="y"` respecting escaped quotes.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(s):
			cur.WriteByte(c)
			i++
			cur.WriteByte(s[i])
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func TestWindowQuantiles(t *testing.T) {
	var w Window
	// Empty window: all zeros.
	qs := w.Quantiles(0.5, 0.99)
	if qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("empty window quantiles %v", qs)
	}

	// 1..100: p50 rank ⌊0.5·100⌋ = index 50 → value 51.
	for i := int64(1); i <= 100; i++ {
		w.Observe(i)
	}
	qs = w.Quantiles(0, 0.5, 0.9, 0.99, 1)
	want := []int64{1, 51, 91, 100, 100}
	for i := range want {
		if qs[i] != want[i] {
			t.Errorf("quantile[%d] = %d, want %d (all %v)", i, qs[i], want[i], qs)
		}
	}
	if w.Count() != 100 {
		t.Errorf("count %d", w.Count())
	}

	// The window forgets: push windowSize large values and the old
	// small ones stop influencing p50.
	for i := 0; i < windowSize; i++ {
		w.Observe(1_000_000)
	}
	if got := w.Quantiles(0.5)[0]; got != 1_000_000 {
		t.Errorf("after shift p50 = %d, want 1000000", got)
	}

	// Nil-safety.
	var nw *Window
	nw.Observe(1)
	if nw.Count() != 0 || nw.Quantiles(0.5)[0] != 0 {
		t.Error("nil Window not inert")
	}
}

func TestWindowConcurrent(t *testing.T) {
	var w Window
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				w.Observe(int64(i))
				if i%100 == 0 {
					w.Quantiles(0.5, 0.99)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if w.Count() != 4000 {
		t.Fatalf("count %d", w.Count())
	}
}

// TestSnapshotLatencyFields checks the latency quantiles surface in
// Snapshot.
func TestSnapshotLatencyFields(t *testing.T) {
	m := new(Metrics)
	for i := int64(1); i <= 100; i++ {
		m.EngineJobLatency.Observe(i * 10)
		m.EngineJobTime.Observe(i * 10)
	}
	s := m.Snapshot()
	if s.EngineJobLatencyP50 != 510 || s.EngineJobLatencyP90 != 910 || s.EngineJobLatencyP99 != 1000 {
		t.Errorf("latency quantiles %d/%d/%d", s.EngineJobLatencyP50, s.EngineJobLatencyP90, s.EngineJobLatencyP99)
	}
	if s.EngineJobTime.Count != 100 || s.EngineJobTime.MaxNs != 1000 {
		t.Errorf("job time %+v", s.EngineJobTime)
	}
}
