package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/serverapi"
)

// TestStartQueryRejected: a ?start= that is not a plain decimal fitting
// fsm.State is a 400 bad_request on both job routes — not state 1 for
// "1x", not state 0 for a wrapped 65536.
func TestStartQueryRejected(t *testing.T) {
	srv, ts := testServer(t)
	srv.registerBuiltinTransducers()
	for _, start := range []string{"1x", "-1", "65536", "1e3", " 1"} {
		for _, route := range []string{"/v1/run?machine=sqli", "/v1/transduce?machine=htmltok"} {
			u := ts.URL + route + "&start=" + url.QueryEscape(start)
			resp, err := http.Post(u, "application/octet-stream", strings.NewReader("<p>x</p>"))
			if err != nil {
				t.Fatal(err)
			}
			var e serverapi.Error
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || e.Code != serverapi.CodeBadRequest {
				t.Errorf("%s start=%q: status %d body %+v (%v), want 400 %s",
					route, start, resp.StatusCode, e, err, serverapi.CodeBadRequest)
			}
		}
	}
}

// TestRunFirstMatchEveryLane: ?first=1 answers what
// core.Runner.FirstAccepting answers, on the single-core and multicore
// lanes, for no match, a match in the first chunk and a match in the
// last chunk — and the scan is the job's own (the telemetry counts the
// input once).
func TestRunFirstMatchEveryLane(t *testing.T) {
	srv, ts := tracedServer(t, 4, 64<<20)
	m := srv.engine.Machine("sqli")
	const hit = "UNION SELECT"
	for _, c := range []struct {
		lane string
		n    int
	}{{engine.LaneSingle, 4 << 10}, {engine.LaneMulticore, 2 << 20}} {
		for _, where := range []string{"none", "first", "last"} {
			input := bytes.Repeat([]byte("x"), c.n)
			switch where {
			case "first":
				copy(input[10:], hit)
			case "last":
				copy(input[c.n-len(hit)-10:], hit)
			}
			before := srv.metrics.Snapshot().Symbols
			resp, res := postRun(t, ts.URL+"/v1/run?machine=sqli&first=1", input, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d", c.lane, where, resp.StatusCode)
			}
			if res.Lane != c.lane {
				t.Fatalf("%s/%s: ran on lane %q (%s)", c.lane, where, res.Lane, res.SelectionReason)
			}
			if d := srv.metrics.Snapshot().Symbols - before; d != int64(c.n) {
				t.Errorf("%s/%s: telemetry counted %d symbols for a %d B first=1 run", c.lane, where, d, c.n)
			}
			// The oracle runs on the machine's own runner, so it counts
			// into the same telemetry: after the delta is taken.
			want := m.Runner().FirstAccepting(input, m.DFA().Start())
			if res.FirstMatch == nil || *res.FirstMatch != want || (want < 0) != (where == "none") {
				t.Errorf("%s/%s: first_match %v, FirstAccepting %d", c.lane, where, res.FirstMatch, want)
			}
		}
	}
}

// fuzzServer is the shared in-process server the fuzz targets drive.
func fuzzServer(f *testing.F) *server {
	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	return srv
}

// checkDecoded holds the decoder's contract on one outcome: an accepted
// job's start is the requested number (start, in decimal) and fits
// fsm.State; a rejection answers 400.
func checkDecoded(t *testing.T, job engine.Job, err error, start string) {
	t.Helper()
	if err != nil {
		if status := engineErrorStatus(err); status != http.StatusBadRequest {
			t.Fatalf("rejection %v answers %d, want 400", err, status)
		}
		return
	}
	if job.HasStart != (start != "") {
		t.Fatalf("start %q decoded HasStart=%v", start, job.HasStart)
	}
	if job.HasStart {
		n, err := strconv.ParseUint(start, 10, 64)
		if err != nil || n > uint64(^fsm.State(0)) || n != uint64(job.Start) {
			t.Fatalf("start %q decoded to state %d", start, job.Start)
		}
	}
}

// FuzzJobQuery feeds raw query strings to the /v1/run decoder and to
// the route itself: the decoder never panics, holds its contract, and
// the route answers a decoder rejection with 400 and never a 5xx.
func FuzzJobQuery(f *testing.F) {
	for _, seed := range []string{
		"", "machine=sqli", "machine=sqli&start=0&strategy=auto&first=1",
		"start=1x", "start=-1", "start=65536", "start=1e3", "start=%201", "start=65535",
		"strategy=warp", "strategy=range-coalesced", "machine=nope&first=", "start=1&start=2", "%zz",
	} {
		f.Add(seed)
	}
	srv := fuzzServer(f)
	h := srv.mux()
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as req.URL.Query: malformed pairs drop
		job, err := queryJob(q)
		checkDecoded(t, job, err, q.Get("start"))

		req := httptest.NewRequest(http.MethodPost, serverapi.Version+"/run", strings.NewReader("UNION SELECT"))
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code >= 500:
			t.Fatalf("query %q: status %d: %s", raw, rec.Code, rec.Body)
		case err != nil && srv.engine.Machine(q.Get("machine")) != nil && rec.Code != http.StatusBadRequest:
			t.Fatalf("query %q rejected (%v) but answered %d", raw, err, rec.Code)
		}
	})
}

// FuzzBatchLine feeds NDJSON lines to the /v1/batch line decoder: it
// never panics and holds the decoder's contract.
func FuzzBatchLine(f *testing.F) {
	for _, seed := range []string{
		`{"machine":"sqli","input":"id=1 UNION  SELECT x"}`,
		`{"input_b64":"kJCQkA=="}`,
		`{"input":"a","input_b64":"YQ=="}`,
		`{"input_b64":"!!"}`,
		`{"start":3,"strategy":"base","timeout_ms":5}`,
		`{"start":-1}`, `{"start":65536}`, `{"start":1e3}`, `{"start":"1"}`,
		`{"strategy":"warp"}`, `not json`, `{}`, `null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		job, err := parseBatchLine(line)
		start := ""
		if err == nil {
			var bj serverapi.BatchJob
			if json.Unmarshal(line, &bj) != nil {
				t.Fatalf("line %q accepted but does not decode", line)
			}
			if bj.Start != nil {
				start = strconv.Itoa(*bj.Start)
			}
		}
		checkDecoded(t, job, err, start)
	})
}
