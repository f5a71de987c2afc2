package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpfsm/internal/engine"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/serverapi"
)

// transduceNDJSON posts body to /v1/transduce and decodes the stream
// into header, span lines, and trailer.
func transduceNDJSON(t *testing.T, ts *httptest.Server, query, body string) (serverapi.TransduceHeader, []serverapi.TransduceSpan, serverapi.TransduceTrailer) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/transduce"+query, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var (
		header  serverapi.TransduceHeader
		spans   []serverapi.TransduceSpan
		trailer serverapi.TransduceTrailer
		line    int
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		switch {
		case line == 0:
			if err := json.Unmarshal(raw, &header); err != nil || header.Machine == "" {
				t.Fatalf("bad header line %s: %v", raw, err)
			}
		case bytes.Contains(raw, []byte(`"summary"`)):
			if err := json.Unmarshal(raw, &trailer); err != nil {
				t.Fatalf("bad trailer %s: %v", raw, err)
			}
		default:
			var sp serverapi.TransduceSpan
			if err := json.Unmarshal(raw, &sp); err != nil {
				t.Fatalf("bad span line %s: %v", raw, err)
			}
			spans = append(spans, sp)
		}
		line++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return header, spans, trailer
}

func TestTransduceEndpoint(t *testing.T) {
	srv, err := newServer(nil, 2, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.registerBuiltinTransducers()
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	doc := `<p class="x">hi &amp; bye</p><!-- c -->`
	header, spans, trailer := transduceNDJSON(t, ts, "?machine=htmltok", doc)
	if header.Machine != "htmltok" || header.Kind != "mealy" || header.Bytes != len(doc) {
		t.Fatalf("header %+v", header)
	}
	if trailer.Summary.Spans != len(spans) || len(spans) == 0 {
		t.Fatalf("trailer says %d spans, stream carried %d", trailer.Summary.Spans, len(spans))
	}

	// The stream must agree with the library tokenizer exactly.
	tok, err := htmltok.NewTokenizer()
	if err != nil {
		t.Fatal(err)
	}
	want := tok.Tokenize([]byte(doc))
	if len(want) != len(spans) {
		t.Fatalf("%d spans, library tokenizer says %d", len(spans), len(want))
	}
	var covered int64
	for i, sp := range spans {
		if sp.Start != want[i].Start || sp.End != want[i].End || sp.Out != int(want[i].Type) {
			t.Fatalf("span %d = %+v, want %+v", i, sp, want[i])
		}
		covered += int64(sp.End - sp.Start)
	}
	if trailer.Summary.OutputBytes != covered {
		t.Fatalf("summary output_bytes %d, spans cover %d", trailer.Summary.OutputBytes, covered)
	}

	// A ?strategy= is ignored: the summary reports the plan's strategy
	// and the spans are the same.
	_, spans2, tr2 := transduceNDJSON(t, ts, "?machine=htmltok&strategy=base", doc)
	if plan := srv.engine.Machine("htmltok").Plan().Strategy().String(); tr2.Summary.Strategy != plan || tr2.Summary.Spans != len(spans) || len(spans2) != len(spans) {
		t.Fatalf("?strategy=base ran %q with %d spans, want the plan's %q with %d", tr2.Summary.Strategy, len(spans2), plan, len(spans))
	}

	// Acceptor machines reject transduce with a bad_request envelope.
	resp, err := http.Post(ts.URL+"/v1/transduce?machine=sqli", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("acceptor transduce: status %d", resp.StatusCode)
	}
	var envelope serverapi.Error
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Code != serverapi.CodeBadRequest {
		t.Fatalf("acceptor transduce envelope: %+v err %v", envelope, err)
	}
}

// TestStatusReportsMachineKind is the registry-truthfulness check: the
// /v1/machines entries and each machine's /profile document must
// distinguish acceptors from transducers and size the λ table, and
// /v1/status counts both kinds.
func TestStatusReportsMachineKind(t *testing.T) {
	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.registerBuiltinTransducers()
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st serverapi.Status
	decodeInto(t, resp, &st)
	infos := machineInfos(t, ts)
	if st.Machines != len(infos) {
		t.Fatalf("status counts %d machines, /v1/machines lists %d", st.Machines, len(infos))
	}
	for name, want := range map[string]string{"sqli": "acceptor", "htmltok": "mealy"} {
		resp, err := http.Get(ts.URL + "/v1/machines/" + name + "/profile")
		if err != nil {
			t.Fatal(err)
		}
		var mp serverapi.MachineProfile
		decodeInto(t, resp, &mp)
		if mp.Machine.Kind != want || (mp.Machine.OutputTableBytes == 0) != (want == "acceptor") {
			t.Fatalf("%s profile machine %+v, want kind %s", name, mp.Machine, want)
		}
	}
	if in := infos["htmltok"]; in.Kind != "mealy" || in.OutputTableBytes == 0 || in.Source != "builtin" {
		t.Fatalf("htmltok machine info %+v", in)
	}
	if in := infos["sqli"]; in.Kind != "acceptor" || in.OutputTableBytes != 0 {
		t.Fatalf("sqli machine info %+v", in)
	}
}

// htmlPage repeats a small document with every token kind to n bytes.
func htmlPage(n int) []byte {
	doc := []byte(`<div id="a" class='b c'>text &amp; more<!-- note --><br/><script>x<y</script></div>` + "\n")
	return bytes.Repeat(doc, n/len(doc)+1)[:n]
}

// TestTransduceBodyGolden pins the wire format: the whole body for a
// fixed page — header, span lines, summary — is byte for byte what
// json.Encoder writes for the same values, for an empty page, a small
// one, and one the single lane streams in several blocks.
func TestTransduceBodyGolden(t *testing.T) {
	srv, err := newServer(nil, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.registerBuiltinTransducers()
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	tok, err := htmltok.NewTokenizer()
	if err != nil {
		t.Fatal(err)
	}

	for _, page := range [][]byte{nil, htmlPage(300), htmlPage(200 << 10)} {
		resp, err := http.Post(ts.URL+"/v1/transduce?machine=htmltok", "text/html", bytes.NewReader(page))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d-byte page: status %d: %s", len(page), resp.StatusCode, body)
		}
		last := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n')
		var trailer serverapi.TransduceTrailer
		if err := json.Unmarshal(body[last+1:], &trailer); err != nil {
			t.Fatalf("%d-byte page: summary line: %v", len(page), err)
		}

		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		_ = enc.Encode(serverapi.TransduceHeader{Machine: "htmltok", Kind: "mealy", Bytes: len(page)})
		for _, tk := range tok.TokenizeTable(page) {
			_ = enc.Encode(serverapi.TransduceSpan{Start: tk.Start, End: tk.End, Out: int(tk.Type)})
		}
		_ = enc.Encode(trailer)
		if !bytes.Equal(body, want.Bytes()) {
			i := 0
			for i < len(body) && i < want.Len() && body[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("%d-byte page: body differs from json.Encoder's at byte %d of %d (want %d): got %.60q want %.60q",
				len(page), i, len(body), want.Len(), body[i:], want.Bytes()[i:])
		}
	}
}

// TestTransduceShutdownMidStream runs a page far larger than the socket
// buffers on the single lane (procs=1), reads the first span line, shuts the
// engine down and reads on: the stream must end with one error trailer
// and no summary, and the access log must record the 503 the failure
// would have had instead of the 200 already sent.
func TestTransduceShutdownMidStream(t *testing.T) {
	srv, err := newServer(nil, 1, 64<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	logBuf := &syncBuffer{}
	srv.log = slog.New(slog.NewJSONHandler(logBuf, nil))
	srv.registerBuiltinTransducers()
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	page := htmlPage(12 << 20) // about 4 output bytes per input byte
	resp, err := http.Post(ts.URL+"/v1/transduce?machine=htmltok", "text/html", bytes.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ { // the header line, then the first span line
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.engine.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(rest, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	var failure serverapi.TransduceErrorTrailer
	if err := json.Unmarshal(last, &failure); err != nil || failure.Error.Code != serverapi.CodeCanceled ||
		!strings.Contains(failure.Error.Message, engine.ErrClosed.Error()) {
		t.Fatalf("last line %q (err %v), want a canceled error trailer naming ErrClosed", last, err)
	}
	for _, line := range lines[:len(lines)-1] {
		var sp serverapi.TransduceSpan
		if bytes.Contains(line, []byte(`"summary"`)) || bytes.Contains(line, []byte(`"error"`)) || json.Unmarshal(line, &sp) != nil {
			t.Fatalf("non-span line %q before the trailer", line)
		}
	}
	if len(rest) > 2*len(page) {
		t.Fatalf("%d bytes after shutdown: the stream was not cut", len(rest))
	}
	rec := waitAccessLines(t, logBuf, "/v1/transduce")["/v1/transduce"]
	if got := rec["status"]; got != float64(http.StatusServiceUnavailable) {
		t.Fatalf("access log status %v, want 503", got)
	}
}
