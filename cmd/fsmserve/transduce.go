package main

// POST /v1/transduce: tokenize-as-a-service. The machine must carry an
// output table (registered as a transducer); the response streams
// NDJSON — a header line, one line per emitted span in input order,
// and a trailing summary — as the engine emits the spans: on the
// single-core lane block by block while phase 3 replays, so a client
// consumes token spans before the tail of a large input has been
// replayed; on the multi-chunk lanes once the fan-out is over. Each
// batch is encoded into one reused buffer (serverapi.AppendTransduceSpan)
// and written and flushed once. A failure after the first byte ends the
// stream with an error trailer instead of the summary. Dispatch,
// tracing, and metering match /v1/run: the engine picks the lane
// (single/multicore/speculative) and runs the machine's Auto-compiled
// plan on it, and every lane produces the exact sequential span list.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/trace"
	"dpfsm/internal/xmltok"
)

// registerBuiltinTransducers installs the compiled-in tokenizers as
// transducer machines. A name collision (a patterns file claiming
// "htmltok") leaves the pattern machine in place — explicit
// configuration outranks built-ins.
func (s *server) registerBuiltinTransducers() {
	builtins := []struct {
		name, desc string
		t          *fsm.Transducer
	}{
		{"htmltok", "(builtin HTML tokenizer)", htmltok.NewTransducer()},
		{"xmltok", "(builtin XML tokenizer)", xmltok.NewTransducer()},
	}
	for _, b := range builtins {
		if s.engine.Machine(b.name) != nil {
			continue
		}
		if _, err := s.engine.RegisterTransducer(b.name, b.t); err != nil {
			s.log.Warn("registering builtin transducer", "machine", b.name, "err", err)
			continue
		}
		s.mu.Lock()
		s.meta[b.name] = machineMeta{pattern: b.desc, source: "builtin"}
		s.mu.Unlock()
	}
}

// handleTransduce is POST /v1/transduce?machine=NAME[&start=Q][&trace=1].
func (s *server) handleTransduce(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST an input body to /v1/transduce")
		return
	}
	q := req.URL.Query()
	m := s.machineOr404(w, q.Get("machine"))
	if m == nil {
		return
	}
	input, err := readBody(w, req, s.maxBody)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("reading body: %v", err))
		return
	}
	job, err := queryJob(q)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	job.Machine, job.Input = m.Name(), input

	// The request context rides down to the chunk loops, as on /v1/run.
	// The stream commits (200, header line) at the first span batch, or
	// at success when there are none; an engine error before that gets
	// its usual status (an acceptor machine is ErrNotTransducer, 400).
	bufp := lineBufs.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() { *bufp = buf[:0]; lineBufs.Put(bufp) }()
	committed := false
	flusher, _ := w.(http.Flusher)
	send := func() error {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("%w: %v", errWrite, err)
		}
		buf = buf[:0]
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	commit := func() {
		committed = true
		w.Header().Set("Content-Type", "application/x-ndjson")
		buf = appendJSONLine(buf, serverapi.TransduceHeader{Machine: m.Name(), Kind: m.Kind().String(), Bytes: len(input)})
	}
	res := s.engine.TransduceTo(req.Context(), job, func(batch []core.Span) error {
		if !committed {
			commit()
		}
		for _, sp := range batch {
			buf = serverapi.AppendTransduceSpan(buf, serverapi.TransduceSpan{Start: sp.Start, End: sp.End, Out: int(sp.Out)})
		}
		return send()
	})
	if res.Err != nil {
		if !committed {
			writeEngineError(w, res.Err)
			return
		}
		// Mid-stream: the 200 is on the wire. End with the error trailer
		// and no summary, and record the status the failure would have
		// had for the access log, the SLO tracker and the trace.
		status := engineErrorStatus(res.Err)
		if sw, ok := w.(*statusWriter); ok {
			sw.status = status
		}
		buf = appendJSONLine(buf[:0], serverapi.TransduceErrorTrailer{Error: serverapi.ErrorDetail{
			Code: errorCode(status), Message: res.Err.Error(),
		}})
		_ = send() // best effort: the failure may be the connection itself
		return
	}
	if !committed {
		commit()
	}
	summary := serverapi.TransduceSummary{
		Spans:           res.Stats.Spans,
		OutputBytes:     res.Stats.SpanBytes,
		Bytes:           res.Bytes,
		Final:           res.Final,
		Accepts:         res.Accepts,
		Lane:            res.Lane,
		Multicore:       res.Multicore,
		Strategy:        res.Strategy,
		SelectionReason: res.Reason,
		Degraded:        res.Degraded,
		DurationNs:      int64(res.Duration),
	}
	if res.Duration > 0 {
		summary.MBPerS = float64(res.Bytes) / res.Duration.Seconds() / 1e6
	}
	if tr := trace.FromContext(req.Context()); tr != nil {
		summary.TraceID = tr.ID()
	}
	buf = appendJSONLine(buf, serverapi.TransduceTrailer{Summary: summary})
	_ = send()
}

// lineBufs recycles the NDJSON encode buffers of /v1/transduce across
// requests: a 64 KiB block's span lines run to a few hundred KiB, and
// Write does not keep the buffer.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// errWrite marks a failed response write: the client is gone.
var errWrite = errors.New("writing response")

// appendJSONLine appends v's JSON encoding and a newline, as
// json.Encoder writes it.
func appendJSONLine(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// The header and trailer types always encode.
		panic(err)
	}
	return append(append(dst, b...), '\n')
}
