package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/serverapi"
)

// errWrong marks a response whose answer differs from the oracle; it
// fails the whole run, not just the op.
var errWrong = errors.New("answer differs from the scalar oracle")

// op is one HTTP request of a workload and the check of its answer.
type op struct {
	path    string
	body    []byte
	inBytes int
	jobs    int
	// key names the in-process replay that pairs with this request
	// (pool index, batch index, or cycle position).
	key int
	// firstLine marks streamed NDJSON responses whose time to first
	// byte is the time to the first span line (the second line).
	firstLine bool
	check     func(resp []byte, s *sample) error
}

// sample is one completed (or failed) request as the client saw it.
type sample struct {
	key     int
	start   time.Time     // due (open loop) or sent (closed loop)
	latency time.Duration // due (open loop) or send (closed loop) → last byte
	ttfb    time.Duration // send → first response byte / first span line
	inBytes int
	resp    int
	jobs    int
	ok      bool
	machine string
	lane    string
	lanes   [3]int        // jobs per lane: single, multicore, speculative
	kernel  time.Duration // server-reported engine time (sum over a batch)
	queue   time.Duration // due → send (open loop)
	// Client-side spans, filled on traced requests only.
	upload, wait, download time.Duration
}

// roundTrip is the request's own time on the wire and in the server:
// send → last response byte, without the wait for its due time.
func (s *sample) roundTrip() time.Duration { return s.latency - s.queue }

// loadStats is the outcome of one measured window.
type loadStats struct {
	samples []sample
	// offered = completed + failed + shed.
	offered, failed, shed, wrong int64
	elapsed                      time.Duration
	late                         []time.Duration // open-loop generator lateness
	firstErr                     error
}

// client drives fsmserve over at most len(conns) keep-alive HTTP/1.1
// connections, one per load goroutine. A request is written and its
// response read on the goroutine that times it, with no transport
// goroutines handing it along, so the generator adds as few thread
// wake-ups and as little CPU as it can to the round trip it measures.
type client struct {
	addr  string // host:port
	conns []*conn
}

// conn is one keep-alive connection. head holds the request line and
// headers being sent; first is when the current response's first byte
// was read from the socket.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	head  []byte
	first time.Time
}

// Read stamps the first response byte; conn is the bufio.Reader's
// source.
func (cn *conn) Read(p []byte) (int, error) {
	n, err := cn.nc.Read(p)
	if n > 0 && cn.first.IsZero() {
		cn.first = time.Now()
	}
	return n, err
}

// opTimeout bounds one request, so a hung server fails the op instead
// of the run.
const opTimeout = time.Minute

func newClient(base string, conns int) *client {
	return &client{addr: strings.TrimPrefix(base, "http://"), conns: make([]*conn, conns)}
}

func (c *client) close() {
	for i, cn := range c.conns {
		if cn != nil {
			cn.nc.Close()
			c.conns[i] = nil
		}
	}
}

// do sends one op on connection w (dialled on first use, and again
// after an error) and reads the whole response into *buf. sent is the
// instant the request's first byte was handed to the socket; a traced
// request also records when it was fully written and when the first
// response byte arrived.
func (c *client) do(w int, o *op, traced bool, buf *[]byte, s *sample) (sent time.Time, err error) {
	cn := c.conns[w]
	if cn == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return time.Time{}, err
		}
		cn = &conn{nc: nc}
		cn.br = bufio.NewReaderSize(cn, 64<<10)
		c.conns[w] = cn
	}
	defer func() {
		if err != nil && !errors.Is(err, errWrong) {
			cn.nc.Close()
			c.conns[w] = nil
		}
	}()
	cn.head = fmt.Appendf(cn.head[:0], "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n", o.path, c.addr, len(o.body))
	if err := cn.nc.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return time.Time{}, err
	}
	cn.first = time.Time{}
	sent = time.Now()
	req := net.Buffers{cn.head, o.body}
	if _, err := req.WriteTo(cn.nc); err != nil {
		return sent, err
	}
	wrote := time.Now()
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return sent, err
	}
	headers := time.Now()
	b := (*buf)[:0]
	var firstLine time.Time
	lines := 0
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, rerr := resp.Body.Read(b[len(b):cap(b)])
		if o.firstLine && lines < 2 {
			// The header line, then the first span line.
			if lines += bytes.Count(b[len(b):len(b)+n], []byte{'\n'}); lines >= 2 {
				firstLine = time.Now()
			}
		}
		b = b[:len(b)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			*buf = b
			return sent, rerr
		}
	}
	last := time.Now()
	*buf = b
	if resp.Close {
		cn.nc.Close()
		c.conns[w] = nil
	}
	s.resp = len(b)
	s.ttfb = headers.Sub(sent)
	if o.firstLine && !firstLine.IsZero() {
		s.ttfb = firstLine.Sub(sent)
	}
	if traced {
		if cn.first.IsZero() {
			return sent, errors.New("no response byte read from the socket")
		}
		s.upload, s.wait, s.download = wrote.Sub(sent), cn.first.Sub(wrote), last.Sub(cn.first)
	}
	s.latency = last.Sub(sent)
	if resp.StatusCode != http.StatusOK {
		return sent, fmt.Errorf("%s: HTTP %d: %.200s", o.path, resp.StatusCode, b)
	}
	return sent, o.check(b, s)
}

// record adds one request's sample to st and classifies its failure.
func (st *loadStats) record(mu *sync.Mutex, s sample, err error) {
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		st.failed++
		if errors.Is(err, errWrong) {
			st.wrong++
		}
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	s.ok = err == nil
	st.samples = append(st.samples, s)
}

// shedAfter is how long an open-loop op may wait for a connection
// before the generator gives up on it and counts it as shed.
const shedAfter = time.Second

// openLoop offers ops at a fixed rate for dur over len(c.conns)
// connections. Op i is due at start + i·interval; each connection's
// goroutine takes the next op in order, sleeps until it is due if it
// is early, and sends it. An op taken late waited for a free
// connection: a stall that delays later requests shows up in their
// latency, which is timed from the due time, and an op taken shedAfter
// past its due time is shed. Generator lateness is how late the
// goroutine woke for an op it had slept for.
func openLoop(ctx context.Context, c *client, ops []op, rate float64, dur time.Duration, traced bool) *loadStats {
	st := &loadStats{}
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(dur / interval)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			var late []time.Duration
			defer func() {
				mu.Lock()
				st.late = append(st.late, late...)
				mu.Unlock()
			}()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if time.Now().Before(due) {
					sleepUntil(due)
					late = append(late, time.Since(due))
				} else if time.Since(due) > shedAfter {
					continue // shed: counted below as offered but never sent
				}
				o := &ops[int(i)%len(ops)]
				s := sample{key: o.key, inBytes: o.inBytes, jobs: o.jobs}
				sent, err := c.do(w, o, traced, &buf, &s)
				if sent.IsZero() {
					sent = due
				}
				s.start, s.queue = due, sent.Sub(due)
				s.latency += s.queue
				st.record(&mu, s, err)
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.offered = total
	st.shed = total - int64(len(st.samples))
	return st
}

// timerSlack is how late a nanosleep wakes on Linux (the default
// 50 µs thread timer slack plus the wake-up itself).
const timerSlack = 60 * time.Microsecond

// sleepUntil blocks the calling goroutine until t. The Go timer wakes
// at about millisecond granularity, too coarse for a schedule with
// sub-millisecond gaps, so this sleeps in the kernel until just before
// t and yields for the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up is finished by the loop below
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop sends ops back to back on every connection until dur
// has passed; requests in flight at the deadline complete and count.
// The connections take ops in order from a shared cursor.
func closedLoop(ctx context.Context, c *client, ops []op, dur time.Duration, traced bool) *loadStats {
	st := &loadStats{}
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(end) && ctx.Err() == nil {
				o := &ops[int(next.Add(1)-1)%len(ops)]
				s := sample{key: o.key, inBytes: o.inBytes, jobs: o.jobs}
				sent, err := c.do(w, o, traced, &buf, &s)
				s.start = sent
				st.record(&mu, s, err)
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.offered = int64(len(st.samples))
	return st
}

// sequential sends each op once, in order, on the first connection;
// used for warm-up, where every answer is still checked.
func sequential(ctx context.Context, c *client, ops []op) error {
	var buf []byte
	for i := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		var s sample
		if _, err := c.do(0, &ops[i], false, &buf, &s); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// runOps turns acceptor jobs into /v1/run requests checked against
// their oracle answers.
func runOps(jobs []runJob) []op {
	ops := make([]op, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		ops[i] = op{
			path:    "/v1/run?machine=" + j.Rule.Name,
			body:    j.Input,
			inBytes: len(j.Input),
			jobs:    1,
			key:     i,
			check: func(resp []byte, s *sample) error {
				var r serverapi.RunResult
				if err := json.Unmarshal(resp, &r); err != nil {
					return fmt.Errorf("decoding run result: %w", err)
				}
				if r.Machine != j.Rule.Name || r.Bytes != len(j.Input) || r.Final != j.Final || r.Accepts != j.Accepts {
					return fmt.Errorf("%w: machine %s %d B: got final %d accepts %v, want %d %v",
						errWrong, j.Rule.Name, len(j.Input), r.Final, r.Accepts, j.Final, j.Accepts)
				}
				s.machine, s.lane = r.Machine, r.Lane
				s.lanes[laneIndex(r.Lane)]++
				s.kernel = time.Duration(r.DurationNs)
				return nil
			},
		}
	}
	return ops
}

// batchOps turns batches into /v1/batch requests; every result line is
// checked by index and the trailer must count every job as OK.
func batchOps(batches []batch) []op {
	ops := make([]op, len(batches))
	for i := range batches {
		b := &batches[i]
		ops[i] = op{
			path:    "/v1/batch",
			body:    b.Body,
			inBytes: b.Bytes,
			jobs:    len(b.Jobs),
			key:     i,
			check: func(resp []byte, s *sample) error {
				seen := make([]bool, len(b.Jobs))
				trailer := false
				for _, line := range bytes.Split(bytes.TrimSpace(resp), []byte{'\n'}) {
					if bytes.HasPrefix(line, []byte(`{"summary"`)) {
						var t serverapi.BatchTrailer
						if err := json.Unmarshal(line, &t); err != nil {
							return fmt.Errorf("decoding batch trailer: %w", err)
						}
						if t.Summary.OK != len(b.Jobs) || t.Summary.Errors != 0 {
							return fmt.Errorf("batch summary: %d ok, %d errors of %d", t.Summary.OK, t.Summary.Errors, len(b.Jobs))
						}
						trailer = true
						continue
					}
					var r serverapi.BatchResult
					if err := json.Unmarshal(line, &r); err != nil {
						return fmt.Errorf("decoding batch line: %w", err)
					}
					if r.Error != "" {
						return fmt.Errorf("batch job %d: %s", r.Index, r.Error)
					}
					if r.Index < 0 || r.Index >= len(b.Jobs) || seen[r.Index] {
						return fmt.Errorf("%w: batch result index %d repeated or out of range", errWrong, r.Index)
					}
					seen[r.Index] = true
					j := &b.Jobs[r.Index]
					if r.Machine != j.Rule.Name || r.Final != j.Final || r.Accepts != j.Accepts || r.Bytes != len(j.Input) {
						return fmt.Errorf("%w: batch job %d (%s): got final %d accepts %v, want %d %v",
							errWrong, r.Index, j.Rule.Name, r.Final, r.Accepts, j.Final, j.Accepts)
					}
					s.lanes[laneIndex(r.Lane)]++
					s.kernel += time.Duration(r.DurationNs)
				}
				for i, ok := range seen {
					if !ok {
						return fmt.Errorf("%w: batch job %d has no result", errWrong, i)
					}
				}
				if !trailer {
					return errors.New("batch response has no summary trailer")
				}
				return nil
			},
		}
	}
	return ops
}

// tokOps turns transduce jobs into /v1/transduce requests whose span
// stream must equal the oracle's span list exactly.
func tokOps(jobs []tokJob) []op {
	ops := make([]op, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		ops[i] = op{
			path:      "/v1/transduce?machine=" + tokMachine,
			body:      j.Input,
			inBytes:   len(j.Input),
			jobs:      1,
			key:       i,
			firstLine: true,
			check: func(resp []byte, s *sample) error {
				return checkTransduce(resp, j, s)
			},
		}
	}
	return ops
}

func checkTransduce(resp []byte, j *tokJob, s *sample) error {
	nl := bytes.IndexByte(resp, '\n')
	if nl < 0 {
		return errors.New("transduce: no header line")
	}
	var h serverapi.TransduceHeader
	if err := json.Unmarshal(resp[:nl], &h); err != nil {
		return fmt.Errorf("decoding transduce header: %w", err)
	}
	if h.Machine != tokMachine || h.Bytes != len(j.Input) {
		return fmt.Errorf("%w: transduce header %+v", errWrong, h)
	}
	rest := resp[nl+1:]
	n := 0
	for {
		nl = bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return errors.New("transduce: stream ended without a summary")
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		if bytes.HasPrefix(line, []byte(`{"summary"`)) {
			var t serverapi.TransduceTrailer
			if err := json.Unmarshal(line, &t); err != nil {
				return fmt.Errorf("decoding transduce summary: %w", err)
			}
			if n != len(j.Spans) || t.Summary.Spans != n || t.Summary.Final != j.Final || t.Summary.Bytes != len(j.Input) {
				return fmt.Errorf("%w: transduce: %d spans (summary %d, final %d), want %d (final %d)",
					errWrong, n, t.Summary.Spans, t.Summary.Final, len(j.Spans), j.Final)
			}
			s.machine, s.lane = tokMachine, t.Summary.Lane
			s.lanes[laneIndex(t.Summary.Lane)]++
			s.kernel = time.Duration(t.Summary.DurationNs)
			return nil
		}
		sp, err := parseSpan(line)
		if err != nil {
			return err
		}
		if n >= len(j.Spans) || sp != j.Spans[n] {
			return fmt.Errorf("%w: transduce span %d: got %+v", errWrong, n, sp)
		}
		n++
	}
}

// parseSpan decodes one {"start":S,"end":E,"out":O} line. The fixed
// layout json.Encoder writes is parsed directly — a 4 MiB page streams
// hundreds of thousands of lines — and anything else falls back to
// encoding/json.
func parseSpan(line []byte) (core.Span, error) {
	var v [3]int
	rest := line
	ok := true
	for i, key := range [3]string{`{"start":`, `,"end":`, `,"out":`} {
		if !bytes.HasPrefix(rest, []byte(key)) {
			ok = false
			break
		}
		rest = rest[len(key):]
		k, n := 0, 0
		for k < len(rest) && k < 10 && rest[k] >= '0' && rest[k] <= '9' {
			n = n*10 + int(rest[k]-'0')
			k++
		}
		if k == 0 {
			ok = false
			break
		}
		v[i], rest = n, rest[k:]
	}
	if ok && string(rest) == "}" {
		return core.Span{Start: v[0], End: v[1], Out: fsm.Output(v[2])}, nil
	}
	var ts serverapi.TransduceSpan
	if err := json.Unmarshal(line, &ts); err != nil {
		return core.Span{}, fmt.Errorf("decoding span line %.80q: %w", line, err)
	}
	return core.Span{Start: ts.Start, End: ts.End, Out: fsm.Output(ts.Out)}, nil
}

// laneIndex maps a lane name to its slot in sample.lanes.
func laneIndex(lane string) int {
	switch lane {
	case engine.LaneMulticore:
		return 1
	case engine.LaneSpeculative:
		return 2
	default:
		return 0
	}
}
