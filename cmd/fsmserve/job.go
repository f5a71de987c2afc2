package main

// The one job decoder: the query string of /v1/run and /v1/transduce
// and each /v1/batch line decode into an engine.Job here. The decoder
// checks only what the wire carries (a start state that fits
// fsm.State); whether the machine exists and the start state is one of
// its states are the engine's checks (ErrUnknownMachine, ErrBadStart).
// A job picks no strategy: it runs its machine's compiled plan.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/serverapi"
)

// badRequest is a decode failure: the request, not the service, is at
// fault, so it answers 400 (engineErrorStatus).
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Sprintf(format, args...)}
}

// jobFields are one job's fields as they arrive, before validation.
type jobFields struct {
	machine string
	// start is a decimal state number; "" keeps the machine's start.
	start string
	first bool
}

// decodeJob turns wire fields into an engine job (Input unset).
func decodeJob(f jobFields) (engine.Job, error) {
	job := engine.Job{Machine: f.machine, First: f.first}
	if f.start != "" {
		// A start state is a plain decimal that fits fsm.State: no sign,
		// no suffix, and no wrap-around of 65536 to state 0.
		q, err := strconv.ParseUint(f.start, 10, 64)
		if err != nil || q > uint64(^fsm.State(0)) {
			return engine.Job{}, badRequestf("bad start state %q", f.start)
		}
		job.Start, job.HasStart = fsm.State(q), true
	}
	return job, nil
}

// queryJob decodes the ?machine=&start=&first= query of /v1/run and
// /v1/transduce.
func queryJob(q url.Values) (engine.Job, error) {
	return decodeJob(jobFields{
		machine: q.Get("machine"),
		start:   q.Get("start"),
		first:   q.Get("first") != "",
	})
}

// parseBatchLine decodes one /v1/batch NDJSON request line.
func parseBatchLine(line []byte) (engine.Job, error) {
	var bj serverapi.BatchJob
	if err := json.Unmarshal(line, &bj); err != nil {
		return engine.Job{}, badRequestf("bad job line: %v", err)
	}
	f := jobFields{machine: bj.Machine}
	if bj.Start != nil {
		f.start = strconv.Itoa(*bj.Start)
	}
	job, err := decodeJob(f)
	if err != nil {
		return engine.Job{}, err
	}
	job.Timeout = time.Duration(bj.TimeoutMs) * time.Millisecond
	switch {
	case bj.InputB64 != "" && bj.Input != "":
		return engine.Job{}, badRequestf("bad job line: both input and input_b64 set")
	case bj.InputB64 != "":
		raw, err := base64.StdEncoding.DecodeString(bj.InputB64)
		if err != nil {
			return engine.Job{}, badRequestf("bad input_b64: %v", err)
		}
		job.Input = raw
	default:
		job.Input = []byte(bj.Input)
	}
	return job, nil
}
