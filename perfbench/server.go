package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one fsmserve process started for a run.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
	// exited closes when the process has been reaped.
	exited chan struct{}
}

// serverArgs are the flags every run passes: a listen address and the
// generated patterns file. Everything else stays at fsmserve's
// defaults (procs = NumCPU, -strategy auto, access log on stderr,
// which is sent to the null device).
func serverArgs(addr, patterns string) []string {
	return []string{"-addr", addr, "-patterns-file", patterns}
}

// startServer spawns fsmserve and waits for /readyz to answer 200,
// returning the process and the time from spawn to ready. A port lost
// to a race with another listener is retried on a fresh one.
func startServer(ctx context.Context, bin, patterns string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, setup, err := tryStart(ctx, bin, patterns)
		if err == nil {
			return s, setup, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStart(ctx context.Context, bin, patterns string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer devnull.Close()
	cmd := exec.Command(bin, serverArgs(addr, patterns)...)
	cmd.Stdout = devnull
	cmd.Stderr = devnull
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting fsmserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("fsmserve exited before ready (%v)", cmd.ProcessState)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("fsmserve not ready after 60s")
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after ten
// seconds, and returns once the process has been reaped.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// procCPU returns the server's user+system CPU time so far, from
// /proc/PID/stat (all threads, in clock ticks of 10 ms).
func (s *server) procCPU() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	const tick = 10 * time.Millisecond // USER_HZ = 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// peakRSS returns the server's VmHWM (peak resident set) in MB.
func (s *server) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
