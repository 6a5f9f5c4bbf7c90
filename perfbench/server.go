package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/membus"
)

const tenant = "bench"

// server is one oram-server process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	addr string
	out  lockedBuffer
	// exited closes when the process has been waited for; waitErr is
	// its exit status.
	exited  chan struct{}
	waitErr error
}

// lockedBuffer collects the server's output from exec's copy goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs the server with the workload's flags over a fresh
// data directory and waits until /healthz answers.
func startServer(bin, dir string, w *workload, blocks uint64) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-blocks", strconv.FormatUint(blocks, 10), "-blocksize", strconv.Itoa(blockSize)}
	args = append(args, w.serverFlags...)
	if w.fileStorage {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		args = append(args, "-dir", dir)
	}
	s := &server{addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = &s.out
	s.cmd.Stderr = &s.out
	// The server must not outlive the harness, whatever ends it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited before it was healthy (%v): %s", s.waitErr, s.out.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server never became healthy: %s", s.out.String())
		}
	}
}

// createTenant admits the benchmark's tenant.
func createTenant(addr string) error {
	req, err := http.NewRequest(http.MethodPut, "http://"+addr+"/v1/tenants/"+tenant, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("creating tenant: %s", resp.Status)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuSeconds reads the process's user plus system CPU time. Unlike
// wall time it does not count the time a virtual CPU is stolen by the
// host or the process waits for a CPU.
func (s *server) cpuSeconds() (float64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// stop drains the server with SIGTERM. A non-zero exit or a missing
// "drained cleanly" line is an error.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("server drain failed (%v): %s", s.waitErr, s.out.String())
		}
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("server did not drain within 60s")
	}
	if !strings.Contains(s.out.String(), "drained cleanly") {
		return fmt.Errorf("server exited without draining cleanly: %s", s.out.String())
	}
	return nil
}

// kill ends the server at once and waits for it; for error paths.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Kill() //nolint:errcheck // it may have exited meanwhile
	<-s.exited
}

// statsBody mirrors the fields of GET /v1/t/{name}/stats the benchmark
// reads.
type statsBody struct {
	Stats         core.Stats    `json:"stats"`
	Timing        *membus.Stats `json:"timing"`
	OnChipBytes   uint64        `json:"onchip_bytes"`
	ExternalBytes uint64        `json:"external_bytes"`
}

func tenantURL(addr string) string { return "http://" + addr + "/v1/t/" + tenant }

// runDir returns a fresh per-process scratch directory under work.
func runDir(work string) (string, error) {
	dir := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
