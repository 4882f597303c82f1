package main

import (
	"bufio"
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
)

// Load sizing: fixed constants, never scaled to the host.
const (
	labdWorkers = 2 // labd's default on a 2-CPU host, passed explicitly
	labdQueue   = 8
	procs       = 2 // GOMAXPROCS of labd, the reference server and the benchmark
	clients     = 2 // keep-alive connections of the load generator
)

// server is one labd instance under test, or the reference server.
type server struct {
	url string
	pid int // the process whose VmHWM is the server's peak RSS
	// stop shuts labd down gracefully and waits for it; a traced
	// instance returns its Chrome trace.
	stop func() ([]byte, error)
}

// starter launches a server; traced asks labd for a trace recording.
type starter func(traced bool) (*server, error)

// children tracks spawned processes so an early exit can stop them.
var children struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]bool
}

func trackChild(cmd *exec.Cmd, alive bool) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.procs == nil {
		children.procs = map[*exec.Cmd]bool{}
	}
	if alive {
		children.procs[cmd] = true
	} else {
		delete(children.procs, cmd)
	}
}

// killChildren stops every live child and waits for it, for exits that
// cannot stop them gracefully.
func killChildren() {
	children.mu.Lock()
	defer children.mu.Unlock()
	for cmd := range children.procs {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		delete(children.procs, cmd)
	}
}

// spawnLabd returns a starter that runs the labd binary at bin with its
// default flags plus -quiet, pinned to the fixed worker and queue sizes,
// on a free loopback port. Traced instances write their trace under
// workdir/trace.
func spawnLabd(bin, workdir string) starter {
	return func(traced bool) (*server, error) {
		if bin == "" {
			return nil, errors.New("classroom workloads need the labd binary: pass -labd")
		}
		return retrySpawn(func(addr string) (*server, error) {
			args := []string{"-addr", addr, "-quiet",
				"-workers", strconv.Itoa(labdWorkers), "-queue", strconv.Itoa(labdQueue)}
			var collect func(pid int) ([]byte, error)
			if traced {
				traceDir := filepath.Join(workdir, "trace", fmt.Sprintf("labd-%d", time.Now().UnixNano()))
				args = append(args, "-trace-dir", traceDir)
				collect = func(pid int) ([]byte, error) {
					return os.ReadFile(filepath.Join(traceDir, fmt.Sprintf("labd-trace-%d.json", pid)))
				}
			}
			return spawn("labd", bin, args, addr, collect)
		})
	}
}

// spawnReference returns a starter that runs this benchmark's own binary
// as the reference server (reference.go) on a free loopback port.
func spawnReference() starter {
	return func(bool) (*server, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		return retrySpawn(func(addr string) (*server, error) {
			return spawn("reference server", exe, []string{"reference", addr}, addr, nil)
		})
	}
}

// retrySpawn starts a server on a free port, trying a few ports in case
// another process takes one between the probe and the server's bind.
func retrySpawn(start func(addr string) (*server, error)) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s, err := start(fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// spawn runs bin with args as a server listening on addr, at the fixed
// GOMAXPROCS, and waits until it answers /healthz. collect, when not nil,
// reads what the process leaves behind after a graceful stop.
func spawn(name, bin string, args []string, addr string, collect func(pid int) ([]byte, error)) (*server, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping the child, for example
	// on a panic, the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	trackChild(cmd, true)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	finish := func() error {
		err := <-exited
		trackChild(cmd, false)
		return err
	}

	url := "http://" + addr
	if err := waitHealthy(name, url, exited); err != nil {
		_ = cmd.Process.Kill()
		_ = finish()
		return nil, err
	}
	stop := func() ([]byte, error) {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			trackChild(cmd, false)
			if err != nil {
				return nil, fmt.Errorf("%s exit: %w", name, err)
			}
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			_ = finish()
			return nil, fmt.Errorf("%s did not drain within 20s of SIGTERM", name)
		}
		if collect == nil {
			return nil, nil
		}
		return collect(cmd.Process.Pid)
	}
	return &server{url: url, pid: cmd.Process.Pid, stop: stop}, nil
}

// waitHealthy polls GET /healthz until it answers 200, the child exits,
// or 10 s pass.
func waitHealthy(name, url string, exited <-chan error) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return fmt.Errorf("%s exited before /healthz answered: %v", name, err)
		default:
		}
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s /healthz did not answer 200 within 10s", name)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
