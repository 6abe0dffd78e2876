package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Started server processes, so every exit path stops and reaps them.
var (
	childMu  sync.Mutex
	children = map[*exec.Cmd]bool{}
)

func init() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(1)
	}()
}

// stopChildren kills and waits for every server still running.
func stopChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for cmd := range children {
		cmd.Process.Kill()
		cmd.Wait()
		delete(children, cmd)
	}
}

// serveProc is one running sp2bserve process.
type serveProc struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	debug string // debug listener (/metrics)
	pid   string
	log   *os.File
}

// startServer launches sp2bserve over the set-up's snapshot with the
// native-vec engine and waits until /healthz answers 200. It returns
// the time from launch to readiness.
func startServer(c *config) (*serveProc, time.Duration, error) {
	if c.serve == "" {
		return nil, 0, fmt.Errorf("HTTP workloads need -serve <sp2bserve binary>")
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-d", snapshotPath(c), "-addr", "127.0.0.1:" + port,
		"-debug-addr", "127.0.0.1:" + dport, "-engine", "native-vec", "-quiet"}
	logf, err := os.OpenFile(filepath.Join(c.work, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(c.serve, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	childMu.Lock()
	err = cmd.Start()
	if err == nil {
		children[cmd] = true
	}
	childMu.Unlock()
	if err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start sp2bserve: %w", err)
	}
	s := &serveProc{cmd: cmd, base: "http://127.0.0.1:" + port, debug: "http://127.0.0.1:" + dport,
		pid: strconv.Itoa(cmd.Process.Pid), log: logf}
	hc := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 90*time.Second {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if cmd.ProcessState != nil || processGone(cmd.Process.Pid) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("sp2bserve did not become ready (see %s)", logf.Name())
}

// processGone reports whether pid has exited (or is a zombie).
func processGone(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	return len(f) > 0 && f[0] == "Z"
}

func (s *serveProc) stop() {
	childMu.Lock()
	if children[s.cmd] {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		delete(children, s.cmd)
	}
	childMu.Unlock()
	s.log.Close()
}

// cpuTime returns the CPU time the process's threads have run, summed
// from /proc/<pid>/task/*/schedstat in nanoseconds. /proc/<pid>/stat
// counts in 10 ms ticks, too coarse for a closed loop of a second.
func (s *serveProc) cpuTime() (time.Duration, error) {
	tasks, err := filepath.Glob("/proc/" + s.pid + "/task/*/schedstat")
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%s/task", s.pid)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %w", t, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}
