package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Process hygiene. Every server the harness starts is registered here, in
// its own process group, and is killed and reaped on every way out of the
// program (normal return, failed oracle, panic in main, SIGINT/SIGTERM).
// Ports come from binding :0 first and every topology gets fresh ones, so
// a drained server from an earlier round can never answer on a port a
// later round probes.

// clockTicksPerSecond is the kernel's USER_HZ, the unit of the utime and
// stime fields of /proc/<pid>/stat. It is 100 on every Linux ABI Go runs on.
const clockTicksPerSecond = 100

// child is one spawned server process.
type child struct {
	name   string
	cmd    *exec.Cmd
	addr   string // host:port it listens on
	stderr bytes.Buffer
	// The signal handler's exit path may reap concurrently with a round.
	reapOnce sync.Once
	reaped   atomic.Bool
}

// children is the registry of live processes, for the exit paths.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// freeAddr reserves a loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawn starts bin with args on a fresh port (passed as -addr). Standard
// output is discarded; standard error is kept for failure reports.
func spawn(name, bin string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{name: name, addr: addr}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	children.Lock()
	defer children.Unlock()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	return c, nil
}

func (c *child) url() string { return "http://" + c.addr }
func (c *child) pid() int    { return c.cmd.Process.Pid }

// signal sends sig to the child's whole process group.
func (c *child) signal(sig syscall.Signal) {
	_ = syscall.Kill(-c.pid(), sig) // the group may already be gone
}

// reap waits for the child to exit. Safe to call twice, and concurrently.
func (c *child) reap() {
	c.reapOnce.Do(func() {
		_ = c.cmd.Wait() // a signalled server exits non-zero by design
		c.reaped.Store(true)
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
}

// stop ends the child with sig (SIGTERM for a drained server, SIGKILL for
// the crash), escalating to SIGKILL if it lingers, and reaps it.
func (c *child) stop(sig syscall.Signal) {
	if c.reaped.Load() {
		return // its pid may belong to someone else by now
	}
	c.signal(sig)
	escalate := time.AfterFunc(10*time.Second, func() { c.signal(syscall.SIGKILL) })
	defer escalate.Stop()
	c.reap()
}

// killAll is the exit path: SIGKILL every live process group and reap.
func killAll() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop(syscall.SIGKILL)
	}
}

// waitReady polls GET /readyz until it answers 200.
func (c *child) waitReady(ctx context.Context) error {
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := cl.Get(c.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 15s (last: %v); stderr:\n%s", c.name, err, c.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuSeconds reads the user+system CPU time a live process has used so
// far from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from one
// /proc/<pid>/stat line. The command name (field 2) is parenthesised and
// may itself hold spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStatCPU(line string) (float64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(line[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) / clockTicksPerSecond, nil
}

// selfCPUSeconds is the harness process's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads a live process's peak resident set (VmHWM) in MiB from
// /proc/<pid>/status; pid 0 means this process. The exit rusage's Maxrss is
// no substitute: a child starts life on its parent's address space, and
// exec folds that space's peak — the harness's, not the server's — into
// the figure wait4 later reports.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseVmHWM extracts the "VmHWM:   12345 kB" line of a /proc status page.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: odd VmHWM line %q", line)
			}
			kb, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// resetSelfPeakRSS restarts this process's VmHWM from its current resident
// set, so that a round's peak is the round's own.
func resetSelfPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
