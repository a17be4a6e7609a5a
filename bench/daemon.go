package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

	"segdb/internal/server"
)

// daemon is one child segdbd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string        // host:port of the query listener
	debug  string        // host:port of the pprof listener, "" when off
	waited chan struct{} // closed once the process has been reaped
}

// children tracks every live child so that no exit path — a signal, a
// panic, a failed health wait — leaves a segdbd behind.
var children struct {
	sync.Mutex
	live map[*daemon]struct{}
}

func killAllChildren() {
	children.Lock()
	all := make([]*daemon, 0, len(children.live))
	for d := range children.live {
		all = append(all, d)
	}
	children.Unlock()
	for _, d := range all {
		d.kill()
	}
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// staleDaemons lists processes still running the benchmark's own segdbd
// binary, left over from a run that did not clean up.
func staleDaemons(bin string) []int {
	var pids []int
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if argv0, _, _ := bytes.Cut(raw, []byte{0}); string(argv0) == bin {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
			pids = append(pids, pid)
		}
	}
	return pids
}

// startDaemon launches segdbd on fresh ports and waits until /healthz
// answers. On failure the child is killed and the tail of its log is
// part of the error.
func startDaemon(bin string, args []string, logPath string, debug bool) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, waited: make(chan struct{})}
	args = append([]string{"-addr", addr, "-trace-sample", "0"}, args...)
	if debug {
		if d.debug, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", d.debug)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// If this process is killed outright, the kernel kills the child.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start segdbd: %w", err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*daemon]struct{})
	}
	children.live[d] = struct{}{}
	children.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.waited)
	}()
	if err := d.waitHealthy(20 * time.Second); err != nil {
		d.kill()
		return nil, fmt.Errorf("%w\n--- segdbd log tail ---\n%s", err, logTail(logPath, 20))
	}
	return d, nil
}

var pollClient = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitHealthy polls /healthz. A sleep here lasts at least 1.1 ms, which
// is a fifth of a read-only daemon's whole start, so the first polls
// come back to back.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.waited:
			return errors.New("segdbd exited before it became healthy")
		default:
		}
		resp, err := pollClient.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Since(start) > 50*time.Millisecond {
			time.Sleep(time.Millisecond)
		}
	}
	return fmt.Errorf("segdbd not healthy on %s after %v", d.addr, timeout)
}

// kill is kill -9 and returns once the process has been reaped.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.waited
	children.Lock()
	delete(children.live, d)
	children.Unlock()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds is the time the process's threads have spent on a CPU so
// far, user and system, summed from the scheduler's per-thread
// nanosecond counters (/proc/<pid>/stat only counts 10 ms ticks).
func cpuSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no scheduler statistics for pid %d", pid)
	}
	var ns float64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		onCPU, _, _ := strings.Cut(string(raw), " ")
		v, err := strconv.ParseFloat(onCPU, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (d *daemon) statsz() (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := pollClient.Get("http://" + d.addr + "/statsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("statsz: HTTP %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// memStats are the runtime.MemStats fields read off the trailer of the
// daemon's pprof heap page. pauseNs is the runtime's ring of the most
// recent stop-the-world pauses: cycle k's is at (k+255) % 256.
type memStats struct {
	mallocs, numGC float64
	pauseNs        []float64
}

func (d *daemon) memStats() (memStats, error) {
	var m memStats
	resp, err := pollClient.Get("http://" + d.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, err
	}
	found := 0
	for _, line := range strings.Split(string(raw), "\n") {
		name, rest, ok := strings.Cut(line, " = ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "# Mallocs":
			dst = &m.mallocs
		case "# NumGC":
			dst = &m.numGC
		case "# PauseNs":
			for _, f := range strings.Fields(strings.Trim(rest, "[]")) {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return m, fmt.Errorf("pprof heap trailer PauseNs: %w", err)
				}
				m.pauseNs = append(m.pauseNs, v)
			}
			found++
			continue
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			return m, fmt.Errorf("pprof heap trailer %q: %w", line, err)
		}
		found++
	}
	if found != 3 || len(m.pauseNs) != 256 {
		return m, fmt.Errorf("pprof heap page: found %d of 3 MemStats fields, %d pauses", found, len(m.pauseNs))
	}
	return m, nil
}

// pauseSince is the stop-the-world time of the GC cycles that ran after
// the earlier reading. The ring remembers 256 cycles; a longer run is
// scaled up from those.
func (m memStats) pauseSince(earlier memStats) float64 {
	cycles := int(m.numGC - earlier.numGC)
	seen := min(cycles, len(m.pauseNs))
	var ns float64
	for k := int(m.numGC); k > int(m.numGC)-seen; k-- {
		ns += m.pauseNs[(k+255)%256]
	}
	if seen == 0 {
		return 0
	}
	return ns * float64(cycles) / float64(seen)
}

func logTail(path string, lines int) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}
