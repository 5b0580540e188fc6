package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a spawned supremm-serve process.
type child struct {
	cmd  *exec.Cmd
	Addr string
	done chan struct{} // closed once the process has been reaped

	mu   sync.Mutex
	tail []string // last lines of its log, for diagnostics
}

var (
	childrenMu sync.Mutex
	children   = map[*child]bool{}
)

// spawnServer starts bin with args (plus a loopback :0 listen address)
// and waits until GET /readyz answers 200. It returns the child and the
// time from spawn to ready. The child is always registered for
// killAll, so no exit path of the benchmark leaves it running.
func spawnServer(bin, dir string, args []string, timeout time.Duration) (*child, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if !sent && strings.Contains(line, `msg="serving api"`) {
				if a := logField(line, "addr"); a != "" {
					addrCh <- a
					sent = true
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(c.done)
	}()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case c.Addr = <-addrCh:
	case <-c.done:
		return nil, 0, fmt.Errorf("supremm-serve exited before serving: %s", c.logTail())
	case <-deadline.C:
		c.stop()
		return nil, 0, fmt.Errorf("supremm-serve not serving after %v", timeout)
	}
	cl := &http.Client{Timeout: time.Second}
	for {
		resp, err := cl.Get("http://" + c.Addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("supremm-serve exited before ready: %s", c.logTail())
		case <-deadline.C:
			c.stop()
			return nil, 0, fmt.Errorf("supremm-serve not ready after %v", timeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// logField extracts key=value (value possibly quoted) from a log line.
func logField(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if strings.HasPrefix(v, `"`) {
		if j := strings.Index(v[1:], `"`); j >= 0 {
			return v[1 : j+1]
		}
	}
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, " | ")
}

// Pid returns the child's process id.
func (c *child) Pid() int { return c.cmd.Process.Pid }

// stop terminates the child (SIGTERM, then SIGKILL after 5s) and waits
// until it has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	childrenMu.Lock()
	delete(children, c)
	childrenMu.Unlock()
}

// killAll kills and reaps every child still running.
func killAll() {
	childrenMu.Lock()
	list := make([]*child, 0, len(children))
	for c := range children {
		list = append(list, c)
	}
	childrenMu.Unlock()
	for _, c := range list {
		_ = c.cmd.Process.Kill()
		<-c.done
		childrenMu.Lock()
		delete(children, c)
		childrenMu.Unlock()
	}
}

// procCPU returns the user+system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSSMB returns VmHWM of process pid in MiB ("self" for this one).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTicks reads the machine's cumulative CPU ticks: all of them, and
// those stolen by the hypervisor for other guests.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealEvery is how often stealLog reads the machine's CPU ticks.
const stealEvery = 50 * time.Millisecond

// stealLog reads the machine's CPU ticks in the background for the
// whole run, so the share of CPU time the hypervisor stole for other
// guests can be read back for any stretch of it: a stretch measured
// while neighbours took the machine's CPUs reads slow, and the
// benchmark prefers the stretches during which they did not.
type stealLog struct {
	mu    sync.Mutex
	at    []time.Time
	total []uint64
	steal []uint64
	stop  chan struct{}
	done  chan struct{}
}

func startStealLog() *stealLog {
	l := &stealLog{stop: make(chan struct{}), done: make(chan struct{})}
	l.sample()
	go func() {
		defer close(l.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
				l.sample()
			}
		}
	}()
	return l
}

func (l *stealLog) sample() {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, s := cpuTicks()
	l.at, l.total, l.steal = append(l.at, time.Now()), append(l.total, t), append(l.steal, s)
}

// close stops the sampling and waits until it has stopped.
func (l *stealLog) close() {
	close(l.stop)
	<-l.done
}

// pct returns the share of CPU time stolen, in percent, from the last
// sample at or before a to the first at or after b (a fresh reading
// when b is not yet sampled).
func (l *stealLog) pct(a, b time.Time) float64 {
	l.mu.Lock()
	sampled := !l.at[len(l.at)-1].Before(b)
	l.mu.Unlock()
	if !sampled {
		l.sample()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.at), func(k int) bool { return l.at[k].After(a) }) - 1
	j := sort.Search(len(l.at), func(k int) bool { return !l.at[k].Before(b) })
	i = max(i, 0)
	j = min(j, len(l.at)-1)
	if j <= i || l.total[j] <= l.total[i] {
		return 0
	}
	return 100 * float64(l.steal[j]-l.steal[i]) / float64(l.total[j]-l.total[i])
}
