package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outLine is one stdout line of a child process with its arrival time.
type outLine struct {
	at   time.Time
	text string
}

// child is a started process whose stdout is collected line by line with
// receipt timestamps, so readiness and output timing are measured from
// outside the process.
type child struct {
	name   string
	cmd    *exec.Cmd
	start  time.Time
	stderr bytes.Buffer

	mu     sync.Mutex
	lines  []outLine
	notify chan struct{} // pinged after every appended line
	eof    chan struct{} // closed once stdout is drained

	// hwm is the highest VmHWM (peak RSS, kB) read from /proc while the
	// child ran. wait4's ru_maxrss cannot stand in for it: it also counts
	// the parent's RSS at the moment the child was spawned.
	hwm atomic.Int64

	waitOnce sync.Once
	exited   chan struct{} // closed once the child is reaped
	state    *os.ProcessState
	waitErr  error
}

// children tracks every started process so the benchmark can stop them all
// on any exit path.
var (
	childrenMu sync.Mutex
	children   []*child
)

func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, notify: make(chan struct{}, 1), eof: make(chan struct{}), exited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	childrenMu.Lock()
	children = append(children, c)
	childrenMu.Unlock()
	go c.readLines(stdout)
	go c.watchHWM()
	return c, nil
}

// watchHWM polls the child's VmHWM until it exits.
func (c *child) watchHWM() {
	path := fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
					if kb > c.hwm.Load() {
						c.hwm.Store(kb)
					}
				}
			}
		}
		select {
		case <-c.exited:
			return
		case <-c.eof:
			// stdout closed: the child is exiting; one more read above
			// would find no VmHWM once it is a zombie.
			return
		case <-tick.C:
		}
	}
}

// peakRSSMB is the child's peak resident set in MB, as last read from
// its VmHWM.
func (c *child) peakRSSMB() float64 { return float64(c.hwm.Load()) / 1024 }

func (c *child) readLines(r io.Reader) {
	defer close(c.eof)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		l := outLine{at: time.Now(), text: sc.Text()}
		c.mu.Lock()
		c.lines = append(c.lines, l)
		c.mu.Unlock()
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
	// Keep draining after a scanner error so the child never blocks on a
	// full pipe.
	_, _ = io.Copy(io.Discard, r)
}

// waitLine returns the first line with the given prefix, waiting up to
// timeout for it to appear.
func (c *child) waitLine(prefix string, timeout time.Duration) (outLine, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	seen := 0
	for {
		c.mu.Lock()
		for ; seen < len(c.lines); seen++ {
			if strings.HasPrefix(c.lines[seen].text, prefix) {
				l := c.lines[seen]
				c.mu.Unlock()
				return l, nil
			}
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-c.eof:
			c.mu.Lock()
			n := len(c.lines)
			c.mu.Unlock()
			if seen == n {
				return outLine{}, fmt.Errorf("%s exited before printing %q: %s", c.name, prefix, c.tail())
			}
		case <-deadline.C:
			return outLine{}, fmt.Errorf("%s: no %q line within %v: %s", c.name, prefix, timeout, c.tail())
		}
	}
}

// snapshot returns the lines collected so far.
func (c *child) snapshot() []outLine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]outLine(nil), c.lines...)
}

func (c *child) texts() []string {
	var out []string
	for _, l := range c.snapshot() {
		out = append(out, l.text)
	}
	return out
}

// tail is the end of the child's stderr, for error messages.
func (c *child) tail() string {
	s := strings.TrimSpace(c.stderr.String())
	if len(s) > 600 {
		s = "…" + s[len(s)-600:]
	}
	return s
}

// wait reaps the child, killing it if it has not exited within timeout.
func (c *child) wait(timeout time.Duration) (*os.ProcessState, error) {
	done := make(chan struct{})
	go func() {
		c.waitOnce.Do(func() {
			<-c.eof // Wait closes the pipe; let the reader finish first
			c.waitErr = c.cmd.Wait()
			c.state = c.cmd.ProcessState
			close(c.exited)
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill()
		<-done
		return c.state, fmt.Errorf("%s did not exit within %v (killed): %s", c.name, timeout, c.tail())
	}
	if c.waitErr != nil {
		return c.state, fmt.Errorf("%s: %v: %s", c.name, c.waitErr, c.tail())
	}
	return c.state, nil
}

// stop asks the child to exit (SIGTERM) and reaps it.
func (c *child) stop(timeout time.Duration) (*os.ProcessState, error) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	return c.wait(timeout)
}

// killAll stops every child still running; the benchmark's exit path.
func killAll() {
	childrenMu.Lock()
	defer childrenMu.Unlock()
	for _, c := range children {
		select {
		case <-c.exited:
		default:
			_ = c.cmd.Process.Kill()
			_, _ = c.wait(5 * time.Second)
		}
	}
}

// procCPU reads a live process's utime+stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// cpuTime is the kernel's utime+stime accounting of an exited child.
func cpuTime(st *os.ProcessState) time.Duration {
	if st == nil {
		return 0
	}
	return st.UserTime() + st.SystemTime()
}

// httpGet fetches url with a per-request timeout.
func httpGet(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// served is a running mspctool serve process, ready for traffic.
type served struct {
	*child
	opsURL, ingest string
	setup          time.Duration
	cpuAtReady     time.Duration
}

// startServe launches mspctool serve and waits until it is ready: the
// ops listener answers /status and the ingest listener is bound (serve
// prints its "listening on" line only after binding). Calibration lies
// inside that window.
func startServe(mspctool, config string) (*served, error) {
	c, err := startChild("mspctool serve", mspctool, "serve", "-config", config)
	if err != nil {
		return nil, err
	}
	s := &served{child: c}
	fail := func(err error) (*served, error) {
		_ = c.cmd.Process.Kill()
		_, _ = c.wait(10 * time.Second)
		return nil, err
	}
	l, err := c.waitLine("listening on ", 120*time.Second)
	if err != nil {
		return fail(err)
	}
	s.ingest = strings.TrimPrefix(strings.TrimPrefix(l.text, "listening on "), "udp://")
	up, err := c.waitLine("control plane up: ops ", 120*time.Second)
	if err != nil {
		return fail(err)
	}
	s.opsURL = strings.TrimPrefix(up.text, "control plane up: ops ")
	client := &http.Client{}
	if _, err := httpGet(context.Background(), client, s.opsURL+"/status"); err != nil {
		return fail(fmt.Errorf("serve not answering: %w", err))
	}
	s.setup = time.Since(c.start)
	client.CloseIdleConnections()
	if s.cpuAtReady, err = procCPU(c.cmd.Process.Pid); err != nil {
		return fail(err)
	}
	return s, nil
}

// hostSteal reads the machine-wide busy and steal jiffies from /proc/stat:
// steal is time the hypervisor gave this machine's CPUs to someone else.
func hostSteal() (busy, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			steal = v
		default:
			busy += v
		}
	}
	return busy, steal
}

// stealMeter measures the share of this machine's CPU time stolen by the
// hypervisor over an interval — how disturbed a measurement was by other
// tenants of the host.
type stealMeter struct{ busy, steal uint64 }

func startSteal() stealMeter {
	b, s := hostSteal()
	return stealMeter{busy: b, steal: s}
}

// share is steal ÷ (busy + steal) since the meter started.
func (m stealMeter) share() float64 {
	b, s := hostSteal()
	if b+s <= m.busy+m.steal {
		return 0
	}
	return float64(s-m.steal) / float64(b+s-m.busy-m.steal)
}
