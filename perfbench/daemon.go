package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one idled serve process.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration
	out   *lineWatch
	done  chan error
}

// lineWatch collects the daemon's stdout and reports the serving URL
// once the "serving N areas on http://ADDR" line appears.
type lineWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var servingRE = regexp.MustCompile(`serving \d+ areas on (http://\S+)`)

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := servingRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// bootDaemon starts `idled serve` at GOMAXPROCS=procs on a free loopback
// port and returns once /healthz answers; setup is the time from process
// start until then.
func bootDaemon(ctx context.Context, bin string, procs int, args []string, stderr *os.File) (*daemon, error) {
	out := &lineWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout = out
	cmd.Stderr = stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start idled: %w", err)
	}
	d := &daemon{cmd: cmd, out: out, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	select {
	case d.base = <-out.addr:
	case err := <-d.done:
		return nil, fmt.Errorf("idled exited during boot: %v\n%s", err, out)
	case <-time.After(90 * time.Second):
		d.stop()
		return nil, fmt.Errorf("idled did not bind within 90s\n%s", out)
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 90*time.Second {
			d.stop()
			return nil, fmt.Errorf("idled /healthz did not answer within 90s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.setup = time.Since(start)
	hc.CloseIdleConnections()
	return d, nil
}

// peakRSSMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop sends SIGTERM, waits for the graceful drain (which flushes the
// audit log), and kills the process if it has not exited in 30s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("idled exit: %w\n%s", err, d.out)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("idled did not drain within 30s")
	}
}
