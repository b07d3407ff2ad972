package main

// Building the program under test and running it as a child process.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds or writes, inside the
// checkout it runs from.
const buildDir = ".bench_build"

// buildProgram compiles ./cmd/advhunter from the tree under test.
func buildProgram() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "advhunter"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/advhunter")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building ./cmd/advhunter: %w\n%s", err, out.Bytes())
	}
	return bin, nil
}

// child is one running server process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	once   sync.Once
}

// announceRe pulls the listen address out of the boot line `serve` and
// `cluster` print once they accept connections.
var announceRe = regexp.MustCompile(`^serving .* on (\S+) — `)

// bootTimeout bounds one boot; the slowest (auto tier) takes a few seconds.
const bootTimeout = 90 * time.Second

// startChild execs the server and returns once its announce line has printed
// and /readyz answers 200, with the elapsed time from exec: the setup time.
func startChild(bin string, w workload) (*child, time.Duration, error) {
	args := append(append([]string(nil), w.args...), "-scenario", "S2", "-addr", "127.0.0.1:0")
	if !w.cluster {
		args = append(args, "-pprof")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", maxConns))
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	cmd.Stderr = c.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(c.exited)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if m := announceRe.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		// Drain to EOF so Wait can close the pipe, then reap the process.
		io.Copy(io.Discard, stdout)
		cmd.Wait()
	}()

	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	select {
	case addr := <-addrc:
		c.base = "http://" + addr
	case <-c.exited:
		return nil, 0, fmt.Errorf("server exited during boot: %s", c.stderr.String())
	case <-deadline.C:
		c.stop()
		return nil, 0, fmt.Errorf("server did not announce within %s", bootTimeout)
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("server exited before ready: %s", c.stderr.String())
		case <-deadline.C:
			c.stop()
			return nil, 0, fmt.Errorf("server not ready within %s", bootTimeout)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// within drainTimeout, and waits until it has. Later calls do nothing.
func (c *child) stop() {
	c.once.Do(func() {
		const drainTimeout = 20 * time.Second
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			c.cmd.Process.Kill()
		}
		select {
		case <-c.exited:
		case <-time.After(drainTimeout):
			c.cmd.Process.Kill()
			<-c.exited
		}
	})
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// get fetches one page from the server.
func (c *child) get(ctx context.Context, path string) (string, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(b), nil
}

// snapshot is the server's state at one instant, seen from outside.
type snapshot struct {
	metrics promPage
	mem     memStats // zero when the server has no pprof endpoints
	hasMem  bool
	cpu     float64 // utime+stime, seconds
}

func (c *child) snapshot(ctx context.Context, withMem bool) (snapshot, error) {
	var s snapshot
	text, err := c.get(ctx, "/metrics")
	if err != nil {
		return s, err
	}
	if s.metrics, err = parseProm(text); err != nil {
		return s, err
	}
	if withMem {
		heap, err := c.get(ctx, "/debug/pprof/heap?debug=1")
		if err != nil {
			return s, err
		}
		if s.mem, err = parseHeapDebug(heap); err != nil {
			return s, err
		}
		s.hasMem = true
	}
	s.cpu, err = procCPU(c.pid())
	return s, err
}
