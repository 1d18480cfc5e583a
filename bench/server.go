package main

import (
	"bytes"
	"encoding/json"
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
	"time"
)

// childProcs is what every mcaserved child runs with: the rig this
// benchmark was sized on reports nproc = 2, and pinning it keeps a run
// on a bigger machine comparable.
const childProcs = 2

// rig owns the work directory and every child process. Nothing it
// creates lives outside dir.
type rig struct {
	root string // the module root, where go build runs; "" is the current directory
	dir  string // binary, logs, trace output
	bin  string // the built mcaserved

	mu       sync.Mutex
	children []*child
}

type child struct {
	cmd *exec.Cmd
	url string
}

// buildServer compiles cmd/mcaserved from the checkout the benchmark
// runs in, so the server measured is always the tree's own.
func (r *rig) buildServer() (time.Duration, error) {
	r.bin = filepath.Join(r.dir, "mcaserved")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", r.bin, "./cmd/mcaserved")
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/mcaserved: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; a collision in that window fails
// the child's start, which start reports.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches one mcaserved on a free loopback port and waits until
// /healthz answers.
func (r *rig) start(role string, extra ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(r.dir, fmt.Sprintf("%s-%d.log", role, port)))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(r.bin, append([]string{"-addr", addr, "-role", role}, extra...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, url: "http://" + addr}
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()
	for time.Since(begin) < 10*time.Second {
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("%s on %s: /healthz never answered (see %s)", role, addr, logf.Name())
}

// stopAll kills every child and waits for each to end. It runs on every
// exit path — normal return, failed check, panic, signal — so it must
// be safe to call more than once.
func (r *rig) stopAll() {
	r.mu.Lock()
	children := r.children
	r.children = nil
	r.mu.Unlock()
	for _, c := range children {
		c.cmd.Process.Kill()
	}
	for _, c := range children {
		c.cmd.Wait()
	}
}

// peakRSSMB is the child's high-water resident set (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// getJSON decodes a child's JSON status endpoint.
func (c *child) getJSON(path string, v any) error {
	resp, err := http.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// shedTotal sums the admission layer's mcaserved_shed_total counters
// from the child's /metrics.
func (c *child) shedTotal() (float64, error) {
	resp, err := http.Get(c.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "mcaserved_shed_total") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			n, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				return 0, fmt.Errorf("/metrics: %q: %v", line, err)
			}
			total += n
		}
	}
	return total, nil
}

// reply is one client-observed response.
type reply struct {
	status    int
	body      []byte
	latency   time.Duration // request write to last body byte
	firstLine time.Duration // request write to the first newline of the body
}

// client is the benchmark's single closed-loop caller: one connection,
// one request in flight.
var client = &http.Client{Timeout: 150 * time.Second}

func post(url string, body []byte) (reply, error) {
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{status: resp.StatusCode}
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if rep.firstLine == 0 && bytes.IndexByte(buf[:n], '\n') >= 0 {
				rep.firstLine = time.Since(start)
			}
			rep.body = append(rep.body, buf[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return reply{}, err
		}
	}
	rep.latency = time.Since(start)
	return rep, nil
}
