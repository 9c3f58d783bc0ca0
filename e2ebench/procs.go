package main

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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process (cmd/serve or cmd/gateway) started by the
// benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string // http://host:port
	log  *os.File
	// exited receives the process's Wait result; done is set once stop
	// has consumed it.
	exited chan error
	done   bool
}

// addrWatcher is the child's stdout: it reports the address from the
// first "<name>: listening on ADDR ..." line, the discovery protocol both
// servers print once their listener is bound.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.Reset()
			w.buf.WriteString(line) // keep the partial line
			return len(p), nil
		}
		if i := strings.Index(line, "listening on "); i >= 0 {
			fields := strings.Fields(line[i+len("listening on "):])
			if len(fields) > 0 {
				w.addr <- fields[0]
				w.sent = true
				return len(p), nil
			}
		}
	}
}

// startProc execs bin with args at GOMAXPROCS=procs and waits until it
// prints its listening address.
func startProc(name, bin string, args []string, logDir string, procs int) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout = w
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case addr := <-w.addr:
		return &proc{name: name, cmd: cmd, url: "http://" + addr, log: logf, exited: exited}, nil
	case err := <-exited:
		logf.Close()
		return nil, fmt.Errorf("%s exited before listening (%v); see %s", name, err, logf.Name())
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-exited
		logf.Close()
		return nil, fmt.Errorf("%s did not print its address within 60s", name)
	}
}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s: /readyz not 200 within 30s", p.name)
}

// stop sends SIGTERM (the servers drain and exit 0) and waits for the
// process; after 20s it kills it.
func (p *proc) stop() error {
	if p.done {
		return nil
	}
	p.done = true
	defer p.log.Close()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.exited:
		// Both servers install their SIGTERM handler only after printing
		// the listening line and answering /readyz, so a stop right after
		// set-up can kill the process before it can drain. Nothing is in
		// flight then; that exit is not a failure.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("%s exit: %w; see %s", p.name, err, p.log.Name())
		}
		return nil
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("%s did not drain within 20s", p.name)
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// scrape fetches /metrics and returns every sample keyed by its full
// series name (labels included).
func scrape(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
