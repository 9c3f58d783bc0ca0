package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as the load driver saw it. Times are offsets from
// the phase start.
type sample struct {
	req    int  // stream index, or -1 for a swap
	snap   byte // swap target: 'A' or 'B'
	scored bool
	due    time.Duration
	late   time.Duration // dispatcher lateness: release time - due
	end    time.Duration
	sent   bool
	status int
	err    error
	body   []byte // response body of a 200
}

func (s *sample) latency() time.Duration { return s.end - s.due }
func (s *sample) failed() bool           { return s.sent && (s.err != nil || s.status != http.StatusOK) }

// phase is one open-loop interval at a fixed rate.
type phase struct {
	samples  []sample
	steal    float64 // CPU time the hypervisor took from this machine during the phase, in CPUs
	backlog  int     // due but not yet started when the schedule ended
	aborted  bool    // backlog exceeded the limit; the rest was not sent
	next     int     // first stream index the next phase should use
	swapVers map[uint64]byte
	// marks[w] is the machine's CPU counters when the phase's window w
	// (of stealWindow each) began; the last mark ends the last full
	// window.
	marks []cpuTicks
}

// driver sends a Stream open-loop: arrivals follow the stream's gaps at
// the phase rate, and a fixed set of workers, each with at most one
// request in flight on its own keep-alive connection, take them in due
// order. A request waiting for a free worker keeps its due time, so a
// stall counts against every request it delays.
type driver struct {
	client  *http.Client
	url     string // front process: gateway or replica
	swapURL string // replica, for POST /admin/swap
	stream  *Stream
	gobs    map[byte][]byte
	workers int
	// tag sends each program request's stream index in reqIDHeader.
	tag bool
	// cur is the snapshot the replica serves; swaps alternate away from it.
	cur byte
}

func newDriver(url, swapURL string, st *Stream, gobs map[byte][]byte, workers int) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	return &driver{
		client:  &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:     url,
		swapURL: swapURL,
		stream:  st,
		gobs:    gobs,
		workers: workers,
		cur:     'A',
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// run sends stream requests from index from at rate for dur, plus a swap
// every swapEvery (0 = none). With maxBacklog > 0, a schedule that ends
// with more than maxBacklog requests still waiting for a worker is
// aborted: the waiting requests are dropped unsent. Otherwise every
// scheduled request is sent.
func (d *driver) run(ctx context.Context, from int, rate float64, dur, swapEvery time.Duration, maxBacklog int) (*phase, error) {
	ph := &phase{swapVers: map[uint64]byte{}}
	var t float64
	i := from
	nextSwap := swapEvery
	snap := d.cur
	for {
		if i >= len(d.stream.Reqs) {
			if err := d.stream.extend(); err != nil {
				return nil, fmt.Errorf("extending the request stream: %w", err)
			}
		}
		t += d.stream.Reqs[i].Gap / rate
		due := time.Duration(t * float64(time.Second))
		for swapEvery > 0 && nextSwap <= due && nextSwap < dur {
			snap = other(snap)
			ph.samples = append(ph.samples, sample{req: -1, snap: snap, due: nextSwap})
			nextSwap += swapEvery
		}
		if due >= dur {
			break
		}
		ph.samples = append(ph.samples, sample{req: i, scored: d.stream.Reqs[i].Scored, due: due})
		i++
	}
	ph.next = i

	mark0 := readCPUTicks()
	queue := make(chan int, len(ph.samples)) // one slot per scheduled request: the dispatcher never blocks
	var started atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				if abort.Load() {
					continue
				}
				started.Add(1)
				d.do(ctx, start, &ph.samples[k])
			}
		}()
	}
	ph.marks = []cpuTicks{mark0}
	mark := func() {
		for time.Since(start) >= time.Duration(len(ph.marks))*stealWindow {
			ph.marks = append(ph.marks, readCPUTicks())
		}
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	wait := func(until time.Duration) {
		if d := until - time.Since(start); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
	}
	<-timer.C
	for k := range ph.samples {
		if ctx.Err() != nil {
			break
		}
		s := &ph.samples[k]
		wait(s.due)
		s.late = time.Since(start) - s.due
		queue <- k
		mark()
	}
	wait(dur)
	mark()
	ph.steal = float64(readCPUTicks().steal-mark0.steal) / 100 / time.Since(start).Seconds()
	ph.backlog = len(ph.samples) - int(started.Load())
	if maxBacklog > 0 && ph.backlog > maxBacklog || ctx.Err() != nil {
		ph.aborted = true
		abort.Store(true)
	}
	close(queue)
	wg.Wait()
	for k := range ph.samples {
		s := &ph.samples[k]
		if s.req >= 0 || s.failed() || !s.sent {
			continue
		}
		var sr struct {
			NewVersion uint64 `json:"new_version"`
		}
		if err := json.Unmarshal(s.body, &sr); err != nil {
			s.err = fmt.Errorf("decoding swap response: %w", err)
			continue
		}
		ph.swapVers[sr.NewVersion] = s.snap
		d.cur = s.snap
	}
	return ph, ctx.Err()
}

func other(s byte) byte {
	if s == 'A' {
		return 'B'
	}
	return 'A'
}

// do sends one request and records its outcome.
func (d *driver) do(ctx context.Context, phaseStart time.Time, s *sample) {
	var req *http.Request
	var err error
	if s.req < 0 {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, d.swapURL+"/admin/swap", bytes.NewReader(d.gobs[s.snap]))
	} else {
		p := &d.stream.Programs[d.stream.Reqs[s.req].Prog]
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/classify", bytes.NewReader(p.Body))
		if err == nil {
			if d.tag {
				req.Header.Set(reqIDHeader, strconv.Itoa(s.req))
			}
			if p.JSON {
				req.Header.Set("Content-Type", "application/json")
			} else {
				req.Header.Set("Content-Type", "text/plain")
			}
		}
	}
	s.sent = true
	if err != nil {
		s.err, s.end = err, time.Since(phaseStart)
		return
	}
	resp, err := d.client.Do(req)
	if err != nil {
		s.err, s.end = err, time.Since(phaseStart)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Since(phaseStart)
	s.status, s.err = resp.StatusCode, err
	if err == nil && resp.StatusCode == http.StatusOK {
		s.body = body
	}
}

// scoredLatencies returns the latencies of the phase's scored requests in
// milliseconds; a failed or unsent scored request counts as +Inf (it
// misses every limit). With keep, only requests due in a kept window
// count.
func (ph *phase) scoredLatencies(keep []bool) []float64 {
	var out []float64
	for k := range ph.samples {
		s := &ph.samples[k]
		if !s.scored {
			continue
		}
		if w := int(s.due / stealWindow); keep != nil && (w >= len(keep) || !keep[w]) {
			continue
		}
		if !s.sent || s.failed() {
			out = append(out, inf)
			continue
		}
		out = append(out, ms(s.latency()))
	}
	return out
}

// The hypervisor of a shared VM takes CPU time from it ("steal" in
// /proc/stat) in bursts of a few seconds, and a burst stretches every
// latency it overlaps, the median included. A phase is cut into windows
// of stealWindow, two swap periods on hot-swap, so that every window holds
// the same mix of work. A window is quiet when the hypervisor took at
// most quietShare of the CPU time the machine used or wanted in it; a
// share, unlike steal itself, does not grow with the window's own work,
// since an idle vCPU is never stolen from.
const (
	stealWindow = time.Second
	quietShare  = 0.1
)

// quiet marks the windows the reference metrics are taken over: every
// quiet window, or, when fewer than half the windows are quiet, the half
// with the lowest stolen share. Windows are chosen by steal alone, never
// by the latencies in them. It also returns how many windows it kept
// and their stolen share. A phase shorter than one window keeps
// everything (nil).
func (ph *phase) quiet() ([]bool, int, float64) {
	n := len(ph.marks) - 1
	if n == 0 {
		return nil, 0, 0
	}
	share := make([]float64, n)
	order := make([]int, n)
	for w := range share {
		share[w] = ph.marks[w+1].sub(ph.marks[w]).stolenShare()
		order[w] = w
	}
	sort.SliceStable(order, func(a, b int) bool { return share[order[a]] < share[order[b]] })
	keep := make([]bool, n)
	kept, sum := 0, cpuTicks{}
	for _, w := range order {
		if share[w] > quietShare && 2*kept >= n {
			break
		}
		keep[w] = true
		kept++
		d := ph.marks[w+1].sub(ph.marks[w])
		sum.busy += d.busy
		sum.steal += d.steal
	}
	return keep, kept, sum.stolenShare()
}

// counts returns requests attempted and failed in the phase.
func (ph *phase) counts() (attempted, failed int) {
	for k := range ph.samples {
		if ph.samples[k].sent {
			attempted++
			if ph.samples[k].failed() {
				failed++
			}
		}
	}
	return attempted, failed
}

// lateMs returns the dispatcher lateness of every request, in ms.
func (ph *phase) lateMs() []float64 {
	out := make([]float64, len(ph.samples))
	for k := range ph.samples {
		out[k] = ms(ph.samples[k].late)
	}
	return out
}

// cpuTicks is the machine's cumulative CPU time in USER_HZ ticks, from
// the cpu line of /proc/stat: busy (user, nice, system, irq, softirq)
// and stolen by the hypervisor.
type cpuTicks struct{ busy, steal int64 }

func (c cpuTicks) sub(o cpuTicks) cpuTicks { return cpuTicks{c.busy - o.busy, c.steal - o.steal} }

// stolenShare is the share of the CPU time used or wanted that was
// stolen.
func (c cpuTicks) stolenShare() float64 { return ratio(float64(c.steal), float64(c.busy+c.steal)) }

// readCPUTicks reads the counters; zero where /proc/stat is not
// available.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [9]int64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}
