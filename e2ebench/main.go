// Command e2ebench is the repository's end-to-end benchmark. It starts the
// real cmd/serve replica (and cmd/gateway where the workload needs one) as
// separate processes, drives seeded open-loop HTTP traffic at them, checks
// every verdict against an in-process oracle, and prints one JSON result
// line. See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds the
// servers and this driver from source first:
//
//	bash e2ebench/run.sh --workload hot-swap --seed 1 --seconds 50 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// Where run.sh puts the server binaries, and where runs keep their
// artefacts and server logs.
const (
	binDir  = ".bench_build/e2ebench/bin"
	workDir = ".bench_build/e2ebench/work"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "hot-swap, gea-flood, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same request stream and artefacts")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --workload and a positive --seconds are required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		res, err := runWorkload(ctx, o, w)
		if err == nil {
			err = res.finite()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			all = *res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s %s\n", name, line)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

// finite reports a metric that cannot be printed as a number: a latency
// quantile that landed on failed requests, which count as infinitely late.
func (r *result) finite() error {
	for name, m := range r.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return fmt.Errorf("%s is %v: too many requests failed (%d of %d)", name, m.Value, r.Failed, r.Attempted)
		}
	}
	return nil
}

// runner holds one workload run's state.
type runner struct {
	o      options
	w      *Workload
	nproc  int
	dir    string
	art    *artefacts
	stream *Stream
	client *http.Client // control-plane client: readiness probes and scrapes
}

// topology is the set of running server processes.
type topology struct {
	replica, gateway *proc
}

func (t *topology) front() string {
	if t.gateway != nil {
		return t.gateway.url
	}
	return t.replica.url
}

func (t *topology) procs() []*proc {
	if t.gateway != nil {
		return []*proc{t.replica, t.gateway}
	}
	return []*proc{t.replica}
}

// stop stops every process, gateway first.
func (t *topology) stop() error {
	var errs []error
	for i := len(t.procs()) - 1; i >= 0; i-- {
		errs = append(errs, t.procs()[i].stop())
	}
	return errors.Join(errs...)
}

// start execs the replica (and the gateway) and returns once every process
// answers /readyz 200, with the time that took from the first exec.
func (r *runner) start() (*topology, time.Duration, error) {
	args := []string{"-model", r.art.modelA, "-index", r.art.corpus, "-addr", "127.0.0.1:0"}
	if r.w.Quant {
		args = append(args, "-quant")
	}
	if r.w.SwapEvery > 0 {
		args = append(args, "-admin")
	}
	t0 := time.Now()
	rep, err := startProc("serve", filepath.Join(binDir, "serve"), args, r.dir, r.nproc)
	if err != nil {
		return nil, 0, err
	}
	top := &topology{replica: rep}
	if err := rep.waitReady(r.client); err != nil {
		return nil, 0, errors.Join(err, top.stop())
	}
	if r.w.Gateway {
		gw, err := startProc("gateway", filepath.Join(binDir, "gateway"),
			[]string{"-backends", strings.TrimPrefix(rep.url, "http://"), "-addr", "127.0.0.1:0"}, r.dir, r.nproc)
		if err != nil {
			return nil, 0, errors.Join(err, top.stop())
		}
		top.gateway = gw
		if err := gw.waitReady(r.client); err != nil {
			return nil, 0, errors.Join(err, top.stop())
		}
	}
	return top, time.Since(t0), nil
}

// setupReps is how many times a run starts the servers to measure
// setup_s; the last start serves the traffic.
const setupReps = 15

// startMeasured starts the topology setupReps times and returns the last
// one running with the median set-up time.
func (r *runner) startMeasured() (*topology, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		top, d, err := r.start()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == setupReps-1 {
			return top, median(times), nil
		}
		if err := top.stop(); err != nil {
			return nil, 0, err
		}
	}
}

func runWorkload(ctx context.Context, o options, w *Workload) (*result, error) {
	r := &runner{o: o, w: w, nproc: runtime.NumCPU(),
		dir:    filepath.Join(workDir, w.Name),
		client: &http.Client{Timeout: 10 * time.Second}}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	for _, b := range []string{"serve", "gateway"} {
		if _, err := os.Stat(filepath.Join(binDir, b)); err != nil {
			return nil, fmt.Errorf("server binary missing (build with run.sh): %w", err)
		}
	}
	p := newPlan(o.seconds)
	t0 := time.Now()
	st, err := NewStream(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating stream: %w", err)
	}
	r.stream = st
	if r.art, err = buildArtefacts(ctx, r.dir, o.seed, w.Quant, w.SwapEvery > 0); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: stream digest %.16s, artefacts built in %v\n",
		w.Name, o.seed, st.Digest(blockReqs), time.Since(t0).Round(time.Millisecond))
	if o.trace {
		return r.traced(ctx)
	}
	return r.measured(ctx, p)
}

// measured is the untraced run: set-up, reference phase, ladder.
func (r *runner) measured(ctx context.Context, p plan) (*result, error) {
	t0 := time.Now()
	top, setup, err := r.startMeasured()
	if err != nil {
		return nil, err
	}
	defer top.stop()
	d := newDriver(top.front(), top.replica.url, r.stream, r.art.gobs, r.nproc)
	defer d.close()
	versions := map[uint64]byte{1: 'A'}
	var phases []*phase
	next, repeats := 0, 0
	// runPhase sends the next stretch of the stream. With retry, a phase
	// measured on a disturbed machine (the load generator itself ran
	// late, or the hypervisor took CPU time from this machine) is
	// repeated once on new requests, at most maxRepeats times a run so
	// that a persistently disturbed machine cannot stretch the run.
	runPhase := func(rate float64, dur time.Duration, maxBacklog int, retry bool) (*phase, error) {
		for attempt := 1; ; attempt++ {
			ph, err := d.run(ctx, next, rate, dur, r.w.SwapEvery, maxBacklog)
			if err != nil {
				return nil, err
			}
			next = ph.next
			for v, s := range ph.swapVers {
				versions[v] = s
			}
			phases = append(phases, ph)
			late := quantile(ph.lateMs(), 0.99)
			if !retry || attempt == 2 || repeats == maxRepeats || late <= genLateLimitMs && ph.steal <= stealLimit {
				return ph, nil
			}
			repeats++
			fmt.Fprintf(os.Stderr, "e2ebench: %.0f/s phase disturbed (generator late p99 %.1f ms, steal %.3f CPUs); repeating it\n",
				rate, late, ph.steal)
		}
	}

	if _, err := runPhase(refRate, p.warmup, 0, false); err != nil {
		return nil, err
	}
	ref, err := runPhase(refRate, p.ref, 0, false)
	if err != nil {
		return nil, err
	}
	// Ladder: binary search for the highest passing rung; rung 0 is the
	// reference phase.
	lo, hi := -1, ladderRungs
	if r.passes(ref) {
		lo = 0
	} else {
		hi = 0
	}
	for probes := 0; hi-lo > 1 && probes < p.probes; probes++ {
		time.Sleep(p.pause)
		mid := (lo + hi) / 2
		rate := rung(mid)
		ph, err := runPhase(rate, p.probe, int(rate*limitMs/1000)+1, true)
		if err != nil {
			return nil, err
		}
		pass := r.passes(ph)
		if pass {
			lo = mid
		} else {
			hi = mid
		}
		fmt.Fprintf(os.Stderr, "e2ebench: probe %.0f/s: p99 %.2f ms, backlog %d, steal %.3f -> %v\n",
			rate, quantile(ph.scoredLatencies(nil), 0.99), ph.backlog, ph.steal, pass)
	}
	maxRPS := 0.0
	if lo >= 0 {
		maxRPS = rung(lo)
	}

	var rss float64
	for _, pr := range top.procs() {
		mb, err := pr.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	if err := top.stop(); err != nil {
		return nil, err
	}
	t1 := time.Now()

	o := newOracle(r.stream, r.art.snaps, r.art.corpusIdx, bandDefault, r.nproc)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	skew := 0
	for _, ph := range phases {
		c := o.check(ph, versions)
		res.Correct = res.Correct && r.report(c)
		skew += c.triageSkew
		a, f := ph.counts()
		res.Attempted += a
		res.Failed += f
	}
	keep, kept, keptShare := ref.quiet()
	lat := ref.scoredLatencies(keep)
	a, f := ref.counts()
	genLate := quantile(ref.lateMs(), 0.99)
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	res.Metrics["p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	res.Metrics["max_rps"] = metric{maxRPS, "1/s"}
	res.Metrics["fail_frac"] = metric{float64(f+1) / float64(a+1), "ratio"}
	res.Metrics["rss_mb"] = metric{rss, "MiB"}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: reference %.0f/s, %d scored samples in %d of %d windows (stolen share %.3f), failed %d/%d, triage skew %d, generator late p99 %.3f ms; servers and traffic %v, oracle %v\n",
		r.w.Name, refRate, len(lat), kept, len(keep), keptShare, f, a, skew, genLate,
		t1.Sub(t0).Round(time.Millisecond), time.Since(t1).Round(time.Millisecond))
	r.stamp(map[string]any{
		"scored_samples":        len(lat),
		"ref_windows":           len(keep),
		"ref_windows_kept":      kept,
		"ref_kept_stolen_share": keptShare,
		"ref_steal_cpus":        ref.steal,
		"triage_skew":           skew,
		"gen_late_p99_ms":       genLate,
		"probe_repeats":         repeats,
		"valid":                 genLate <= genLateLimitMs,
	})
	return res, nil
}

// report prints the first wrong verdicts of a check and says whether the
// check passed.
func (r *runner) report(c checkResult) bool {
	for _, m := range c.mismatches[:min(5, len(c.mismatches))] {
		fmt.Fprintln(os.Stderr, "e2ebench: WRONG VERDICT:", m)
	}
	return len(c.mismatches) == 0
}

// bandDefault is cmd/serve's default -band, the int8 tier's escalation band.
const bandDefault = 0.2

// stealLimit is the hypervisor steal (CPUs, averaged over a probe) above
// which a ladder probe is repeated; maxRepeats caps the repeats per run.
const (
	stealLimit = 0.15
	maxRepeats = 2
)

// genLateLimitMs is the generator lateness (p99) beyond which a run is
// marked invalid: the load generator, not the servers, set the pace.
const genLateLimitMs = 5.0

// passes applies the ladder's acceptance rule to one phase.
func (r *runner) passes(ph *phase) bool {
	a, f := ph.counts()
	return !ph.aborted && a > 0 &&
		float64(f) <= 0.001*float64(a) &&
		quantile(ph.scoredLatencies(nil), 0.99) <= limitMs
}

// stamp prints the run's provenance as one JSON line on stdout, before the
// result line, and warns on stderr when the run is invalid.
func (r *runner) stamp(extra map[string]any) {
	host, _ := os.Hostname()
	s := map[string]any{
		"workload":          r.w.Name,
		"seed":              r.o.seed,
		"seconds":           r.o.seconds,
		"trace":             r.o.trace,
		"commit":            commit(),
		"source_digest":     sourceDigest(),
		"host":              host,
		"nproc":             r.nproc,
		"gomaxprocs":        map[string]int{"load": runtime.GOMAXPROCS(0), "serve": r.nproc, "gateway": r.nproc},
		"go":                runtime.Version(),
		"stream_digest":     r.stream.Digest(blockReqs),
		"stream_generated":  len(r.stream.Reqs),
		"ref_rate_rps":      refRate,
		"ladder":            fmt.Sprintf("%.0f/s * %.2f^k, k=0..%d", refRate, ladderStep, ladderRungs-1),
		"latency_limit_ms":  limitMs,
		"gen_late_limit_ms": genLateLimitMs,
		"connections":       r.nproc,
	}
	for k, v := range extra {
		s[k] = v
	}
	if v, ok := s["valid"].(bool); ok && !v {
		fmt.Fprintln(os.Stderr, "e2ebench: INVALID RUN: the load generator ran late (gen_late_p99_ms above limit)")
	}
	line, _ := json.Marshal(map[string]any{"stamp": s})
	fmt.Println(string(line))
}

// commit is the git commit of the working directory, read from .git when
// it is a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (" + ref + ")"
}

// sourceDigest hashes go.mod and every .go file under the working
// directory, identifying the code measured even outside a git checkout.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
