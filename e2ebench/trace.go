package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/gateway"
	"advmal/internal/index"
	"advmal/internal/ir"
	"advmal/internal/serve"
)

// The traced run has three phases, each replaying the same stream prefix
// at the reference rate:
//
//	real:     the real server processes, with /metrics scraped before
//	          and after (cache, tier, triage and key-cache counters);
//	plain:    serve.Handler() (and gateway.Handler()) in this process on
//	          loopback listeners, untraced: the baseline for the tracing
//	          overhead;
//	traced:   the same request path rebuilt from the layers' public
//	          calls, each wrapped in a span, in the order the handler
//	          makes them.
//
// Per-layer self times come from the traced phase. Every request of a
// traced run carries its stream index in reqIDHeader, so each scored
// request's spans can be subtracted from its own end-to-end latency; the
// median of what is left, over the traced p50, is harness.uncovered_frac.

// reqIDHeader carries a request's stream index in a traced run.
const reqIDHeader = "X-E2ebench-Req"

// reqSpan is one traced request's span durations, in handler order.
type reqSpan struct {
	id                                           int // stream index, -1 if untagged
	scored                                       bool
	blocks                                       int
	parse, disasm, extract, submit, queue, infer time.Duration
	search, encode                               time.Duration
}

// batchSpan is one batch executed by the traced batcher.
type batchSpan struct {
	start, end time.Time
	size       int
	version    uint64
}

// swapSpan is one hot swap through the traced admin handler.
type swapSpan struct {
	took    time.Duration // core.LoadModel + Handle.Swap
	done    time.Time
	version uint64
}

// tracer is the traced request path: the replica's handler rebuilt from
// public calls (ir.Parse, ir.Disassemble, Extractor.Extract,
// Batcher.SubmitV, HNSW.Search+Triage.Score, MakeVerdict+json.Marshal),
// recording a span around each.
type tracer struct {
	h       *core.Handle
	batcher *serve.Batcher
	corpus  *index.Corpus
	stream  *Stream

	mu      sync.Mutex
	spans   []reqSpan
	byRow   map[*float64]batchSpan
	batches []batchSpan
	swaps   []swapSpan
	hops    map[int]time.Duration // gateway self time by stream index
}

// spanEngine times each batch the batcher runs and attributes it to the
// rows it scored.
type spanEngine struct {
	inner serve.BatchEngine
	t     *tracer
}

type versioned interface{ ModelVersion() uint64 }

func (e *spanEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	start := time.Now()
	out := e.inner.ProbsBatch(xs, dst)
	b := batchSpan{start: start, end: time.Now(), size: len(xs), version: e.ModelVersion()}
	e.t.mu.Lock()
	for _, x := range xs {
		e.t.byRow[&x[0]] = b
	}
	e.t.batches = append(e.t.batches, b)
	e.t.mu.Unlock()
	return out
}

func (e *spanEngine) SafeProbs(x []float64) ([]float64, error) { return e.inner.SafeProbs(x) }
func (e *spanEngine) ModelVersion() uint64                     { return e.inner.(versioned).ModelVersion() }

func (t *tracer) fail(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (t *tracer) classify(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.fail(w, http.StatusBadRequest, err)
		return
	}
	name, text := "", string(body)
	if r.Header.Get("Content-Type") == "application/json" {
		var req struct {
			Name    string `json:"name"`
			Program string `json:"program"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.fail(w, http.StatusBadRequest, err)
			return
		}
		name, text = req.Name, req.Program
	}
	sp := reqSpan{id: t.reqID(r.Header)}
	sp.scored = sp.id >= 0 && t.stream.Reqs[sp.id].Scored
	t0 := time.Now()
	prog, err := ir.Parse(text)
	t1 := time.Now()
	if err != nil {
		t.fail(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := ir.Disassemble(prog)
	t2 := time.Now()
	if err != nil {
		t.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	g := cfg.G()
	raw := t.h.Current().Extractor.Extract(g)
	t3 := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	probs, ver, err := t.batcher.SubmitV(ctx, raw)
	cancel()
	t4 := time.Now()
	if err != nil {
		t.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	// Triage scales with a second Current() read, as the replica does.
	var ti *index.TriageInfo
	if scaled, err := t.h.Current().Scaler.Transform(raw); err == nil {
		if hits, err := t.corpus.HNSW.Search(scaled, 1); err == nil && len(hits) > 0 {
			info := t.corpus.Triage.Score(hits)
			ti = &info
		}
	}
	t5 := time.Now()
	v, err := serve.MakeVerdict(name, probs, g.N(), g.M(), true, ver)
	if err != nil {
		t.fail(w, http.StatusInternalServerError, err)
		return
	}
	v.Triage = ti
	out, err := json.Marshal(v)
	t6 := time.Now()
	if err != nil {
		t.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)

	sp.blocks = g.N()
	sp.parse, sp.disasm, sp.extract = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	sp.submit, sp.search, sp.encode = t4.Sub(t3), t5.Sub(t4), t6.Sub(t5)
	t.mu.Lock()
	if b, ok := t.byRow[&raw[0]]; ok {
		sp.queue, sp.infer = b.start.Sub(t3), b.end.Sub(b.start)
		delete(t.byRow, &raw[0])
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) swap(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.fail(w, http.StatusBadRequest, err)
		return
	}
	t0 := time.Now()
	m, err := core.LoadModel(bytes.NewReader(body))
	if err != nil {
		t.fail(w, http.StatusBadRequest, err)
		return
	}
	old, err := t.h.Swap(m)
	done := time.Now()
	if err != nil {
		t.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	t.mu.Lock()
	t.swaps = append(t.swaps, swapSpan{took: done.Sub(t0), done: done, version: m.Version})
	t.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]uint64{"old_version": old.Version, "new_version": m.Version})
}

// reqID returns the stream index a traced request carries, or -1.
func (t *tracer) reqID(h http.Header) int {
	id, err := strconv.Atoi(h.Get(reqIDHeader))
	if err != nil || id < 0 || id >= len(t.stream.Reqs) {
		return -1
	}
	return id
}

// gwSpan is a gateway request's stream index and upstream time, carried
// through the gateway's forward path to timedTransport by its context.
type gwSpan struct {
	id       string
	upstream atomic.Int64
}

type gwSpanKey struct{}

// timedTransport measures each upstream attempt, from RoundTrip until the
// gateway closes the response body, and passes the stream index on to the
// replica (the gateway forwards only Content-Type).
type timedTransport struct{ inner http.RoundTripper }

type timedBody struct {
	io.ReadCloser
	start time.Time
	span  *gwSpan
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.span.upstream.Add(int64(time.Since(b.start)))
	return err
}

func (tt timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	span, _ := req.Context().Value(gwSpanKey{}).(*gwSpan)
	if span != nil && span.id != "" {
		req = req.Clone(req.Context())
		req.Header.Set(reqIDHeader, span.id)
	}
	start := time.Now()
	resp, err := tt.inner.RoundTrip(req)
	if span == nil || err != nil {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, start: start, span: span}
	return resp, nil
}

// gatewayFront wraps the gateway handler, recording the gateway's self
// time (its handler span minus the upstream attempt) by stream index.
func (t *tracer) gatewayFront(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.reqID(r.Header)
		span := &gwSpan{id: r.Header.Get(reqIDHeader)}
		r = r.WithContext(context.WithValue(r.Context(), gwSpanKey{}, span))
		start := time.Now()
		h.ServeHTTP(w, r)
		self := time.Since(start) - time.Duration(span.upstream.Load())
		if r.URL.Path == "/v1/classify" && id >= 0 {
			t.mu.Lock()
			t.hops[id] = self
			t.mu.Unlock()
		}
	})
}

// inproc is one in-process topology on loopback listeners.
type inproc struct {
	servers []*http.Server
	closers []func()
	front   string
	replica string
}

func (p *inproc) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	p.servers = append(p.servers, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func (p *inproc) close() {
	for i := len(p.servers) - 1; i >= 0; i-- {
		p.servers[i].Shutdown(context.Background())
	}
	for _, c := range p.closers {
		c()
	}
}

func (r *runner) loadA() (*core.Handle, error) {
	m, err := core.LoadModel(bytes.NewReader(r.art.gobs['A']))
	if err != nil {
		return nil, err
	}
	return core.NewHandle(m), nil
}

// startPlain serves the real serve.Handler() (and gateway.Handler()) in
// this process.
func (r *runner) startPlain() (*inproc, error) {
	h, err := r.loadA()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Handle: h, Corpus: r.art.corpusIdx,
		Quantize: r.w.Quant, Band: bandDefault, Admin: r.w.SwapEvery > 0})
	if err != nil {
		return nil, err
	}
	p := &inproc{closers: []func(){func() { srv.Drain() }}}
	if p.replica, err = p.serve(srv.Handler()); err != nil {
		p.close()
		return nil, err
	}
	p.front = p.replica
	if r.w.Gateway {
		gw, err := gateway.New(gateway.Config{Backends: []string{p.replica}})
		if err != nil {
			p.close()
			return nil, err
		}
		p.closers = append(p.closers, gw.Close)
		if p.front, err = p.serve(gw.Handler()); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// startTraced serves the traced request path in this process.
func (r *runner) startTraced() (*inproc, *tracer, error) {
	h, err := r.loadA()
	if err != nil {
		return nil, nil, err
	}
	t := &tracer{h: h, corpus: r.art.corpusIdx, stream: r.stream,
		byRow: map[*float64]batchSpan{}, hops: map[int]time.Duration{}}
	metrics := serve.NewMetrics()
	t.batcher = serve.NewBatcher(serve.BatcherConfig{
		Workers:    r.nproc,
		BatchSize:  64,
		Window:     2 * time.Millisecond,
		QueueDepth: 1024,
		InputDim:   features.NumFeatures,
		Metrics:    metrics,
		NewEngine: func() serve.BatchEngine {
			return &spanEngine{inner: serve.NewHandleEngine(h, r.w.Quant, bandDefault, metrics), t: t}
		},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", t.classify)
	mux.HandleFunc("POST /admin/swap", t.swap)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ready\n") })
	p := &inproc{closers: []func(){t.batcher.Close}}
	if p.replica, err = p.serve(mux); err != nil {
		p.close()
		return nil, nil, err
	}
	p.front = p.replica
	if r.w.Gateway {
		gw, err := gateway.New(gateway.Config{Backends: []string{p.replica},
			Transport: timedTransport{inner: http.DefaultTransport}})
		if err != nil {
			p.close()
			return nil, nil, err
		}
		p.closers = append(p.closers, gw.Close)
		if p.front, err = p.serve(t.gatewayFront(gw.Handler())); err != nil {
			p.close()
			return nil, nil, err
		}
	}
	return p, t, nil
}

// replay sends the stream prefix at the reference rate for dur against
// front (swaps to swapURL) and checks every verdict.
func (r *runner) replay(ctx context.Context, front, swapURL string, dur time.Duration, res *result) (*phase, checkResult, error) {
	d := newDriver(front, swapURL, r.stream, r.art.gobs, r.nproc)
	d.tag = true
	defer d.close()
	ph, err := d.run(ctx, 0, refRate, dur, r.w.SwapEvery, 0)
	if err != nil {
		return nil, checkResult{}, err
	}
	versions := map[uint64]byte{1: 'A'}
	for v, s := range ph.swapVers {
		versions[v] = s
	}
	c := newOracle(r.stream, r.art.snaps, r.art.corpusIdx, bandDefault, r.nproc).check(ph, versions)
	res.Correct = res.Correct && r.report(c)
	a, f := ph.counts()
	res.Attempted += a
	res.Failed += f
	return ph, c, nil
}

// traced is the traced run: it reports every per-layer metric.
func (r *runner) traced(ctx context.Context) (*result, error) {
	total := time.Duration(r.o.seconds) * time.Second
	durReal, durPlain := total*4/10, total*3/10
	durTraced := total - durReal - durPlain
	res := &result{Correct: true, Metrics: map[string]metric{}}

	// Phase real: the server processes and their /metrics.
	top, _, err := r.start()
	if err != nil {
		return nil, err
	}
	before, err := r.scrapeAll(ctx, top)
	if err != nil {
		return nil, errors.Join(err, top.stop())
	}
	realPh, realCheck, err := r.replay(ctx, top.front(), top.replica.url, durReal, res)
	if err != nil {
		return nil, errors.Join(err, top.stop())
	}
	after, err := r.scrapeAll(ctx, top)
	if err := errors.Join(err, top.stop()); err != nil {
		return nil, err
	}

	// Phase plain: the real handlers in this process, untraced.
	features.Shared.Reset()
	plain, err := r.startPlain()
	if err != nil {
		return nil, err
	}
	plainPh, _, err := r.replay(ctx, plain.front, plain.replica, durPlain, res)
	plain.close()
	if err != nil {
		return nil, err
	}

	// Phase traced.
	features.Shared.Reset()
	tp, t, err := r.startTraced()
	if err != nil {
		return nil, err
	}
	tracedPh, _, err := r.replay(ctx, tp.front, tp.replica, durTraced, res)
	tp.close()
	if err != nil {
		return nil, err
	}

	r.layerMetrics(res, t, tracedPh, plainPh, realPh, realCheck, scrapeDiff{before["serve"], after["serve"]},
		scrapeDiff{before["gateway"], after["gateway"]})
	r.stamp(map[string]any{
		"phases_s": map[string]float64{"real": durReal.Seconds(), "plain": durPlain.Seconds(), "traced": durTraced.Seconds()},
		"valid":    res.Metrics["harness.gen_late_p99_ms"].Value <= genLateLimitMs,
	})
	return res, nil
}

func (r *runner) scrapeAll(ctx context.Context, top *topology) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for _, p := range top.procs() {
		m, err := scrape(ctx, r.client, p.url)
		if err != nil {
			return nil, err
		}
		out[p.name] = m
	}
	return out, nil
}

// layerMetrics fills every per-layer metric and prints the traced p50
// reconciliation on stderr.
func (r *runner) layerMetrics(res *result, t *tracer, traced, plain, realPh *phase, realCheck checkResult, sd, gd scrapeDiff) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	col := func(pick func(*reqSpan) time.Duration, scoredOnly bool) []float64 {
		var out []float64
		for i := range t.spans {
			if !scoredOnly || t.spans[i].scored {
				out = append(out, us(pick(&t.spans[i])))
			}
		}
		return out
	}
	parse := func(s *reqSpan) time.Duration { return s.parse }
	disasm := func(s *reqSpan) time.Duration { return s.disasm }
	extract := func(s *reqSpan) time.Duration { return s.extract }
	queue := func(s *reqSpan) time.Duration { return s.queue }
	infer := func(s *reqSpan) time.Duration { return s.infer }
	search := func(s *reqSpan) time.Duration { return s.search }
	encode := func(s *reqSpan) time.Duration { return s.encode }

	set("ir.parse_us_p50", median(col(parse, false)), "us")
	set("ir.disasm_us_p50", median(col(disasm, false)), "us")
	set("features.extract_us_p50", median(col(extract, false)), "us")
	set("features.extract_us_p99", quantile(col(extract, false), 0.99), "us")
	var blocks, splice []float64
	for i := range t.spans {
		s := &t.spans[i]
		blocks = append(blocks, float64(s.blocks))
		if !s.scored {
			splice = append(splice, ms(s.parse+s.disasm+s.extract))
		}
	}
	set("graph.blocks_p99", quantile(blocks, 0.99), "count")
	set("gea.splice_ms_p50", median(splice), "ms")
	set("serve.queue_wait_us_p50", median(col(queue, false)), "us")
	set("serve.infer_us_p50", median(col(infer, false)), "us")
	var sizes []float64
	for _, b := range t.batches {
		sizes = append(sizes, float64(b.size))
	}
	set("serve.batch_size_mean", mean(sizes), "count")
	set("index.search_us_p50", median(col(search, false)), "us")
	set("serve.encode_us_p50", median(col(encode, false)), "us")

	var swapMs, firstMs []float64
	for _, s := range t.swaps {
		swapMs = append(swapMs, ms(s.took))
		for _, b := range t.batches {
			if b.version == s.version && !b.end.Before(s.done) {
				firstMs = append(firstMs, ms(b.end.Sub(s.done)))
				break
			}
		}
	}
	set("core.swap_ms_p50", median(swapMs), "ms")
	set("serve.first_batch_after_swap_ms", median(firstMs), "ms")
	var hops []float64
	for id, h := range t.hops {
		if r.stream.Reqs[id].Scored {
			hops = append(hops, us(h))
		}
	}
	set("gateway.hop_us_p50", median(hops), "us")

	// Counter ratios from the real servers' /metrics over the real phase.
	hits, misses := sd.delta("advmal_feature_cache_hits_total"), sd.delta("advmal_feature_cache_misses_total")
	set("features.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	esc, bulk := sd.delta(`advmal_tier_rows_total{tier="escalated"}`), sd.delta(`advmal_tier_rows_total{tier="bulk"}`)
	set("serve.escalated_frac", ratio(esc, esc+bulk), "ratio")
	set("index.triage_flagged_frac", ratio(sd.delta("advmal_triage_flagged_total"), sd.sumDelta("advmal_verdicts_total")), "ratio")
	kh, km := gd.delta("gateway_key_cache_hits_total"), gd.delta("gateway_key_cache_misses_total")
	set("gateway.keycache_hit_ratio", ratio(kh, kh+km), "ratio")
	set("serve.triage_skew", float64(realCheck.triageSkew), "count")

	// Harness: what the spans leave of the traced p50, tracing cost,
	// generator lateness.
	tracedP50, plainP50 := median(traced.scoredLatencies(nil)), median(plain.scoredLatencies(nil))
	submitSelf := func(s *reqSpan) time.Duration { return s.submit - s.queue - s.infer }
	layers := []struct {
		name string
		us   float64
	}{
		{"ir.parse", median(col(parse, true))},
		{"ir.disasm", median(col(disasm, true))},
		{"features.extract", median(col(extract, true))},
		{"serve.submit_self", median(col(submitSelf, true))},
		{"serve.queue_wait", median(col(queue, true))},
		{"serve.infer", median(col(infer, true))},
		{"index.search", median(col(search, true))},
		{"serve.encode", median(col(encode, true))},
		{"gateway.hop", median(hops)},
	}
	var sumMedians float64
	fmt.Fprintf(os.Stderr, "e2ebench: %s traced p50 %.3f ms (untraced in-process %.3f ms), self time p50 per layer:\n",
		r.w.Name, tracedP50, plainP50)
	for _, l := range layers {
		sumMedians += l.us / 1000
		fmt.Fprintf(os.Stderr, "  %-18s %9.1f us  %5.1f%%\n", l.name, l.us, 100*l.us/1000/tracedP50)
	}
	// Per request: its latency minus every span it has, the gateway hop
	// and the batcher hand-off included.
	byID := map[int]*reqSpan{}
	for i := range t.spans {
		if t.spans[i].id >= 0 {
			byID[t.spans[i].id] = &t.spans[i]
		}
	}
	var left []float64
	missing := 0
	for k := range traced.samples {
		smp := &traced.samples[k]
		if !smp.scored || !smp.sent || smp.failed() {
			continue
		}
		sp, ok := byID[smp.req]
		if !ok {
			missing++
			continue
		}
		covered := sp.parse + sp.disasm + sp.extract + sp.submit + sp.search + sp.encode + t.hops[smp.req]
		left = append(left, ms(smp.latency()-covered))
	}
	uncovered := ratio(median(left), tracedP50)
	fmt.Fprintf(os.Stderr, "  %-18s %9.1f us  %5.1f%%  (median over %d requests of latency minus own spans; %d without spans)\n",
		"uncovered", median(left)*1000, 100*uncovered, len(left), missing)
	fmt.Fprintf(os.Stderr, "  %-18s %9.1f us  %5.1f%%  (traced p50 minus the sum of the layer medians above)\n",
		"residual", (tracedP50-sumMedians)*1000, 100*ratio(tracedP50-sumMedians, tracedP50))
	set("harness.uncovered_frac", uncovered, "ratio")
	set("harness.trace_overhead_frac", ratio(tracedP50-plainP50, plainP50), "ratio")
	set("harness.gen_late_p99_ms", quantile(realPh.lateMs(), 0.99), "ms")
}
