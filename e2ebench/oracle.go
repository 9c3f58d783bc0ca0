package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/index"
	"advmal/internal/ir"
	"advmal/internal/nn"
	"advmal/internal/serve"
)

// snapshot is one of the two trained models the replica serves.
type snapshot struct {
	model *core.Model
	quant *nn.QuantModel // nil unless the workload serves the int8 tier
}

// oracle recomputes every verdict in-process, under the snapshot the
// verdict's model_version names, and compares it field by field with what
// the server answered.
type oracle struct {
	stream  *Stream
	snaps   map[byte]*snapshot
	corpus  *index.Corpus
	band    float64
	workers int

	feats  map[int]*progFeatures
	expect map[expectKey]serve.Verdict
}

type expectKey struct {
	prog int
	snap byte
}

// progFeatures is a program's CFG summary and raw feature vector,
// recomputed without the extractor cache.
type progFeatures struct {
	raw           []float64
	blocks, edges int
	err           error
}

func newOracle(st *Stream, snaps map[byte]*snapshot, corpus *index.Corpus, band float64, workers int) *oracle {
	return &oracle{stream: st, snaps: snaps, corpus: corpus, band: band, workers: workers,
		feats: map[int]*progFeatures{}, expect: map[expectKey]serve.Verdict{}}
}

// topTwoMargin is the int8 tier's escalation test: rows whose top-two
// probability margin is below the band are answered by the float engine.
func topTwoMargin(p []float64) float64 {
	s := slices.Clone(p)
	slices.Sort(s)
	if len(s) < 2 {
		return 0
	}
	return s[len(s)-1] - s[len(s)-2]
}

// parallel runs f(0..n-1) on the oracle's workers.
func (o *oracle) parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// prepare computes the expected verdict of every (program, snapshot)
// pair not computed yet. Inference runs in batches: the float batch path
// is bit-identical to the per-row one, and the int8 model runs row by row
// inside its batch call, so batching changes no result.
func (o *oracle) prepare(keys []expectKey) {
	var progs []int
	for _, k := range keys {
		if o.feats[k.prog] == nil {
			o.feats[k.prog] = &progFeatures{}
			progs = append(progs, k.prog)
		}
	}
	o.parallel(len(progs), func(i int) {
		pf := o.feats[progs[i]]
		p, err := ir.Parse(o.stream.Programs[progs[i]].Text)
		if err != nil {
			pf.err = err
			return
		}
		cfg, err := ir.Disassemble(p)
		if err != nil {
			pf.err = err
			return
		}
		g := cfg.G()
		pf.raw, pf.blocks, pf.edges = features.Extract(g), g.N(), g.M()
	})

	for name, s := range o.snaps {
		var todo []int
		for _, k := range keys {
			if k.snap == name && o.feats[k.prog].err == nil {
				todo = append(todo, k.prog)
			}
		}
		if len(todo) == 0 {
			continue
		}
		scaled := make([][]float64, len(todo))
		for i, prog := range todo {
			scaled[i], o.feats[prog].err = s.model.Scaler.Transform(o.feats[prog].raw)
			if o.feats[prog].err != nil {
				return
			}
		}
		probs := make([][]float64, len(scaled))
		o.parallel((len(scaled)+oracleBatch-1)/oracleBatch, func(c int) {
			lo, hi := c*oracleBatch, min((c+1)*oracleBatch, len(scaled))
			copy(probs[lo:hi], o.infer(s, scaled[lo:hi]))
		})
		verdicts := make([]serve.Verdict, len(todo))
		o.parallel(len(todo), func(i int) {
			pf, p := o.feats[todo[i]], &o.stream.Programs[todo[i]]
			name := ""
			if p.JSON {
				name = p.Name
			}
			v, err := serve.MakeVerdict(name, slices.Clone(probs[i]), pf.blocks, pf.edges, true, 0)
			if err != nil {
				v.Name = "oracle: " + err.Error()
			}
			if o.corpus != nil {
				if hits, err := o.corpus.HNSW.Search(scaled[i], 1); err == nil {
					ti := o.corpus.Triage.Score(hits)
					v.Triage = &ti
				}
			}
			verdicts[i] = v
		})
		for i, prog := range todo {
			o.expect[expectKey{prog, name}] = verdicts[i]
		}
	}
}

// oracleBatch is the rows per inference call.
const oracleBatch = 64

// infer scores scaled rows the way the replica's engine does: float, or
// int8 with rows whose top-two margin is below the band re-run on float.
func (o *oracle) infer(s *snapshot, rows [][]float64) [][]float64 {
	ws := s.model.AcquireWS()
	defer s.model.ReleaseWS(ws)
	if s.quant == nil {
		return ws.ProbsBatch(rows, nil)
	}
	probs := s.quant.NewWS().ProbsBatch(rows, nil)
	var esc []int
	var escRows [][]float64
	for i, p := range probs {
		if topTwoMargin(p) < o.band {
			esc, escRows = append(esc, i), append(escRows, rows[i])
		}
	}
	if len(esc) > 0 {
		for j, p := range ws.ProbsBatch(escRows, nil) {
			probs[esc[j]] = p
		}
	}
	return probs
}

// checkResult is the outcome of checking a phase's verdicts.
type checkResult struct {
	checked    int
	mismatches []string // wrong verdicts: these fail the run
	triageSkew int      // triage blocks that disagree with the verdict's snapshot
}

// check compares every 200 verdict of the phase with the oracle, using
// versions to map model_version to snapshot A or B.
func (o *oracle) check(ph *phase, versions map[uint64]byte) checkResult {
	type answer struct {
		req int
		key expectKey
		got serve.Verdict
	}
	var (
		res     checkResult
		answers []answer
		keys    []expectKey
		queued  = map[expectKey]bool{}
	)
	for k := range ph.samples {
		s := &ph.samples[k]
		if s.req < 0 || s.body == nil {
			continue
		}
		res.checked++
		var got serve.Verdict
		if err := json.Unmarshal(s.body, &got); err != nil {
			res.mismatches = append(res.mismatches, fmt.Sprintf("request %d: undecodable verdict: %v", s.req, err))
			continue
		}
		snap, ok := versions[got.ModelVersion]
		if !ok {
			res.mismatches = append(res.mismatches,
				fmt.Sprintf("request %d: model_version %d names no installed snapshot", s.req, got.ModelVersion))
			continue
		}
		key := expectKey{o.stream.Reqs[s.req].Prog, snap}
		answers = append(answers, answer{s.req, key, got})
		if _, ok := o.expect[key]; !ok && !queued[key] {
			queued[key] = true
			keys = append(keys, key)
		}
	}
	o.prepare(keys)
	for _, a := range answers {
		if err := o.feats[a.key.prog].err; err != nil {
			res.mismatches = append(res.mismatches, fmt.Sprintf("request %d: oracle: %v", a.req, err))
			continue
		}
		want := o.expect[a.key]
		want.ModelVersion = a.got.ModelVersion
		gotTriage, wantTriage := a.got.Triage, want.Triage
		a.got.Triage, want.Triage = nil, nil
		if d := diffVerdict(a.got, want); d != "" {
			res.mismatches = append(res.mismatches,
				fmt.Sprintf("request %d: snapshot %c (v%d): %s", a.req, a.key.snap, a.got.ModelVersion, d))
			continue
		}
		if (gotTriage == nil) != (wantTriage == nil) || (gotTriage != nil && *gotTriage != *wantTriage) {
			res.triageSkew++
		}
	}
	return res
}

// diffVerdict names the first field where got and want differ. Probs are
// compared exactly: encoding/json round-trips float64 without loss.
func diffVerdict(got, want serve.Verdict) string {
	switch {
	case got.Name != want.Name:
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	case got.Class != want.Class || got.Label != want.Label || got.Malicious != want.Malicious || got.Family != want.Family:
		return fmt.Sprintf("class %d/%s, want %d/%s", got.Class, got.Label, want.Class, want.Label)
	case !slices.Equal(got.Probs, want.Probs):
		return fmt.Sprintf("probs %v, want %v", got.Probs, want.Probs)
	case got.Confidence != want.Confidence:
		return fmt.Sprintf("confidence %v, want %v", got.Confidence, want.Confidence)
	case got.HasGraph != want.HasGraph || got.Blocks != want.Blocks || got.Edges != want.Edges:
		return fmt.Sprintf("graph %v/%d/%d, want %v/%d/%d", got.HasGraph, got.Blocks, got.Edges,
			want.HasGraph, want.Blocks, want.Edges)
	}
	return ""
}
