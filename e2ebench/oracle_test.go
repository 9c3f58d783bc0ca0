package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"advmal/internal/core"
	"advmal/internal/index"
	"advmal/internal/serve"
)

// testRig is a real in-process replica behind a test double that can
// corrupt its verdicts.
type testRig struct {
	stream *Stream
	oracle *oracle
	gobs   map[byte][]byte
	srv    *serve.Server
}

func newTestRig(t *testing.T) *testRig {
	t.Helper()
	gob, corpus, err := trainSnapshot(context.Background(), 5, true)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("gea-flood")
	st, err := Generate(w, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	load := func() *core.Model {
		m, err := core.LoadModel(bytes.NewReader(gob))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	srv, err := serve.New(serve.Config{Handle: core.NewHandle(load()), Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain() })
	snaps := map[byte]*snapshot{'A': {model: load()}}
	return &testRig{stream: st, gobs: map[byte][]byte{'A': gob}, srv: srv,
		oracle: newOracle(st, snaps, corpus, bandDefault, 2)}
}

// run drives the replica through a double that rewrites each 200 verdict
// with corrupt, and returns the oracle's findings.
func (r *testRig) run(t *testing.T, corrupt func(*serve.Verdict)) checkResult {
	t.Helper()
	double := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		r.srv.Handler().ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && corrupt != nil {
			var v serve.Verdict
			if err := json.Unmarshal(body, &v); err != nil {
				t.Error(err)
			}
			corrupt(&v)
			body, _ = json.Marshal(v)
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer double.Close()
	d := newDriver(double.URL, double.URL, r.stream, r.gobs, 2)
	defer d.close()
	ph, err := d.run(context.Background(), 0, 200, 250*time.Millisecond, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, f := ph.counts(); a == 0 || f != 0 {
		t.Fatalf("%d requests, %d failed", a, f)
	}
	return r.oracle.check(ph, map[uint64]byte{1: 'A'})
}

func TestOracleAcceptsRealVerdicts(t *testing.T) {
	r := newTestRig(t)
	c := r.run(t, nil)
	if c.checked == 0 || len(c.mismatches) != 0 || c.triageSkew != 0 {
		t.Fatalf("checked %d, mismatches %v, triage skew %d", c.checked, c.mismatches, c.triageSkew)
	}
}

func TestOracleRejectsCorruptedVerdicts(t *testing.T) {
	r := newTestRig(t)
	cases := map[string]func(*serve.Verdict){
		"flipped prob":  func(v *serve.Verdict) { v.Probs[0] = math.Nextafter(v.Probs[0], 2) },
		"wrong version": func(v *serve.Verdict) { v.ModelVersion = 2 },
		"wrong blocks":  func(v *serve.Verdict) { v.Blocks++ },
		"wrong class":   func(v *serve.Verdict) { v.Class = 1 - v.Class },
	}
	for name, corrupt := range cases {
		c := r.run(t, corrupt)
		if c.checked == 0 || len(c.mismatches) != c.checked {
			t.Errorf("%s: %d of %d verdicts flagged", name, len(c.mismatches), c.checked)
		}
	}
}

// TestTriageSkewCounted checks that a triage block from another snapshot
// is counted, not failed.
func TestTriageSkewCounted(t *testing.T) {
	r := newTestRig(t)
	c := r.run(t, func(v *serve.Verdict) {
		v.Triage = &index.TriageInfo{Distance: v.Triage.Distance + 1, NearestID: v.Triage.NearestID,
			NearestLabel: v.Triage.NearestLabel, Threshold: v.Triage.Threshold}
	})
	if len(c.mismatches) != 0 || c.triageSkew != c.checked {
		t.Fatalf("mismatches %d, skew %d of %d", len(c.mismatches), c.triageSkew, c.checked)
	}
}
