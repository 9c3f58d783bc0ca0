package main

import (
	"bytes"
	"math"
	"testing"

	"advmal/internal/ir"
)

// TestStreamDeterministic pins the generator contract: the same seed gives
// a byte-identical request stream, and another seed gives another one.
func TestStreamDeterministic(t *testing.T) {
	const n = 2 * blockReqs
	for _, w := range workloads {
		a, err := Generate(w, 7, n)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := Generate(w, 7, n)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a.Digest(n) != b.Digest(n) {
			t.Errorf("%s: same seed, different digests %s and %s", w.Name, a.Digest(n), b.Digest(n))
		}
		for i := range a.Reqs {
			pa, pb := a.Programs[a.Reqs[i].Prog], b.Programs[b.Reqs[i].Prog]
			if a.Reqs[i] != b.Reqs[i] || !bytes.Equal(pa.Body, pb.Body) {
				t.Fatalf("%s: request %d differs between two generations of seed 7", w.Name, i)
			}
		}
		c, err := Generate(w, 8, n)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if c.Digest(n) == a.Digest(n) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
	}
}

// TestStreamShape checks what each workload's reason depends on: request
// i arrives in its own slot [i, i+1) mean gaps, victims stay on the hot
// set, and gea-flood's unscored requests are distinct splices far larger
// than the victims, paced one every strata mean gaps.
func TestStreamShape(t *testing.T) {
	const n = 2 * blockReqs
	for _, w := range workloads {
		st, err := Generate(w, 3, n)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[32]byte]bool{}
		splices := 0
		var at, lastSplice float64
		for i, r := range st.Reqs {
			at += r.Gap
			if at < float64(i)-1e-6 || at >= float64(i+1)+1e-6 {
				t.Fatalf("%s: request %d arrives %.9f mean gaps in, outside its slot", w.Name, i, at)
			}
			if r.Scored {
				if r.Prog >= w.HotSet {
					t.Fatalf("%s: scored request outside the hot set", w.Name)
				}
				continue
			}
			p, err := ir.Parse(st.Programs[r.Prog].Text)
			if err != nil {
				t.Fatal(err)
			}
			k, blocks, err := graphKey(p)
			if err != nil {
				t.Fatal(err)
			}
			if seen[k] || blocks < 300 {
				t.Fatalf("%s: splice repeated or small (%d blocks)", w.Name, blocks)
			}
			seen[k] = true
			if splices > 0 && math.Abs(at-lastSplice-strata) > 1e-6 {
				t.Fatalf("%s: request %d: splice %.9f mean gaps after the last, want %d", w.Name, i, at-lastSplice, strata)
			}
			splices++
			lastSplice = at
		}
		if want := int(math.Round(w.SpliceFrac * float64(len(st.Reqs)))); splices != want {
			t.Errorf("%s: %d splices in %d requests, want %d", w.Name, splices, len(st.Reqs), want)
		}
		if mean := at / float64(len(st.Reqs)); math.Abs(mean-1) > 0.05 {
			t.Errorf("%s: mean gap %.3f, want 1", w.Name, mean)
		}
	}
}
