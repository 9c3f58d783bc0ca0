package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/ir"
	"advmal/internal/synth"
)

// Table I corpus mix: 276 benign and 2,281 malicious samples.
const (
	tableBenign = 276
	tableMal    = 2281
)

// Program is one generated program as the servers receive it.
type Program struct {
	Name string
	Text string // assembly text, as ir.Program.String renders it
	Body []byte // the request body: Text, or a JSON envelope around it
	JSON bool   // Content-Type is application/json
}

// Req is one program request of a stream. Gap is the inter-arrival gap in
// units of the mean gap, so a phase at rate r sends its request i at
// sum(Gap[:i+1])/r seconds.
type Req struct {
	Prog   int  // index into Stream.Programs
	Scored bool // counts towards p50_ms/p99_ms
	Gap    float64
}

// Stream is a workload's request sequence, fully determined by the
// workload and the seed. It is generated lazily, one block at a time, as
// the load driver schedules further into it; generation happens between
// phases, never while a phase is timed.
type Stream struct {
	Programs []Program
	Reqs     []Req
	gen      *generator
}

// Digest hashes every byte the stream would put on the wire, plus the
// arrival gaps, in order, over the first n requests.
func (s *Stream) Digest(n int) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range s.Reqs[:min(n, len(s.Reqs))] {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Gap))
		h.Write(buf[:])
		p := &s.Programs[r.Prog]
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p.Body)))
		h.Write(buf[:])
		h.Write(p.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// genSeed derives an independent generator seed for one purpose.
func genSeed(seed int64, purpose string) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

func graphKey(p *ir.Program) ([32]byte, int, error) {
	cfg, err := ir.Disassemble(p)
	if err != nil {
		return [32]byte{}, 0, err
	}
	return features.GraphKey(cfg.G()), cfg.G().N(), nil
}

// corpus is the Table I corpus the hot set and the splice target come
// from.
func corpus(seed int64) ([]*synth.Sample, error) {
	return synth.Generate(synth.Config{Seed: genSeed(seed, "corpus"), NumBenign: tableBenign, NumMal: tableMal})
}

// hotSet returns n corpus programs with distinct CFGs whose block counts
// sit closest to the corpus median.
func hotSet(samples []*synth.Sample, n int) []*ir.Program {
	nodes := make([]int, len(samples))
	for i, s := range samples {
		nodes[i] = s.Nodes
	}
	sort.Ints(nodes)
	median := nodes[len(nodes)/2]
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	dist := func(i int) int {
		d := samples[i].Nodes - median
		if d < 0 {
			return -d
		}
		return d
	}
	sort.SliceStable(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
	seen := map[[32]byte]bool{}
	var out []*ir.Program
	for _, i := range idx {
		key, _, err := graphKey(samples[i].Prog)
		if err != nil || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, samples[i].Prog)
		if len(out) == n {
			break
		}
	}
	return out
}

func rawProgram(p *ir.Program) Program {
	text := p.String()
	return Program{Name: p.Name, Text: text, Body: []byte(text)}
}

func jsonProgram(p *ir.Program) (Program, error) {
	text := p.String()
	body, err := json.Marshal(struct {
		Name    string `json:"name"`
		Program string `json:"program"`
	}{p.Name, text})
	if err != nil {
		return Program{}, err
	}
	return Program{Name: p.Name, Text: text, Body: body, JSON: true}, nil
}

// A stream grows in blocks of blockReqs requests, cut into rounds of
// strata requests that span strata mean gaps each (see extend).
const (
	blockReqs = 1000
	strata    = 10
)

// generator holds the state that extends a stream deterministically.
type generator struct {
	w        *Workload
	arrivals *rand.Rand
	pick     *rand.Rand

	hot     int       // hot set size (Programs[:hot])
	victims []int     // rest of the current hot-set permutation
	splice  *distinct // gea-flood: splice source
	clock   float64   // start of the next round, in mean gaps
	last    float64   // arrival of the last request, in mean gaps
}

// distinct hands out programs with pairwise distinct CFGs from a
// generator function called with increasing chunk numbers.
type distinct struct {
	next  func(chunk int) ([]*ir.Program, error)
	chunk int
	seen  map[[32]byte]bool
	queue []*ir.Program
}

func (d *distinct) take(n int) ([]*ir.Program, error) {
	for len(d.queue) < n {
		progs, err := d.next(d.chunk)
		if err != nil {
			return nil, err
		}
		d.chunk++
		for _, p := range progs {
			key, _, err := graphKey(p)
			if err != nil {
				return nil, err
			}
			if !d.seen[key] {
				d.seen[key] = true
				d.queue = append(d.queue, p)
			}
		}
	}
	progs := d.queue[:n]
	d.queue = d.queue[n:]
	return progs, nil
}

// NewStream starts workload w's stream for seed, with its first block.
func NewStream(w *Workload, seed int64) (*Stream, error) {
	g := &generator{
		w:        w,
		arrivals: rand.New(rand.NewSource(genSeed(seed, "arrivals/"+w.Name))),
		pick:     rand.New(rand.NewSource(genSeed(seed, "pick/"+w.Name))),
	}
	s := &Stream{gen: g}
	samples, err := corpus(seed)
	if err != nil {
		return nil, err
	}
	for _, p := range hotSet(samples, w.HotSet) {
		prog := rawProgram(p)
		if w.Name == "hot-swap" {
			if prog, err = jsonProgram(p); err != nil {
				return nil, err
			}
		}
		s.Programs = append(s.Programs, prog)
	}
	g.hot = len(s.Programs)
	if w.SpliceFrac > 0 {
		target := largestMalware(samples)
		g.splice = &distinct{seen: map[[32]byte]bool{}, next: func(c int) ([]*ir.Program, error) {
			benign, err := synth.Generate(synth.Config{
				Seed: genSeed(seed, fmt.Sprintf("splice/%d", c)), NumBenign: 256})
			if err != nil {
				return nil, err
			}
			out := make([]*ir.Program, len(benign))
			for i, b := range benign {
				if out[i], err = gea.Merge(b.Prog, target); err != nil {
					return nil, err
				}
			}
			return out, nil
		}}
	}
	return s, s.extend()
}

// Generate returns workload w's stream for seed with at least n requests.
func Generate(w *Workload, seed int64, n int) (*Stream, error) {
	s, err := NewStream(w, seed)
	for err == nil && len(s.Reqs) < n {
		err = s.extend()
	}
	return s, err
}

func largestMalware(samples []*synth.Sample) *ir.Program {
	var target *synth.Sample
	for _, s := range samples {
		if s.Malicious && (target == nil || s.Nodes > target.Nodes) {
			target = s
		}
	}
	return target.Prog
}

// extend appends the next block of blockReqs requests. Victims walk
// seeded permutations of the hot set, so every hot program is equally
// frequent in any stretch of the stream.
//
// Arrivals are stratified: the stream is cut into slots of one mean gap,
// and each victim arrives at a uniform random offset in its own slot. On
// gea-flood the attacker also paces its splices: the stream is cut into
// rounds of strata slots, each round opens with round(SpliceFrac*strata)
// evenly spaced splices, and its other slots hold one victim each. Two
// splices then never overlap at the reference rate, and victims never
// bunch up behind a splice or a swap that holds one of the driver's
// connections, so the victims' tail measures what a splice or a swap
// costs the requests around it, not how often Poisson arrivals happened
// to cluster after one.
func (s *Stream) extend() error {
	g := s.gen
	victim := func() int {
		if len(g.victims) == 0 {
			g.victims = g.pick.Perm(g.hot)
		}
		v := g.victims[0]
		g.victims = g.victims[1:]
		return v
	}
	perRound := int(math.Round(g.w.SpliceFrac * strata))
	rounds := blockReqs / strata
	var splices []*ir.Program
	if perRound > 0 {
		var err error
		if splices, err = g.splice.take(rounds * perRound); err != nil {
			return err
		}
	}
	for r := 0; r < rounds; r++ {
		for j, k := 0, 0; j < strata; j++ {
			at := float64(j) + g.arrivals.Float64()
			splice := k < perRound && j == k*strata/perRound
			if splice {
				at = float64(k*strata) / float64(perRound)
				k++
			}
			req := Req{Scored: !splice, Gap: g.clock + at - g.last}
			g.last = g.clock + at
			if splice {
				req.Prog = len(s.Programs)
				s.Programs = append(s.Programs, rawProgram(splices[0]))
				splices = splices[1:]
			} else {
				req.Prog = victim()
			}
			s.Reqs = append(s.Reqs, req)
		}
		g.clock += strata
	}
	return nil
}
