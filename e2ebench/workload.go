package main

import (
	"fmt"
	"math"
	"time"
)

// Workload is one traffic mix and the server topology it runs against.
// The replica mounts POST /admin/swap (-admin) exactly when the workload
// swaps.
type Workload struct {
	Name string
	// Topology.
	Gateway bool // traffic goes through cmd/gateway to the replica
	Quant   bool // replica serves the int8 tier (-quant)
	// Traffic.
	HotSet     int           // hot-set size
	SpliceFrac float64       // share of requests that are distinct GEA splices
	SwapEvery  time.Duration // hot-swap period (0: none)
}

// Every workload shares its rates. refRate is the fixed reference rate
// p50_ms, p99_ms and fail_frac are measured at; it is also the ladder's
// first rung. The ladder has ladderRungs rungs, refRate*ladderStep^k, and
// max_rps is the highest rung whose probe meets limitMs at p99 with at
// most 0.1% failed requests and no growing backlog.
const (
	refRate     = 100.0
	ladderStep  = 1.07
	ladderRungs = 32
	limitMs     = 100.0
)

var workloads = []*Workload{
	{
		Name:      "hot-swap",
		Quant:     true,
		HotSet:    16,
		SwapEvery: 500 * time.Millisecond,
	},
	{
		Name:       "gea-flood",
		Gateway:    true,
		HotSet:     16,
		SpliceFrac: 0.1,
	},
}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-swap or gea-flood)", name)
}

func rung(k int) float64 { return refRate * math.Pow(ladderStep, float64(k)) }

// plan splits a run of the given length into its phases: a warm-up and
// the reference phase at refRate, then five ladder probes (a binary
// search over rungs 1..31; rung 0 is the reference phase itself).
type plan struct {
	warmup, ref, probe, pause time.Duration
	probes                    int
}

func newPlan(seconds int) plan {
	s := time.Duration(seconds) * time.Second
	return plan{
		warmup: s * 3 / 100,
		ref:    s * 62 / 100,
		probe:  s * 65 / 1000,
		pause:  s / 200,
		probes: 5,
	}
}
