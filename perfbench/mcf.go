package main

import (
	"fmt"
	"math"
	"time"

	"dctopo/internal/rng"
	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

// mcf-jf400: the KSP-MCF ground truth — mcf.KShortestObs (k=16) plus
// mcf.MaxConcurrentFlow (ε=0.02) — on the TUB maximal-permutation
// traffic matrix of seeded Jellyfish instances (400 switches, R=16,
// H=8). Garg–Könemann is nearly all of each op and the matching runs
// only in set-up, so a GK change shows here and a matching change
// should not.
const (
	mcfSwitches  = 400
	mcfRadix     = 16
	mcfServers   = 8
	mcfK         = 16
	mcfEps       = 0.02
	mcfInstances = 5
	// mcfSetupRounds repeats the whole set-up: one unit is only ~15 ms.
	mcfSetupRounds = 3
	mcfRate        = 0.25
	mcfMinOps      = 2
)

// jellyfish builds one seeded instance of a workload's family.
func jellyfish(switches, radix, servers int, seed uint64) (*topo.Topology, error) {
	return topo.Jellyfish(topo.JellyfishConfig{Switches: switches, Radix: radix, Servers: servers, Seed: seed})
}

type mcfInstance struct {
	t     *topo.Topology
	m     *traffic.Matrix
	bound float64
}

func runMCF(b *bench) error {
	seeds := make([]uint64, mcfInstances)
	r := rng.New(b.seed)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	// Every instance is set up mcfSetupRounds times, so setup_s is the
	// median of many set-up units; the last round's instances are used.
	insts := make([]mcfInstance, mcfInstances)
	var builds []time.Duration
	for round := 0; round < mcfSetupRounds; round++ {
		for i := range insts {
			err := b.setup(func() error {
				start := time.Now()
				t, err := jellyfish(mcfSwitches, mcfRadix, mcfServers, seeds[i])
				if err != nil {
					return err
				}
				builds = append(builds, time.Since(start))
				res, err := tub.Bound(t, tub.Options{})
				if err != nil {
					return err
				}
				m, err := res.Matrix(t)
				if err != nil {
					return err
				}
				insts[i] = mcfInstance{t: t, m: m, bound: res.Bound}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	b.layer["topo.build_ms"] = median(millis(builds))
	b.record["instances"] = fmt.Sprintf("%d x jellyfish(%d, R=%d, H=%d), TUB maximal-permutation TM", mcfInstances, mcfSwitches, mcfRadix, mcfServers)
	solve := func(in mcfInstance, o *obs.Obs) (*mcf.Paths, *mcf.Detail, error) {
		_, ksp := o.Start("bench.mcf.KShortestObs")
		p := mcf.KShortestObs(in.t, in.m, mcfK, 0, o)
		ksp.End()
		_, gk := o.Start("bench.mcf.MaxConcurrentFlow")
		d, err := mcf.MaxConcurrentFlow(in.t, in.m, p, mcf.Options{Eps: mcfEps, Obs: o})
		gk.End()
		return p, d, err
	}
	b.warmup(1, func(int) error {
		p, d, err := solve(insts[0], nil)
		if err != nil {
			return err
		}
		return checkFlow(insts[0], p, d)
	})
	var theta, gap []float64
	b.measure("mcf.KSP-MCF", b.opCount(mcfRate, mcfMinOps), true, func(op int, traced bool, o *obs.Obs) (func() error, error) {
		in := insts[op%mcfInstances]
		p, d, err := solve(in, o)
		if err != nil {
			return nil, err
		}
		return func() error {
			if traced {
				theta = append(theta, d.Theta)
				gap = append(gap, in.bound-d.Theta)
			}
			return checkFlow(in, p, d)
		}, nil
	})
	b.layer["mcf.theta"] = mean(theta)
	b.layer["mcf.tub_gap"] = mean(gap)
	return nil
}

// checkFlow verifies a KSP-MCF solution: every demand routes at least
// θ·amount over its own paths, no directed link carries more than its
// capacity, and θ does not exceed the instance's TUB (Theorem 2.2 on
// the maximal-permutation matrix).
func checkFlow(in mcfInstance, p *mcf.Paths, d *mcf.Detail) error {
	const tol = 1e-9
	if !(d.Theta > 0) || d.Theta > in.bound*(1+tol) {
		return fmt.Errorf("theta %v outside (0, TUB %v]", d.Theta, in.bound)
	}
	if len(d.PathFlows) != len(in.m.Demands) || len(p.ByDemand) != len(in.m.Demands) {
		return fmt.Errorf("%d flow lists, %d path lists for %d demands", len(d.PathFlows), len(p.ByDemand), len(in.m.Demands))
	}
	g := in.t.Graph()
	load := map[[2]int32]float64{}
	for j, flows := range d.PathFlows {
		if len(flows) != len(p.ByDemand[j]) {
			return fmt.Errorf("demand %d: %d flows for %d paths", j, len(flows), len(p.ByDemand[j]))
		}
		var got float64
		for x, f := range flows {
			if f < 0 || math.IsNaN(f) {
				return fmt.Errorf("demand %d path %d: flow %v", j, x, f)
			}
			got += f
			path := p.ByDemand[j][x]
			for h := 0; h+1 < len(path); h++ {
				load[[2]int32{path[h], path[h+1]}] += f
			}
		}
		if want := d.Theta * in.m.Demands[j].Amount; got < want*(1-tol) {
			return fmt.Errorf("demand %d routes %v < theta*amount %v", j, got, want)
		}
	}
	for e, l := range load {
		if c := float64(g.Capacity(int(e[0]), int(e[1]))); l > c*(1+tol) {
			return fmt.Errorf("link %d->%d carries %v over capacity %v", e[0], e[1], l, c)
		}
	}
	return nil
}
