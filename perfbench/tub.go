package main

import (
	"fmt"
	"time"

	"dctopo/internal/rng"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// tub-jf6k: a cold tub.Bound on a rotation of seeded Jellyfish instances
// (6000 switches, R=16, H=8) built in set-up. The auction takes most of
// each bound and the distance sweep most of the rest; every host is
// matched at the diameter here, so a matching change or a top-distance-
// class certificate shows on this workload first.
const (
	tubSwitches  = 6000
	tubRadix     = 16
	tubServers   = 8
	tubInstances = 8
	// tubSetupRounds repeats the set-up: one build is only ~10 ms.
	tubSetupRounds = 5
	tubRate        = 0.4
	tubMinOps      = 4
	// tubRefSeed is the topology seed of the reference instance the
	// warm-up op bounds; tubRefTwoE and tubRefWeightedLen record its
	// TUB, which every run checks.
	tubRefSeed        = 1
	tubRefTwoE        = 48000
	tubRefWeightedLen = 288000
)

func runTUB(b *bench) error {
	seeds := make([]uint64, tubInstances)
	r := rng.New(b.seed)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	insts := make([]*topo.Topology, tubInstances)
	var builds []time.Duration
	for round := 0; round < tubSetupRounds; round++ {
		for i := range insts {
			err := b.setup(func() error {
				start := time.Now()
				t, err := jellyfish(tubSwitches, tubRadix, tubServers, seeds[i])
				builds = append(builds, time.Since(start))
				insts[i] = t
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	b.layer["topo.build_ms"] = median(millis(builds))
	b.record["instances"] = fmt.Sprintf("%d x jellyfish(%d, R=%d, H=%d), rotated", tubInstances, tubSwitches, tubRadix, tubServers)

	// Warm-up: the reference instance, whose bound is recorded.
	b.warmup(1, func(int) error {
		t, err := jellyfish(tubSwitches, tubRadix, tubServers, tubRefSeed)
		if err != nil {
			return err
		}
		res, err := tub.Bound(t, tub.Options{})
		if err != nil {
			return err
		}
		if err := checkBound(t, res); err != nil {
			return err
		}
		if res.TwoE != tubRefTwoE || res.WeightedLen != tubRefWeightedLen {
			return fmt.Errorf("reference instance: bound %d/%d, recorded %d/%d", res.TwoE, res.WeightedLen, tubRefTwoE, tubRefWeightedLen)
		}
		return nil
	})

	var top []float64
	b.measure("tub.Bound", b.opCount(tubRate, tubMinOps), true, func(op int, traced bool, o *obs.Obs) (func() error, error) {
		t := insts[op%tubInstances]
		_, sp := o.Start("bench.tub.Bound")
		res, err := tub.Bound(t, tub.Options{Obs: o})
		sp.End()
		if err != nil {
			return nil, err
		}
		return func() error {
			if traced {
				top = append(top, topClassFrac(res))
			}
			return checkBound(t, res)
		}, nil
	})
	b.layer["match.top_class_frac"] = mean(top)
	return nil
}

// checkBound verifies a TUB result from first principles: Perm is a
// permutation of the hosts, WeightedLen recomputes from Dist and the
// host server counts, TwoE is twice the link count and Bound is
// TwoE/WeightedLen.
func checkBound(t *topo.Topology, r *tub.Result) error {
	hosts := t.Hosts()
	n := len(hosts)
	if len(r.Perm) != n || len(r.Dist) != n {
		return fmt.Errorf("perm/dist sized %d/%d for %d hosts", len(r.Perm), len(r.Dist), n)
	}
	seen := make([]bool, n)
	var wl int64
	for i, j := range r.Perm {
		if j < 0 || j >= n || seen[j] {
			return fmt.Errorf("perm is not a permutation at %d -> %d", i, j)
		}
		seen[j] = true
		w := min(t.Servers(hosts[i]), t.Servers(hosts[j]))
		wl += int64(w) * int64(r.Dist[i][j])
	}
	if wl != r.WeightedLen {
		return fmt.Errorf("weighted length %d, recomputed %d", r.WeightedLen, wl)
	}
	if r.TwoE != 2*t.Links() {
		return fmt.Errorf("TwoE %d, want %d", r.TwoE, 2*t.Links())
	}
	if r.Bound != float64(r.TwoE)/float64(r.WeightedLen) {
		return fmt.Errorf("bound %v != TwoE/WeightedLen %v", r.Bound, float64(r.TwoE)/float64(r.WeightedLen))
	}
	return nil
}

// topClassFrac is the share of hosts the maximal permutation matches at
// the largest host distance: 1 means the matching lies entirely inside
// the top distance class, where a certificate could stop early.
func topClassFrac(r *tub.Result) float64 {
	var top uint8
	for _, row := range r.Dist {
		for _, d := range row {
			top = max(top, d)
		}
	}
	n := 0
	for i, j := range r.Perm {
		if r.Dist[i][j] == top {
			n++
		}
	}
	return float64(n) / float64(len(r.Perm))
}
