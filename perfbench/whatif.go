package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"dctopo/expt"
	"dctopo/internal/rng"
	"dctopo/obs"
	"dctopo/serve"
	"dctopo/topo"
	"dctopo/tub"
)

// whatif-http-jf2k: POST /v1/whatif single-link queries to an in-process
// service holding one resident engine for Jellyfish 2000/16/8. The
// operator path: HTTP, the engine cache, delta repair and the warm
// rematch. At 2k the matched distance is below the diameter, so a
// top-class shortcut must fall back here.
//
// About 1% of this fabric's links make the engine fall back to a cold
// rematch that costs ~100 warm queries, so the mix of links sets both
// the run's total time and its tail. The timed links are
// therefore a fixed set — every whatifStride-th link in edge order, the
// fabric's own mix — and the workload seed sets their order, the
// set-up and warm-up links and the cold-checked sample. A seeded random
// sample would move the cold share, and with it every end-to-end metric,
// from run to run.
const (
	whatifSwitches = 2000
	whatifRadix    = 16
	whatifServers  = 8
	// whatifTopoSeed fixes the fabric: an operator asks many questions
	// of one network.
	whatifTopoSeed = 1
	whatifSetups   = 3
	whatifWarmup   = 20
	whatifStride   = 5
	whatifRate     = 75
	whatifMinOps   = 1000
	whatifChecks   = 3
)

func runWhatIf(b *bench) error {
	spec := serve.TopoSpec{Family: "jellyfish", Switches: whatifSwitches, Radix: whatifRadix, Servers: whatifServers, Seed: whatifTopoSeed}
	t, err := expt.BuildAny(spec.Family, spec.Switches, spec.Radix, spec.Servers, spec.Seed, nil)
	if err != nil {
		return err
	}
	// Every answer's base bound must equal a cold bound on the fabric.
	base, err := tub.Bound(t, tub.Options{})
	if err == nil {
		err = checkBound(t, base)
	}
	if err != nil {
		return err
	}
	n := b.opCount(whatifRate, whatifMinOps)
	var timed, other [][2]int
	i := 0
	t.Graph().Edges(func(u, v, _ int) {
		if i%whatifStride == 0 && len(timed) < n {
			timed = append(timed, [2]int{u, v})
		} else {
			other = append(other, [2]int{u, v})
		}
		i++
	})
	if len(timed) < n || len(other) < whatifSetups+2*whatifWarmup {
		return fmt.Errorf("%d links are too few for %d timed queries", i, n)
	}
	r := rng.New(b.seed)
	r.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
	r.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
	take := func() [2]int { l := other[0]; other = other[1:]; return l }
	b.record["instances"] = fmt.Sprintf("jellyfish(%d, R=%d, H=%d, seed %d), %d distinct links (every %dth)", whatifSwitches, whatifRadix, whatifServers, whatifTopoSeed, n, whatifStride)

	// ask sends one query; query also checks the answer.
	ask := func(s *server, l [2]int) (*serve.WhatIfResponse, error) {
		b.claim(fmt.Sprintf("%d|%d-%d", s.id, l[0], l[1]))
		body, _ := json.Marshal(serve.WhatIfRequest{Topo: spec, Mode: "link", U: l[0], V: l[1]})
		status, out, _, err := s.post("/v1/whatif", body)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("link %d-%d: status %d: %s", l[0], l[1], status, out)
		}
		var r serve.WhatIfResponse
		if err := json.Unmarshal(out, &r); err != nil {
			return nil, err
		}
		return &r, nil
	}
	query := func(s *server, l [2]int) (*serve.WhatIfResponse, error) {
		r, err := ask(s, l)
		if err != nil {
			return nil, err
		}
		return r, checkQuery(t, base.Bound, l, r)
	}
	// Set-up unit: start a service and pay its one engine build with
	// the first query.
	untraced, traced, err := b.startServers(whatifSetups, func(s *server) error {
		b.attempted++
		r, err := query(s, take())
		if err == nil && !r.EngineBuilt {
			err = fmt.Errorf("first query did not build the engine")
		}
		return err
	})
	if err != nil {
		return err
	}
	servers := kept(untraced, traced)
	defer func() {
		if err := stopAll(servers); err != nil {
			b.violate("server shutdown: " + err.Error())
		}
	}()
	for _, s := range servers {
		b.warmup(whatifWarmup, func(int) error { _, err := query(s, take()); return err })
	}

	var before map[string]float64
	if traced != nil {
		if before, err = traced.metrics(); err != nil {
			return err
		}
	}
	checkAt := map[int]bool{}
	for _, op := range r.Sample(n, whatifChecks) {
		checkAt[op] = true
	}
	type sample struct {
		link [2]int
		q    *tub.QueryResult
	}
	var samples []sample
	var rows, frontier []float64
	modes := map[string]float64{}
	b.measure("POST /v1/whatif", n, false, func(op int, isTraced bool, _ *obs.Obs) (func() error, error) {
		l := timed[op]
		r, err := ask(pick(isTraced, untraced, traced), l)
		if err != nil {
			return nil, err
		}
		return func() error {
			if err := checkQuery(t, base.Bound, l, r); err != nil {
				return err
			}
			q := r.Query
			if r.EngineBuilt {
				return fmt.Errorf("query rebuilt the engine")
			}
			modes[q.Mode]++
			rows = append(rows, float64(q.ChangedRows))
			frontier = append(frontier, float64(q.Frontier))
			if checkAt[op] {
				samples = append(samples, sample{l, q})
			}
			return nil
		}, nil
	})

	// Correctness gate, outside the timed window: every server built its
	// engine once, and a seeded sample of answers equals cold tub.Bound
	// runs on the damaged topologies.
	for _, s := range servers {
		m, err := s.metrics()
		if err != nil {
			return err
		}
		if m["serve.whatif.builds"] != 1 {
			b.violate(fmt.Sprintf("serve.whatif.builds = %v, want 1", m["serve.whatif.builds"]))
		}
		b.layer["serve.whatif.builds"] = m["serve.whatif.builds"]
	}
	for _, s := range samples {
		if err := checkCold(t, s.link, s.q); err != nil {
			b.fail(-1, err)
		}
	}
	b.record["checked_cold"] = len(samples)

	for _, m := range []string{"trunk", "unchanged", "warm", "coldmatch", "switch-host", "disconnected"} {
		b.layer["whatif.mode."+m] = modes[m]
	}
	b.layer["whatif.changed_rows"] = mean(rows)
	b.layer["whatif.frontier"] = mean(frontier)
	b.layer["match.top_class_frac"] = topClassFrac(base)
	if traced == nil {
		return nil
	}
	after, err := traced.metrics()
	if err != nil {
		return err
	}
	b.layer["whatif.query_ms"] = after["whatif.query.p50_ms"]
	// Over every op of the run (at least whatifMinOps), so at least ten
	// lie beyond it.
	b.layer["latency_p99_ms"] = percentile(millis(append(b.latencies(false), b.latencies(true)...)), 0.99)
	// The engine answers without a span: its histogram's sum over the
	// traced ops is the tub layer's busy time in the self-time table, and
	// the client's median beyond the engine's is HTTP and the serve layer.
	engineMs := after["whatif.query.sum_ms"] - before["whatif.query.sum_ms"]
	b.layer["serve.http_overhead_ms"] = median(millis(b.latencies(true))) - b.layer["whatif.query_ms"]
	b.extraSelf["tub"] = time.Duration(engineMs * 1e6)
	for _, sp := range b.spans() {
		if sp.name == "whatif.build" {
			b.layer["whatif.build_s"] = sp.end.Sub(sp.start).Seconds()
		}
		if sp.name == "topo.build" {
			b.layer["topo.build_ms"] = float64(sp.end.Sub(sp.start)) / 1e6
		}
	}
	return nil
}

// checkQuery verifies one answer: the engine's base bound is the cold
// bound, the damaged numerator lost exactly the removed link, the bound
// is TwoE over the weighted length, and removing a link never raises
// TUB.
func checkQuery(t *topo.Topology, base float64, l [2]int, r *serve.WhatIfResponse) error {
	q := r.Query
	if q == nil || q.Mode == "" {
		return fmt.Errorf("link %d-%d: empty answer", l[0], l[1])
	}
	if r.BaseBound != base {
		return fmt.Errorf("engine base bound %v, cold bound %v", r.BaseBound, base)
	}
	if q.Disconnected {
		return nil
	}
	if q.TwoE != 2*t.Links()-2 {
		return fmt.Errorf("link %d-%d: TwoE %d, want %d", l[0], l[1], q.TwoE, 2*t.Links()-2)
	}
	if q.WeightedLen <= 0 || q.Bound != float64(q.TwoE)/float64(q.WeightedLen) {
		return fmt.Errorf("link %d-%d: bound %v != %d/%d", l[0], l[1], q.Bound, q.TwoE, q.WeightedLen)
	}
	if q.Bound > r.BaseBound {
		return fmt.Errorf("link %d-%d: bound %v above base %v", l[0], l[1], q.Bound, r.BaseBound)
	}
	return nil
}

// checkCold compares one answer with a cold tub.Bound on the damaged
// topology.
func checkCold(t *topo.Topology, l [2]int, q *tub.QueryResult) error {
	cut, err := t.RemoveLink(l[0], l[1])
	if err == topo.ErrRemovalDisconnects {
		if !q.Disconnected {
			return fmt.Errorf("link %d-%d: removal disconnects, engine says %s", l[0], l[1], q.Mode)
		}
		return nil
	}
	if err != nil {
		return err
	}
	cold, err := tub.Bound(cut, tub.Options{})
	if err != nil {
		return err
	}
	if cold.WeightedLen != q.WeightedLen || cold.TwoE != q.TwoE || cold.Bound != q.Bound {
		return fmt.Errorf("link %d-%d: engine %d/%d, cold %d/%d", l[0], l[1], q.TwoE, q.WeightedLen, cold.TwoE, cold.WeightedLen)
	}
	return nil
}
