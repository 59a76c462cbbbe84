package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dctopo/obs"
)

// perLayer lists the traced run's metrics and units, in BENCHMARK.json
// order. WORKLOADS.md names the end-to-end metric each one feeds.
var perLayer = []struct{ name, unit string }{
	{"topo.build_ms", "ms"},
	{"graph.msbfs_ms", "ms"},
	{"graph.ksp_ms", "ms"},
	{"match.auction_ms", "ms"},
	{"match.bids", "count"},
	{"match.rounds", "count"},
	{"match.phases", "count"},
	{"match.top_class_frac", "ratio"},
	{"tub.bound_ms", "ms"},
	{"tub.match_share", "ratio"},
	{"whatif.build_s", "s"},
	{"whatif.query_ms", "ms"},
	{"whatif.changed_rows", "rows"},
	{"whatif.frontier", "switches"},
	{"whatif.mode.trunk", "count"},
	{"whatif.mode.unchanged", "count"},
	{"whatif.mode.warm", "count"},
	{"whatif.mode.coldmatch", "count"},
	{"whatif.mode.switch-host", "count"},
	{"whatif.mode.disconnected", "count"},
	{"latency_p99_ms", "ms"},
	{"mcf.gk_ms", "ms"},
	{"mcf.gk.rounds", "count"},
	{"mcf.theta", "ratio"},
	{"mcf.tub_gap", "ratio"},
	{"expt.tab3_ms", "ms"},
	{"expt.fig4_ms", "ms"},
	{"expt.fig9_ms", "ms"},
	{"expt.figA1_ms", "ms"},
	{"expt.figA2_ms", "ms"},
	{"expt.figA5_ms", "ms"},
	{"expt.routing_ms", "ms"},
	{"expt.ablation_ms", "ms"},
	{"expt.whatif_ms", "ms"},
	{"expt.memo.hits", "count"},
	{"expt.runner.wait_ms", "ms"},
	{"expt.store.hits", "count"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.jobs.coalesced", "count"},
	{"serve.whatif.builds", "count"},
	{"cpu_util", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
	{"op.uncovered_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// capture is the traced handle's sink. It keeps each span's end event
// (name, end time, duration, attributes) in memory and only counts point
// events by name: a traced expt-cold run emits a Garg–Könemann round
// point per solver round, hundreds of thousands per run, and keeping
// them would make the traced process's memory grow with run length.
type capture struct {
	mu     sync.Mutex
	ends   []obs.Event
	points map[string]int
}

// Emit implements obs.Sink.
func (c *capture) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case obs.KindSpanEnd:
		c.ends = append(c.ends, e)
	case obs.KindPoint:
		c.points[e.Name]++
	}
}

func (c *capture) spanEnds() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.ends...)
}

func (c *capture) pointCounts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.points))
	for k, v := range c.points {
		out[k] = v
	}
	return out
}

// span is one finished span from the capture.
type span struct {
	name       string
	start, end time.Time
	ev         obs.Event
}

func (b *bench) spans() []span {
	var out []span
	for _, e := range b.capture.spanEnds() {
		out = append(out, span{name: e.Name, start: e.Time.Add(-e.Dur), end: e.Time, ev: e})
	}
	return out
}

// tracedOps returns the traced ops' time windows.
func (b *bench) tracedOps() []opSample {
	var out []opSample
	for _, s := range b.ops {
		if s.traced {
			out = append(out, s)
		}
	}
	return out
}

// within reports whether [start, end] lies inside op's window. Server
// spans are not children of the client's span, but one client in a
// closed loop runs one op at a time, so time containment assigns every
// span of a request to its op.
func within(op opSample, start, end time.Time) bool {
	return !start.Before(op.start) && !end.After(op.start.Add(op.dur))
}

// layerOf maps a span name to the package that does its work; "" is the
// benchmark's own spans and anything unmapped.
func layerOf(name string) string {
	switch {
	case name == "tub.dist" || name == "whatif.dist" || name == "mcf.ksp":
		return "graph"
	case name == "tub.match" || name == "whatif.match":
		return "match"
	case name == "mcf.exact":
		return "lp"
	case strings.HasPrefix(name, "mcf."):
		return "mcf"
	case strings.HasPrefix(name, "tub.") || strings.HasPrefix(name, "whatif."):
		return "tub"
	case name == "topo.build":
		return "topo"
	case strings.HasPrefix(name, "expt.") || strings.HasSuffix(name, ".job"):
		return "expt"
	}
	return ""
}

// layerOrder ranks layers innermost first: where spans of several layers
// cover one instant (nested calls, or parallel jobs), the instant goes
// to the innermost.
var layerOrder = []string{"graph", "match", "lp", "mcf", "tub", "topo", "expt"}

// layerMetrics fills the per-layer metrics every workload shares — span
// time per traced op, exact counts from span attributes and points, the
// process and obs metrics — and prints the self-time table. Workload-
// specific metrics are already in b.layer.
func (b *bench) layerMetrics() {
	ops := b.tracedOps()
	spans := b.spans()
	perOp := func(name string) float64 {
		var total time.Duration
		for _, sp := range spans {
			if sp.name != name {
				continue
			}
			for _, op := range ops {
				if within(op, sp.start, sp.end) {
					total += sp.end.Sub(sp.start)
					break
				}
			}
		}
		if len(ops) == 0 {
			return 0
		}
		return float64(total) / 1e6 / float64(len(ops))
	}
	b.layer["graph.msbfs_ms"] = perOp("tub.dist")
	b.layer["graph.ksp_ms"] = perOp("mcf.ksp")
	b.layer["match.auction_ms"] = perOp("tub.match")
	b.layer["tub.bound_ms"] = perOp("tub.bound")
	if bound := b.layer["tub.bound_ms"]; bound > 0 {
		b.layer["tub.match_share"] = b.layer["match.auction_ms"] / bound
	}
	b.layer["mcf.gk_ms"] = perOp("mcf.gk")
	for _, id := range exptIDs {
		// Mean duration of the experiment's own root span over the
		// traced requests for it.
		var total time.Duration
		n := 0
		for _, sp := range spans {
			if sp.name == "expt."+id {
				for _, op := range ops {
					if within(op, sp.start, sp.end) {
						total += sp.end.Sub(sp.start)
						n++
						break
					}
				}
			}
		}
		if n > 0 {
			b.layer["expt."+id+"_ms"] = float64(total) / 1e6 / float64(n)
		}
	}
	for _, sp := range spans {
		if sp.name != "tub.match" || !inAny(ops, sp.start, sp.end) {
			continue
		}
		b.layer["match.bids"] += sp.ev.Float("auction_bids")
		b.layer["match.rounds"] += sp.ev.Float("auction_rounds")
		b.layer["match.phases"] += sp.ev.Float("auction_phases")
	}
	// Every point after the timed phase began comes from a traced op:
	// only traced ops reach the traced handle once set-up is over.
	b.layer["mcf.gk.rounds"] = float64(b.capture.pointCounts()["mcf.round"] - b.pointsBefore["mcf.round"])
	if b.busy > 0 {
		procs := float64(b.record["gomaxprocs"].(int))
		b.layer["cpu_util"] = b.cpu.Seconds() / (b.busy.Seconds() * procs)
	}
	if un := median(millis(b.latencies(false))); un > 0 {
		b.layer["obs.trace_overhead_frac"] = median(millis(b.latencies(true)))/un - 1
	}
	b.layer["fail_frac"] = float64(b.failed) / float64(b.attempted)
	b.selfTable(ops, spans)
}

func inAny(ops []opSample, start, end time.Time) bool {
	for _, op := range ops {
		if within(op, start, end) {
			return true
		}
	}
	return false
}

// selfTable attributes every instant of every traced op to the innermost
// layer with a span open at that instant, prints each layer's self time
// and share of the ops' wall time, and reports the share no layer span
// covers (client, HTTP and benchmark code, plus any layer without a
// span) as op.uncovered_frac.
func (b *bench) selfTable(ops []opSample, spans []span) {
	rank := map[string]int{}
	for i, l := range layerOrder {
		rank[l] = i
	}
	self := map[string]time.Duration{}
	var wall time.Duration
	for _, op := range ops {
		wall += op.dur
		type edge struct {
			at    time.Time
			layer int
			delta int
		}
		var edges []edge
		for _, sp := range spans {
			l, ok := rank[layerOf(sp.name)]
			if !ok || !within(op, sp.start, sp.end) {
				continue
			}
			edges = append(edges, edge{sp.start, l, 1}, edge{sp.end, l, -1})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
		open := make([]int, len(layerOrder))
		prev := op.start
		for _, e := range edges {
			if d := e.at.Sub(prev); d > 0 {
				for l, c := range open {
					if c > 0 {
						self[layerOrder[l]] += d
						break
					}
				}
			}
			open[e.layer] += e.delta
			prev = e.at
		}
	}
	for l, d := range b.extraSelf {
		self[l] += d
	}
	var covered time.Duration
	for _, d := range self {
		covered += d
	}
	uncovered := wall - covered
	if wall > 0 {
		b.layer["op.uncovered_frac"] = float64(uncovered) / float64(wall)
	}
	fmt.Fprintf(os.Stderr, "\nself time by layer over %d traced ops of %s (%.1f ms wall)\n", len(ops), b.name, float64(wall)/1e6)
	fmt.Fprintf(os.Stderr, "%-10s %12s %8s\n", "layer", "self_ms", "share")
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(os.Stderr, "%-10s %12.1f %7.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(max(wall, 1)))
	}
	fmt.Fprintf(os.Stderr, "%-10s %12.1f %7.1f%%\n", "uncovered", float64(uncovered)/1e6, 100*float64(uncovered)/float64(max(wall, 1)))
	fmt.Fprintf(os.Stderr, "obs.trace_overhead_frac %.4f (traced over untraced latency_p50_ms, minus 1)\n\n", b.layer["obs.trace_overhead_frac"])
}

// sortedKeys returns m's keys in order (stable stderr output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTrace writes the captured spans as JSONL, one span_end line per
// span (its start is ts minus ms).
func (b *bench) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONL(f)
	for _, e := range b.capture.spanEnds() {
		sink.Emit(e)
	}
	return sink.Close()
}
