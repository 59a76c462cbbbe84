// Command perfbench is the repository benchmark. One invocation runs one
// workload in its own process: a single client in a closed loop issues a
// fixed number of ops, every op's output is checked outside the timed
// window, and the metrics are printed as one JSON object on the last line
// of standard output — the end-to-end metrics by default, the per-layer
// metrics with -trace 1. Build and run it from the repository root:
//
//	python3 perfbench/run.py --workload mcf-jf400 --seed 1 --seconds 15 --trace 0
//
// WORKLOADS.md records each workload's inputs, client model, why it was
// chosen and which end-to-end metric each layer metric feeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// workload is one entry of the benchmark: a name and the function that
// sets it up, measures it and checks it.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"tub-jf6k", runTUB},
	{"mcf-jf400", runMCF},
	{"whatif-http-jf2k", runWhatIf},
	{"expt-cold", runExpt},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 15, "run length the op counts are sized for (1..60)")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the captured spans here as JSONL at exit")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fatalf("unknown -workload %q (want one of %s)", *name, workloadNames())
	case *seconds < 1 || *seconds > 60:
		fatalf("-seconds %d out of range 1..60", *seconds)
	case *trace != 0 && *trace != 1:
		fatalf("-trace %d: want 0 or 1", *trace)
	}
	b := newBench(w.name, *seed, *seconds, *trace == 1)
	if err := w.run(b); err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res, err := b.result()
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if b.trace && *traceOut != "" {
		if err := b.writeTrace(*traceOut); err != nil {
			fatalf("write trace: %v", err)
		}
	}
	b.record["setup_units"] = len(b.setups)
	b.record["timed_ops"] = len(b.ops)
	b.record["distinct_requests"] = len(b.keys)
	b.record["violations"] = len(b.violations)
	rec, _ := json.Marshal(b.record)
	fmt.Fprintf(os.Stderr, "run record: %s\n", rec)
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("marshal result: %v", err)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics and units, in BENCHMARK.json
// order; every workload prints every one.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops", "ops/s"},
	{"peak_rss_mb", "MiB"},
}

// result assembles the printed object. The untraced run reports the
// end-to-end metrics; the traced run reports every per-layer metric,
// zero for a layer the workload never reaches.
func (b *bench) result() (*result, error) {
	res := &result{
		Correct:   b.failed == 0 && len(b.violations) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no ops attempted")
	}
	if !b.trace {
		lat := b.latencies(false)
		if len(lat) == 0 || len(b.setups) == 0 {
			return nil, fmt.Errorf("no timed ops or set-up samples")
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{
			"setup_s":        median(secs(b.setups)),
			"latency_p50_ms": median(millis(lat)),
			"throughput_ops": float64(len(lat)) / b.busy.Seconds(),
			"peak_rss_mb":    rss,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res, nil
	}
	b.layerMetrics()
	for _, m := range perLayer {
		v := b.layer[m.name]
		res.Metrics[m.name] = metric{v, m.unit}
	}
	for k := range b.layer {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	return res, nil
}

func init() {
	// The program runs at GOMAXPROCS = the machine's CPU count (the
	// runtime default, pinned here so an inherited GOMAXPROCS cannot
	// change what is measured).
	runtime.GOMAXPROCS(runtime.NumCPU())
}
