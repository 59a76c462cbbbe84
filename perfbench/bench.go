package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dctopo/obs"
)

// bench is one workload run's state: the samples it measured, the
// failures its checks found and the run record printed to stderr.
type bench struct {
	name    string
	seed    uint64
	seconds int
	trace   bool
	// capture keeps the traced handle's spans in memory and counts its
	// points; spans are written out only at exit (-trace-out).
	capture *capture
	// o is the traced handle (nil in an untraced run): the benchmark's
	// own "bench.*" spans and, through the program's Obs option fields,
	// the program's existing spans.
	o *obs.Obs
	// pointsBefore is the point count by name when the timed phase
	// began; set-up and warm-up on a traced server emit points too.
	pointsBefore map[string]int

	setups []time.Duration
	ops    []opSample
	// busy is the timed window: the sum of op latencies. Checks and
	// forced GCs between ops fall outside it.
	busy time.Duration
	// cpu is the process's user+sys CPU time inside the timed window.
	cpu time.Duration

	attempted, failed int
	violations        []string
	keys              map[string]struct{}
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	// extraSelf is layer busy time inside traced ops that no span marks:
	// the what-if engine answers a query without one, so its histogram's
	// sum stands in.
	extraSelf map[string]time.Duration
	record    map[string]interface{}
}

// opSample is one timed op.
type opSample struct {
	start  time.Time
	dur    time.Duration
	traced bool
}

func newBench(name string, seed uint64, seconds int, trace bool) *bench {
	b := &bench{
		name: name, seed: seed, seconds: seconds, trace: trace,
		keys:      map[string]struct{}{},
		layer:     map[string]float64{},
		extraSelf: map[string]time.Duration{},
		record: map[string]interface{}{
			"workload":   name,
			"seed":       seed,
			"seconds":    seconds,
			"trace":      trace,
			"pid":        os.Getpid(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"client":     "one client, closed loop",
		},
	}
	if trace {
		b.capture = &capture{points: map[string]int{}}
		b.o = obs.New(b.capture)
	}
	return b
}

// opCount sizes a workload's fixed op count from -seconds: rate is the
// ops per second the workload sustains on a 2-core machine, so the timed
// phase lasts about -seconds there. The count depends only on -seconds,
// never on how fast this run goes, so every run does the same work.
func (b *bench) opCount(rate float64, min int) int {
	n := int(math.Round(rate * float64(b.seconds)))
	if n < min {
		n = min
	}
	return n
}

// setup times one set-up unit. Each workload repeats its set-up unit
// several times and setup_s reports the median.
func (b *bench) setup(fn func() error) error {
	runtime.GC()
	s := time.Now()
	err := fn()
	b.setups = append(b.setups, time.Since(s))
	return err
}

// claim records one request identity; a repeat within the run is a
// violation, since a repeated (id, params) would be answered from a
// cache and time no work.
func (b *bench) claim(key string) {
	if _, dup := b.keys[key]; dup {
		b.violate("request repeated within the run: " + key)
	}
	b.keys[key] = struct{}{}
}

func (b *bench) violate(msg string) {
	if len(b.violations) < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: violation: %s\n", b.name, msg)
	}
	b.violations = append(b.violations, msg)
}

// fail counts one op that errored or returned a wrong answer.
func (b *bench) fail(i int, err error) {
	if b.failed < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: op %d: %v\n", b.name, i, err)
	}
	b.failed++
}

// measure runs n ops in a closed loop, one at a time. do performs op i
// and returns a check to run after the clock stops, outside the timed
// window. In a traced run odd ops are traced, each under a benchmark
// span named call, and even ops are not, so the traced and untraced
// halves share one time window and the tracing overhead is measured
// within the run. gc forces a collection before each op so every large
// op starts from the same heap state.
func (b *bench) measure(call string, n int, gc bool, do func(i int, traced bool, o *obs.Obs) (check func() error, err error)) {
	b.record["ops"] = n
	b.record["op"] = call
	if b.trace {
		b.pointsBefore = b.capture.pointCounts()
	}
	for i := 0; i < n; i++ {
		if gc {
			runtime.GC()
		}
		traced := b.trace && i%2 == 1
		o := (*obs.Obs)(nil)
		var sp *obs.Span
		if traced {
			o, sp = b.o.Start("bench."+call, obs.Int("op", i))
		}
		cpu0 := cpuTime()
		start := time.Now()
		check, err := do(i, traced, o)
		dur := time.Since(start)
		b.cpu += cpuTime() - cpu0
		sp.End()
		b.busy += dur
		b.attempted++
		b.ops = append(b.ops, opSample{start: start, dur: dur, traced: traced})
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			b.fail(i, err)
		}
	}
}

// warmup runs ops that fill caches and finish lazy set-up; they are
// checked like timed ops but excluded from every latency metric.
func (b *bench) warmup(n int, do func(i int) error) {
	b.record["warmup_ops"] = n
	for i := 0; i < n; i++ {
		b.attempted++
		if err := do(i); err != nil {
			b.fail(-1-i, fmt.Errorf("warm-up: %w", err))
		}
	}
}

// latencies returns the traced or the untraced op latencies.
func (b *bench) latencies(traced bool) []time.Duration {
	var out []time.Duration
	for _, s := range b.ops {
		if s.traced == traced {
			out = append(out, s.dur)
		}
	}
	return out
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank q-quantile of xs; 0 for no values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
