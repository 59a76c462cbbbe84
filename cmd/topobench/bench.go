package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"dctopo/internal/graph"
	"dctopo/internal/match"

	"dctopo/mcf"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

// benchMeta records the provenance of a bench run — embedded in every
// BENCH_*.json document so benchdiff can label what is being compared
// and CI artifacts stay attributable to a commit.
type benchMeta struct {
	Commit    string `json:"commit,omitempty"`
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`
}

// currentBenchMeta stamps the VCS revision when the binary was built
// with VCS info; `go run` and test binaries are not, so GITHUB_SHA (set
// by CI) is the fallback.
func currentBenchMeta() benchMeta {
	m := benchMeta{
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if m.Commit == "" {
		m.Commit = os.Getenv("GITHUB_SHA")
	}
	return m
}

// writeBenchJSON is the shared tail of every bench subcommand: indent,
// then either stream to w (out == "-") or write the file and confirm.
func writeBenchJSON(w io.Writer, out string, rep interface{}, entries int) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		_, err = w.Write(enc)
		return err
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d entries)\n", out, entries)
	return nil
}

// benchEntry is one benchmark record of BENCH_msbfs.json: a kernel run
// of HostDistances on one Jellyfish size.
type benchEntry struct {
	Name          string  `json:"name"`
	Switches      int     `json:"switches"`
	Hosts         int     `json:"hosts"`
	Kernel        string  `json:"kernel"`
	NsPerOp       float64 `json:"ns_op"`
	BytesPerOp    int64   `json:"b_op"`
	AllocsPerOp   int64   `json:"allocs_op"`
	SourcesPerSec float64 `json:"sources_per_sec"`
}

// benchReport is the BENCH_msbfs.json document.
type benchReport struct {
	Benchmark string `json:"benchmark"`
	benchMeta
	GoMaxProcs int          `json:"gomaxprocs"`
	Entries    []benchEntry `json:"entries"`
	// Speedup maps "switches=N" to bitparallel/scalar wall-clock ratio.
	Speedup map[string]float64 `json:"speedup"`
}

// kspBenchEntry is one benchmark record of BENCH_ksp.json: a Yen-kernel
// run over a fixed pair sweep on one Jellyfish instance.
type kspBenchEntry struct {
	Name        string  `json:"name"`
	Switches    int     `json:"switches"`
	K           int     `json:"k"`
	Pairs       int     `json:"pairs"`
	Kernel      string  `json:"kernel"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	PathsPerSec float64 `json:"paths_per_sec"`
}

// kspBenchReport is the BENCH_ksp.json document.
type kspBenchReport struct {
	Benchmark string `json:"benchmark"`
	benchMeta
	GoMaxProcs int             `json:"gomaxprocs"`
	Entries    []kspBenchEntry `json:"entries"`
	// Speedup maps "switches=N" to goal/simple wall-clock ratio.
	Speedup map[string]float64 `json:"speedup"`
}

// gkBenchEntry is one benchmark record of BENCH_gk.json: a Garg–
// Könemann scan-kernel run on one Jellyfish instance.
type gkBenchEntry struct {
	Name        string  `json:"name"`
	Switches    int     `json:"switches"`
	Demands     int     `json:"demands"`
	K           int     `json:"k"`
	Eps         float64 `json:"eps"`
	Kernel      string  `json:"kernel"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	Theta       float64 `json:"theta"`
}

// gkBenchReport is the BENCH_gk.json document.
type gkBenchReport struct {
	Benchmark string `json:"benchmark"`
	benchMeta
	GoMaxProcs int            `json:"gomaxprocs"`
	Entries    []gkBenchEntry `json:"entries"`
	// Speedup maps "switches=N" to simple/incremental wall-clock ratio.
	Speedup map[string]float64 `json:"speedup"`
}

// matchBenchEntry is one benchmark record of BENCH_matching.json: a TUB
// bound computation with one matcher on one Jellyfish instance.
type matchBenchEntry struct {
	Name        string  `json:"name"`
	Switches    int     `json:"switches"`
	Matcher     string  `json:"matcher"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	WeightedLen int64   `json:"weighted_len"`
	Workers     int     `json:"workers,omitempty"` // set on "/workers=NumCPU" entries
}

// matchBenchReport is the BENCH_matching.json document.
type matchBenchReport struct {
	Benchmark string `json:"benchmark"`
	benchMeta
	GoMaxProcs int               `json:"gomaxprocs"`
	Entries    []matchBenchEntry `json:"entries"`
	// Speedup maps "switches=N" to exact/auction wall-clock ratio.
	Speedup map[string]float64 `json:"speedup"`
}

// whatifBenchEntry is one benchmark record of BENCH_whatif.json: the
// per-link cost of a failure query with one kernel (the warm
// incremental engine or a cold tub.Bound on the damaged topology).
type whatifBenchEntry struct {
	Name        string  `json:"name"`
	Switches    int     `json:"switches"`
	Links       int     `json:"links"` // links measured per op
	Kernel      string  `json:"kernel"`
	NsPerOp     float64 `json:"ns_op"` // per link
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	WeightedLen int64   `json:"weighted_len"` // sum over measured links
}

// whatifBenchReport is the BENCH_whatif.json document.
type whatifBenchReport struct {
	Benchmark string `json:"benchmark"`
	benchMeta
	GoMaxProcs int `json:"gomaxprocs"`
	// BuildNs is the one-time what-if engine construction cost;
	// TotalLinks the base topology's distinct link bundles (the
	// amortization basis of a full sweep).
	BuildNs    float64            `json:"build_ns"`
	TotalLinks int                `json:"total_links"`
	Entries    []whatifBenchEntry `json:"entries"`
	// Speedup maps "switches=N" to cold/warm per-link ratio and
	// "switches=N/amortized" to the same with the engine build spread
	// over a full-sweep's links.
	Speedup map[string]float64 `json:"speedup"`
}

// cmdBench runs the kernel benchmarks and writes the machine-readable
// JSON consumed by the CI perf-tracking artifacts: the "msbfs" case
// (bit-parallel multi-source BFS vs the scalar baseline, BENCH_msbfs.json),
// the "ksp" case (goal-directed Yen kernel vs the simple baseline,
// BENCH_ksp.json), the "gk" case (incremental Garg–Könemann scan vs the
// simple baseline, BENCH_gk.json), the "matching" case (sharded
// auction vs Jonker–Volgenant on the TUB bound, BENCH_matching.json),
// and the "whatif" case (warm incremental failure queries vs cold
// recomputation, BENCH_whatif.json).
func cmdBench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	cases := fs.String("cases", "msbfs,ksp,gk,matching,whatif", "comma-separated benchmark cases to run (msbfs, ksp, gk, matching, whatif)")
	sizes := fs.String("sizes", "1024,2048,4096", "comma-separated Jellyfish switch counts (msbfs case)")
	radix := fs.Int("radix", 16, "switch radix")
	servers := fs.Int("servers", 4, "servers per switch")
	out := fs.String("o", "BENCH_msbfs.json", "msbfs output JSON path (- for stdout)")
	kspOut := fs.String("ksp-o", "BENCH_ksp.json", "ksp output JSON path (- for stdout)")
	kspSwitches := fs.Int("ksp-switches", 1024, "Jellyfish switch count for the ksp case")
	kspK := fs.Int("ksp-k", 8, "paths per pair for the ksp case")
	kspPairs := fs.Int("ksp-pairs", 64, "pairs measured per op in the ksp case")
	gkOut := fs.String("gk-o", "BENCH_gk.json", "gk output JSON path (- for stdout)")
	gkSwitches := fs.Int("gk-switches", 1000, "Jellyfish switch count for the gk case")
	gkDemands := fs.Int("gk-demands", 64, "demands kept from the random permutation in the gk case")
	gkK := fs.Int("gk-k", 12, "paths per demand for the gk case")
	gkEps := fs.Float64("gk-eps", 0.03, "FPTAS epsilon for the gk case")
	matchOut := fs.String("matching-o", "BENCH_matching.json", "matching output JSON path (- for stdout)")
	matchSwitches := fs.Int("matching-switches", 1000, "Jellyfish switch count for the matching case")
	matchKernelSizes := fs.String("matching-kernel-sizes", "8000,8200,20000", "comma-separated host counts for the auction kernel sub-case (empty to skip)")
	whatifOut := fs.String("whatif-o", "BENCH_whatif.json", "whatif output JSON path (- for stdout)")
	whatifSwitches := fs.Int("whatif-switches", 1000, "Jellyfish switch count for the whatif case")
	whatifLinks := fs.Int("whatif-links", 64, "sampled link removals measured in the whatif case")
	var rf runFlags
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkPositive(
		intFlag{"radix", *radix}, intFlag{"servers", *servers},
		intFlag{"ksp-switches", *kspSwitches}, intFlag{"ksp-k", *kspK},
		intFlag{"ksp-pairs", *kspPairs}, intFlag{"gk-switches", *gkSwitches},
		intFlag{"gk-demands", *gkDemands}, intFlag{"gk-k", *gkK},
		intFlag{"matching-switches", *matchSwitches},
		intFlag{"whatif-switches", *whatifSwitches}, intFlag{"whatif-links", *whatifLinks},
	); err != nil {
		return err
	}
	// Bench runs are long enough that the always-on flight recorder is
	// worth its (lock-free, allocation-free) overhead.
	rf.flightAuto = true
	_, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	for _, c := range strings.Split(*cases, ",") {
		switch strings.TrimSpace(c) {
		case "msbfs":
			err = benchMSBFS(w, *sizes, *radix, *servers, *out)
		case "ksp":
			err = benchKSP(w, *kspSwitches, *radix, *servers, *kspK, *kspPairs, *kspOut)
		case "gk":
			err = benchGK(w, *gkSwitches, *radix, *servers, *gkDemands, *gkK, *gkEps, *gkOut)
		case "matching":
			err = benchMatching(w, *matchSwitches, *radix, *servers, *matchKernelSizes, *matchOut)
		case "whatif":
			err = benchWhatIf(w, *whatifSwitches, *radix, *servers, *whatifLinks, *whatifOut)
		case "":
		default:
			err = fmt.Errorf("unknown bench case %q (want msbfs, ksp, gk, matching, or whatif)", c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// benchMSBFS measures HostDistances (bit-parallel vs scalar) on Jellyfish
// instances and writes the BENCH_msbfs.json document.
func benchMSBFS(w io.Writer, sizes string, radix, servers int, out string) error {
	rep := benchReport{
		Benchmark:  "HostDistances/jellyfish",
		benchMeta:  currentBenchMeta(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Speedup:    map[string]float64{},
	}
	for _, tok := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad -sizes entry %q: %v", tok, err)
		}
		t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: n, Radix: radix, Servers: servers, Seed: 1})
		if err != nil {
			return err
		}
		hosts := len(t.Hosts())
		var perKernel [2]float64
		for ki, k := range []struct {
			name string
			run  func() ([][]uint8, error)
		}{
			{"bitparallel", func() ([][]uint8, error) { return tub.HostDistancesWorkers(t, 0) }},
			{"scalar", func() ([][]uint8, error) { return tub.HostDistancesScalar(t, 0) }},
		} {
			var benchErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.run(); err != nil {
						benchErr = err
						b.Fatal(err)
					}
				}
			})
			if benchErr != nil {
				return benchErr
			}
			nsOp := float64(r.NsPerOp())
			perKernel[ki] = nsOp
			rep.Entries = append(rep.Entries, benchEntry{
				Name:          fmt.Sprintf("BenchmarkHostDistances/switches=%d/kernel=%s", n, k.name),
				Switches:      n,
				Hosts:         hosts,
				Kernel:        k.name,
				NsPerOp:       nsOp,
				BytesPerOp:    r.AllocedBytesPerOp(),
				AllocsPerOp:   r.AllocsPerOp(),
				SourcesPerSec: float64(hosts) * 1e9 / nsOp,
			})
			fmt.Fprintf(os.Stderr, "switches=%d kernel=%s: %.2f ms/op, %.0f sources/s\n",
				n, k.name, nsOp/1e6, float64(hosts)*1e9/nsOp)
		}
		rep.Speedup[fmt.Sprintf("switches=%d", n)] = perKernel[1] / perKernel[0]
	}

	return writeBenchJSON(w, out, &rep, len(rep.Entries))
}

// benchKSP measures the Yen kernels (goal-directed vs simple baseline)
// over a fixed antipodal pair sweep on one Jellyfish instance and writes
// the BENCH_ksp.json document. Throughput is paths per second.
func benchKSP(w io.Writer, switches, radix, servers, k, pairs int, out string) error {
	t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: switches, Radix: radix, Servers: servers, Seed: 1})
	if err != nil {
		return err
	}
	g := t.Graph()
	n := g.N()
	if pairs > n/2 {
		pairs = n / 2
	}
	rep := kspBenchReport{
		Benchmark:  "KShortestPaths/jellyfish",
		benchMeta:  currentBenchMeta(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Speedup:    map[string]float64{},
	}
	var perKernel [2]float64
	for ki, kr := range []struct {
		name string
		run  func(src, dst int) []graph.Path
	}{
		{"goal", func(src, dst int) []graph.Path { return g.KShortestPaths(src, dst, k) }},
		{"simple", func(src, dst int) []graph.Path { return g.KShortestPathsSimple(src, dst, k) }},
	} {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			paths := 0
			for i := 0; i < b.N; i++ {
				paths = 0
				for p := 0; p < pairs; p++ {
					paths += len(kr.run(p, (p+n/2)%n))
				}
			}
			b.ReportMetric(float64(paths)*float64(b.N)/b.Elapsed().Seconds(), "paths/s")
		})
		nsOp := float64(r.NsPerOp())
		perKernel[ki] = nsOp
		rep.Entries = append(rep.Entries, kspBenchEntry{
			Name:        fmt.Sprintf("BenchmarkKShortest/switches=%d/kernel=%s", switches, kr.name),
			Switches:    switches,
			K:           k,
			Pairs:       pairs,
			Kernel:      kr.name,
			NsPerOp:     nsOp,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			PathsPerSec: r.Extra["paths/s"],
		})
		fmt.Fprintf(os.Stderr, "ksp switches=%d kernel=%s: %.2f ms/op, %.0f paths/s\n",
			switches, kr.name, nsOp/1e6, r.Extra["paths/s"])
	}
	rep.Speedup[fmt.Sprintf("switches=%d", switches)] = perKernel[1] / perKernel[0]

	return writeBenchJSON(w, out, &rep, len(rep.Entries))
}

// benchGK measures the Garg–Könemann scan kernels (incremental vs the
// simple baseline) on a subsampled permutation matrix over one Jellyfish
// instance and writes the BENCH_gk.json document. The kernels are
// bit-identical; the report records θ from each as evidence.
func benchGK(w io.Writer, switches, radix, servers, demands, k int, eps float64, out string) error {
	t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: switches, Radix: radix, Servers: servers, Seed: 1})
	if err != nil {
		return err
	}
	tm := traffic.RandomPermutation(t, 1)
	if demands < len(tm.Demands) {
		tm = &traffic.Matrix{Switches: tm.Switches, Demands: tm.Demands[:demands]}
	}
	paths := mcf.KShortest(t, tm, k)
	rep := gkBenchReport{
		Benchmark:  "MaxConcurrentFlow/jellyfish",
		benchMeta:  currentBenchMeta(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Speedup:    map[string]float64{},
	}
	var perKernel [2]float64
	for ki, kr := range []struct {
		name string
		scan mcf.Scan
	}{
		{"incremental", mcf.ScanIncremental},
		{"simple", mcf.ScanSimple},
	} {
		var theta float64
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				th, err := mcf.Throughput(t, tm, paths, mcf.Options{
					Method: mcf.Approx, Eps: eps, Workers: 1, Scan: kr.scan,
				})
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				theta = th
			}
		})
		if benchErr != nil {
			return benchErr
		}
		nsOp := float64(r.NsPerOp())
		perKernel[ki] = nsOp
		rep.Entries = append(rep.Entries, gkBenchEntry{
			Name:        fmt.Sprintf("BenchmarkMaxConcurrentFlow/switches=%d/kernel=%s", switches, kr.name),
			Switches:    switches,
			Demands:     len(tm.Demands),
			K:           k,
			Eps:         eps,
			Kernel:      kr.name,
			NsPerOp:     nsOp,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Theta:       theta,
		})
		fmt.Fprintf(os.Stderr, "gk switches=%d kernel=%s: %.2f ms/op, theta=%.6f\n",
			switches, kr.name, nsOp/1e6, theta)
	}
	rep.Speedup[fmt.Sprintf("switches=%d", switches)] = perKernel[1] / perKernel[0]

	return writeBenchJSON(w, out, &rep, len(rep.Entries))
}

// benchMatching measures the TUB bound under the sharded auction matcher
// against the Jonker–Volgenant exact matcher on one Jellyfish instance,
// then the bare auction kernels (callback-weight sharded vs matrix-free
// blocked) on precomputed distance matrices at the kernelSizes host
// counts, and writes the BENCH_matching.json document. All matchers are
// exact: the recorded WeightedLen values must agree per instance.
func benchMatching(w io.Writer, switches, radix, servers int, kernelSizes, out string) error {
	t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: switches, Radix: radix, Servers: servers, Seed: 1})
	if err != nil {
		return err
	}
	rep := matchBenchReport{
		Benchmark:  "TUBBound/jellyfish",
		benchMeta:  currentBenchMeta(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Speedup:    map[string]float64{},
	}
	var perMatcher [2]float64
	var weighted [2]int64
	for mi, m := range []struct {
		name    string
		matcher tub.Matcher
	}{
		{"auction", tub.AuctionMatcher},
		{"exact", tub.ExactMatcher},
	} {
		var wl int64
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := tub.Bound(t, tub.Options{Matcher: m.matcher})
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				wl = res.WeightedLen
			}
		})
		if benchErr != nil {
			return benchErr
		}
		nsOp := float64(r.NsPerOp())
		perMatcher[mi] = nsOp
		weighted[mi] = wl
		rep.Entries = append(rep.Entries, matchBenchEntry{
			Name:        fmt.Sprintf("BenchmarkTUBBound/switches=%d/matcher=%s", switches, m.name),
			Switches:    switches,
			Matcher:     m.name,
			NsPerOp:     nsOp,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			WeightedLen: wl,
		})
		fmt.Fprintf(os.Stderr, "matching switches=%d matcher=%s: %.2f ms/op, weighted_len=%d\n",
			switches, m.name, nsOp/1e6, wl)
	}
	if weighted[0] != weighted[1] {
		return fmt.Errorf("matchers disagree: auction weighted_len %d != exact %d", weighted[0], weighted[1])
	}
	rep.Speedup[fmt.Sprintf("switches=%d", switches)] = perMatcher[1] / perMatcher[0]

	// Bare-kernel sub-case: the matrix-free blocked auction against the
	// sharded auction on a precomputed uint8 distance matrix (uniform
	// multipliers), with topology build and BFS outside the timer. The
	// default sizes straddle the sharded kernel's 256 MiB materialization
	// budget — at 8000 it bids off a flat int32 matrix, at 8200 it falls
	// to per-bid row rematerialization (the cliff the blocked kernel
	// removes). Past 10000 hosts the sharded baseline is too slow to keep
	// in a CI budget, so only the blocked kernel is measured there. The
	// serial entries keep their names at Workers: 1, so they align with
	// the committed single-core trajectory whatever the host's core
	// count; the "/workers=NumCPU" entry runs the blocked kernel at
	// Workers: NumCPU (its bid scan split across cores past
	// match.BidCrossover) and records the width in "workers".
	type kernelCase struct {
		name, suffix string
		workers      int
		run          func() *match.Result
	}
	for _, tok := range strings.Split(kernelSizes, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		kh, err := strconv.Atoi(tok)
		if err != nil || kh <= 0 {
			return fmt.Errorf("bad -matching-kernel-sizes entry %q", tok)
		}
		kt, err := topo.Jellyfish(topo.JellyfishConfig{Switches: kh, Radix: radix, Servers: servers, Seed: 1})
		if err != nil {
			return err
		}
		dist, err := tub.HostDistances(kt)
		if err != nil {
			return err
		}
		n := len(dist)
		blocked := func(workers int) func() *match.Result {
			return func() *match.Result {
				res, _ := match.AuctionBlocked(n, match.U8Weights{Rows: func(i int) []uint8 { return dist[i] }}, match.AuctionOptions{Workers: workers})
				return res
			}
		}
		numCPU := runtime.NumCPU()
		kernels := []kernelCase{
			{"blocked", "", 1, blocked(1)},
			{"blocked", "/workers=NumCPU", numCPU, blocked(numCPU)},
		}
		if n <= 10000 {
			wf := func(i, j int) int64 { return int64(dist[i][j]) }
			kernels = append(kernels, kernelCase{"sharded", "", 1, func() *match.Result {
				res, _ := match.AuctionSharded(n, wf, match.AuctionOptions{Workers: 1})
				return res
			}})
		}
		perKernel := map[string]float64{}
		first := len(rep.Entries)
		for _, k := range kernels {
			var total int64
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					total = k.run().Total
				}
			})
			nsOp := float64(r.NsPerOp())
			perKernel[k.name+k.suffix] = nsOp
			entry := matchBenchEntry{
				Name:        fmt.Sprintf("BenchmarkMatchKernel/hosts=%d/kernel=%s%s", n, k.name, k.suffix),
				Switches:    kh,
				Matcher:     k.name,
				NsPerOp:     nsOp,
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				WeightedLen: total,
			}
			if k.suffix != "" {
				entry.Workers = k.workers
			}
			if len(rep.Entries) > first && rep.Entries[first].WeightedLen != total {
				return fmt.Errorf("kernels disagree at %d hosts: %s total %d != %s %d",
					n, entry.Name, total, rep.Entries[first].Name, rep.Entries[first].WeightedLen)
			}
			rep.Entries = append(rep.Entries, entry)
			fmt.Fprintf(os.Stderr, "matching kernel hosts=%d kernel=%s%s: %.2f ms/op, total=%d\n",
				n, k.name, k.suffix, nsOp/1e6, total)
		}
		if s, ok := perKernel["sharded"]; ok {
			rep.Speedup[fmt.Sprintf("hosts=%d", n)] = s / perKernel["blocked"]
		}
	}

	return writeBenchJSON(w, out, &rep, len(rep.Entries))
}

// benchWhatIf measures single-link failure queries: the warm kernel
// (one prebuilt tub.WhatIf engine answering QueryLink per link) against
// the cold kernel (tub.Bound recomputed on each pre-derived damaged
// topology) over the same deterministic link sample. Both kernels are
// exact, so their damaged WeightedLen sums must agree; the report also
// records the one-time engine build cost and the amortized speedup with
// that build spread over a full sweep of the topology's links.
func benchWhatIf(w io.Writer, switches, radix, servers, links int, out string) error {
	t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: switches, Radix: radix, Servers: servers, Seed: 1})
	if err != nil {
		return err
	}
	type linkID struct{ u, v int }
	var all []linkID
	t.Graph().Edges(func(u, v, c int) { all = append(all, linkID{u, v}) })
	total := len(all)
	if links > total {
		links = total
	}
	stride := total / links
	sample := make([]linkID, 0, links)
	for i := 0; i < links; i++ {
		sample = append(sample, all[i*stride])
	}
	// Pre-derive the damaged topologies so the cold kernel times only the
	// TUB evaluation (conservative: derivation would also be on the cold
	// path). A removal that disconnects has no cold Topology; Jellyfish at
	// this radix never produces one, so treat it as an error.
	damaged := make([]*topo.Topology, len(sample))
	for i, l := range sample {
		if damaged[i], err = t.RemoveLink(l.u, l.v); err != nil {
			return fmt.Errorf("whatif bench: derive (%d,%d): %w", l.u, l.v, err)
		}
	}

	rep := whatifBenchReport{
		Benchmark:  "WhatIfLink/jellyfish",
		benchMeta:  currentBenchMeta(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		TotalLinks: total,
		Speedup:    map[string]float64{},
	}

	buildStart := time.Now()
	eng, err := tub.NewWhatIf(t, tub.WhatIfOptions{})
	if err != nil {
		return err
	}
	rep.BuildNs = float64(time.Since(buildStart).Nanoseconds())
	fmt.Fprintf(os.Stderr, "whatif switches=%d: engine built in %.2f ms (%d links total)\n",
		switches, rep.BuildNs/1e6, total)

	warmWL := make([]int64, len(sample))
	coldWL := make([]int64, len(sample))
	var perKernel [2]float64
	for ki, kr := range []struct {
		name string
		run  func(i int) (int64, error)
	}{
		{"warm", func(i int) (int64, error) {
			q, err := eng.QueryLink(sample[i].u, sample[i].v)
			if err != nil {
				return 0, err
			}
			warmWL[i] = q.WeightedLen
			return q.WeightedLen, nil
		}},
		{"cold", func(i int) (int64, error) {
			res, err := tub.Bound(damaged[i], tub.Options{Matcher: tub.AuctionMatcher})
			if err != nil {
				return 0, err
			}
			coldWL[i] = res.WeightedLen
			return res.WeightedLen, nil
		}},
	} {
		var sumWL int64
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sumWL = 0
				for j := range sample {
					wl, err := kr.run(j)
					if err != nil {
						benchErr = err
						b.Fatal(err)
					}
					sumWL += wl
				}
			}
		})
		if benchErr != nil {
			return benchErr
		}
		perLink := float64(r.NsPerOp()) / float64(len(sample))
		perKernel[ki] = perLink
		rep.Entries = append(rep.Entries, whatifBenchEntry{
			Name:        fmt.Sprintf("BenchmarkWhatIfLink/switches=%d/kernel=%s", switches, kr.name),
			Switches:    switches,
			Links:       len(sample),
			Kernel:      kr.name,
			NsPerOp:     perLink,
			BytesPerOp:  r.AllocedBytesPerOp() / int64(len(sample)),
			AllocsPerOp: r.AllocsPerOp() / int64(len(sample)),
			WeightedLen: sumWL,
		})
		fmt.Fprintf(os.Stderr, "whatif switches=%d kernel=%s: %.3f ms/link, sum weighted_len=%d\n",
			switches, kr.name, perLink/1e6, sumWL)
	}
	for i := range sample {
		if warmWL[i] != coldWL[i] {
			return fmt.Errorf("whatif bench: link (%d,%d): warm weighted_len %d != cold %d",
				sample[i].u, sample[i].v, warmWL[i], coldWL[i])
		}
	}
	rep.Speedup[fmt.Sprintf("switches=%d", switches)] = perKernel[1] / perKernel[0]
	amortized := perKernel[0] + rep.BuildNs/float64(total)
	rep.Speedup[fmt.Sprintf("switches=%d/amortized", switches)] = perKernel[1] / amortized

	return writeBenchJSON(w, out, &rep, len(rep.Entries))
}
