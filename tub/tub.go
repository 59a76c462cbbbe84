// Package tub implements the paper's primary contribution: TUB, a
// closed-form, routing-independent throughput upper bound for uni-regular
// and bi-regular datacenter topologies.
//
// Theorem 2.2 (with the §I generalization to per-switch server counts,
// Equation 18) bounds the topology throughput θ* by
//
//	θ* ≤ 2E / Σ_{(u,v)} min(H_u, H_v) · L_uv · 1[t_uv > 0]
//
// minimized over permutation traffic matrices, where E is the number of
// switch-to-switch links and L_uv the shortest-path length between host
// switches. By Theorem 2.1 permutation matrices suffice, and the
// minimizing permutation — the maximal permutation traffic matrix — is a
// maximum-weight perfect matching over pairwise distances, computed here
// with exact (Jonker–Volgenant), auction, or greedy (the paper's
// Algorithm 1) matchers.
//
// The package also provides the all-topology asymptotic bound of
// Theorem 4.1 built on the Moore bound, the Equation 3 scaling limit, the
// throughput lower bound of Theorem 8.4, and the theoretical gap of
// Figure A.1.
package tub

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dctopo/internal/graph"
	"dctopo/internal/match"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
)

// Matcher selects the algorithm for the maximum-weight perfect matching
// underlying the maximal permutation.
type Matcher int

// Matchers.
const (
	// AutoMatcher picks Exact for small host sets, Auction for medium,
	// Greedy beyond.
	AutoMatcher Matcher = iota
	// ExactMatcher uses Jonker–Volgenant, O(n³) worst case.
	ExactMatcher
	// AuctionMatcher uses ε-scaling auction, exact on integer weights.
	AuctionMatcher
	// GreedyMatcher uses the paper's Algorithm 1 farthest-pair heuristic
	// (yields a valid but possibly slightly looser, i.e. higher, bound).
	GreedyMatcher
)

// Auto matcher size thresholds (host switch counts). The auction beats
// Jonker–Volgenant at every size measured (279µs vs 703µs at n=64, 5ms
// vs 31ms at n=256, 106ms vs 1.7s at n=1000 on distance-derived
// weights) and both are exact, so Exact is kept only for tiny
// instances where either finishes in microseconds. The matrix-free
// blocked auction (match.AuctionBlocked) bids straight off the uint8
// distance rows, so the old n≈6000 wall — the sharded kernel's
// materialized int32 matrix blowing the 256MB budget and last-level
// cache — is gone: n=20000 now solves exactly within the 20k smoke
// budget (see BENCH_matching.json for the measured crossover data).
// defaultAuctionMax sits at the largest size the smoke test exercises;
// beyond it Auto degrades to the linear-time greedy heuristic — and
// says so via the "tub.match.fallback" counter and span attribute.
// Options.AuctionMax overrides the crossover.
const (
	autoExactMax      = 64
	defaultAuctionMax = 20000
)

// String names the matcher (used in trace attributes and logs).
func (m Matcher) String() string {
	switch m {
	case AutoMatcher:
		return "auto"
	case ExactMatcher:
		return "exact"
	case AuctionMatcher:
		return "auction"
	case GreedyMatcher:
		return "greedy"
	}
	return fmt.Sprintf("matcher(%d)", int(m))
}

// Options configures Bound. The zero value (AutoMatcher) is the right
// choice for almost all uses: it selects the matcher by host-switch
// count n — ExactMatcher (Jonker–Volgenant, O(n³)) for n ≤ 64,
// AuctionMatcher (the matrix-free blocked ε-scaling auction, exact on
// the integer weights used here but with much better constants) up to
// the AuctionMax crossover (default 20000), and GreedyMatcher (the
// paper's Algorithm 1; a valid but possibly slightly looser bound)
// beyond. The crossovers are where the next-cheaper matcher starts
// winning by wall clock on commodity hardware.
//
// Bound validates the Matcher value up front and returns an error for
// values outside [AutoMatcher, GreedyMatcher], so a mis-initialized or
// garbage Options never silently falls through to the wrong matcher.
type Options struct {
	Matcher Matcher
	// Workers bounds the distance-sweep worker pool; <= 0 means
	// GOMAXPROCS. The bound is identical for any worker count.
	Workers int
	// AuctionMax overrides AutoMatcher's auction→greedy crossover (a
	// host-switch count): 0 means the default (20000), negative is an
	// error. Raising it trades wall clock for an exact bound at larger
	// scales; it has no effect when Matcher is explicit.
	AuctionMax int
	// Obs, when non-nil, records a "tub.bound" span with "tub.dist" and
	// "tub.match" children; the match span's attributes name the matcher
	// actually selected (after Auto resolution) so matcher crossovers are
	// visible in traces, and a greedy degradation adds a
	// fallback="greedy" attribute plus a "tub.match.fallback" counter
	// increment. Instrumentation never changes the bound.
	Obs *obs.Obs
}

// Result is the output of Bound.
type Result struct {
	// Bound is the TUB value: an upper bound on the topology's worst-case
	// throughput θ* under any routing.
	Bound float64
	// Perm is the maximal permutation over host indices: host i sends to
	// host Perm[i] (indices into Topology.Hosts()). Fixed points carry no
	// demand.
	Perm []int
	// WeightedLen is Σ min(H_u,H_v)·L_uv over the permutation's pairs —
	// the denominator of Equation 18.
	WeightedLen int64
	// TwoE is Σ_u (R_u − H_u) = 2·links, the numerator.
	TwoE int
	// Dist[i][j] is the switch-graph hop distance between hosts i and j
	// (host indices).
	Dist [][]uint8
	// Matcher is the matcher that actually ran, after Auto resolution —
	// callers can tell an exact bound from a greedy one without
	// re-deriving the crossover.
	Matcher Matcher
}

// Bound computes the throughput upper bound of Theorem 2.2 / Equation 18
// for a topology.
func Bound(t *topo.Topology, opt Options) (*Result, error) {
	if opt.Matcher < AutoMatcher || opt.Matcher > GreedyMatcher {
		return nil, fmt.Errorf("tub: invalid matcher %d (want AutoMatcher, ExactMatcher, AuctionMatcher or GreedyMatcher)", opt.Matcher)
	}
	if opt.AuctionMax < 0 {
		return nil, fmt.Errorf("tub: invalid AuctionMax %d (want 0 for the default crossover, or a positive host count)", opt.AuctionMax)
	}
	auctionMax := opt.AuctionMax
	if auctionMax == 0 {
		auctionMax = defaultAuctionMax
	}
	hosts := t.Hosts()
	n := len(hosts)
	if n < 2 {
		return nil, errors.New("tub: need at least 2 host switches")
	}
	to, sp := opt.Obs.Start("tub.bound", obs.Int("hosts", n))
	var bnd float64
	defer func() { sp.End(obs.Float("bound", bnd)) }()
	_, dsp := to.Start("tub.dist", obs.String("kernel", distKernel(n)))
	// Per-batch BFS durations feed the "tub.dist.batch" histogram (64
	// sources per batch), resolving where a slow sweep spends its time;
	// the clock reads are skipped entirely when observability is off.
	var onBatch func(int, time.Duration)
	if opt.Obs.Enabled() {
		bh := opt.Obs.Histogram("tub.dist.batch")
		onBatch = func(_ int, d time.Duration) { bh.Observe(d) }
	}
	dist, err := hostDistances(t, opt.Workers, onBatch)
	dsp.End()
	if err != nil {
		return nil, err
	}
	h := make([]int64, n)
	for i, u := range hosts {
		h[i] = int64(t.Servers(u))
	}
	weight := func(i, j int) int64 {
		w := h[i]
		if h[j] < w {
			w = h[j]
		}
		return int64(dist[i][j]) * w
	}

	m := opt.Matcher
	if m == AutoMatcher {
		switch {
		case n <= autoExactMax:
			m = ExactMatcher
		case n <= auctionMax:
			m = AuctionMatcher
		default:
			m = GreedyMatcher
		}
	}
	attrs := []obs.Attr{obs.String("matcher", m.String())}
	if opt.Matcher == AutoMatcher && m == GreedyMatcher {
		// Auto degraded past the auction crossover: the bound is still
		// valid but no longer exact. Never silent — count it and tag the
		// span so a greedy bound is visible in metrics and traces.
		to.Counter("tub.match.fallback").Add(1)
		attrs = append(attrs, obs.String("fallback", "greedy"))
	}
	mo, msp := to.Start("tub.match", attrs...)
	var res *match.Result
	switch m {
	case ExactMatcher:
		res = match.Exact(n, weight)
		msp.End(obs.Int64("weighted_len", res.Total))
	case AuctionMatcher:
		// The blocked auction bids straight off the uint8 distance rows —
		// matrix-free, so no n×n weight materialization at any scale.
		var stats match.AuctionStats
		// Per-phase durations feed the "tub.match.phase" histogram: the
		// ε-scaling phases run strictly in sequence, so the gap between
		// successive OnPhase callbacks is one phase's wall-clock time.
		ph := opt.Obs.Histogram("tub.match.phase")
		phaseStart := time.Now()
		res, stats = match.AuctionBlocked(n, match.U8Weights{
			Rows: func(i int) []uint8 { return dist[i] },
			H:    h,
		}, match.AuctionOptions{
			Workers: opt.Workers,
			OnPhase: func(phase int, eps int64, rounds, bids int) {
				now := time.Now()
				ph.ObserveNs(int64(now.Sub(phaseStart)))
				phaseStart = now
				mo.Point("tub.match.phase",
					obs.Int("phase", phase), obs.Int64("eps", eps),
					obs.Int("rounds", rounds), obs.Int("bids", bids))
			},
		})
		msp.End(obs.Int64("weighted_len", res.Total),
			obs.Int("auction_phases", stats.Phases),
			obs.Int("auction_rounds", stats.Rounds),
			obs.Int("auction_bids", stats.Bids),
			obs.Int("bid_workers", match.BidWorkers(n, opt.Workers)))
	case GreedyMatcher:
		res = match.Greedy(n, weight)
		msp.End(obs.Int64("weighted_len", res.Total))
	default:
		msp.End()
		return nil, fmt.Errorf("tub: unknown matcher %d", m)
	}

	out := &Result{
		Perm:        res.Col,
		WeightedLen: res.Total,
		TwoE:        2 * t.Links(),
		Dist:        dist,
		Matcher:     m,
	}
	if out.WeightedLen <= 0 {
		return nil, errors.New("tub: degenerate maximal permutation (zero total path length)")
	}
	out.Bound = float64(out.TwoE) / float64(out.WeightedLen)
	bnd = out.Bound
	return out, nil
}

// HostDistances returns the pairwise hop distances between host switches,
// indexed by position in Topology.Hosts(). Distances are measured on the
// full switch graph (transit-only switches shorten paths but never appear
// as endpoints). The traversals run on the bit-parallel multi-source BFS
// kernel (64 sources per machine word, batches sharded across GOMAXPROCS
// workers) — this is the dominant cost of Bound at large scale. Host sets
// below graph.ScalarCrossover use one scalar BFS per host instead; both
// kernels produce identical matrices.
func HostDistances(t *topo.Topology) ([][]uint8, error) {
	return HostDistancesWorkers(t, 0)
}

// HostDistancesWorkers is HostDistances with an explicit worker count
// (<= 0 means GOMAXPROCS). The result is identical for any worker count.
func HostDistancesWorkers(t *topo.Topology, workers int) ([][]uint8, error) {
	return hostDistances(t, workers, nil)
}

// hostDistances is the shared implementation behind HostDistances and
// Bound, with an optional per-batch timing hook (see
// graph.MultiBFSRowsTimed); nil means no timing.
func hostDistances(t *topo.Topology, workers int, onBatch func(sources int, d time.Duration)) ([][]uint8, error) {
	g := t.Graph()
	hosts := t.Hosts()
	n := len(hosts)
	if err := graph.CheckDistMatrixSize(n, n); err != nil {
		return nil, err
	}
	pos := hostPositions(g.N(), hosts)
	out := make([][]uint8, n)
	backing := make([]uint8, n*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}
	err := g.MultiBFSRowsTimed(hosts, workers, func(i int, dist []int32) error {
		return fillHostRow(out[i], dist, pos)
	}, onBatch)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HostDistancesScalar is the pre-kernel reference implementation: one
// scalar BFS per host switch on a goroutine pool. It is retained as the
// equivalence baseline for tests and the before/after benchmarks
// (BenchmarkHostDistances, topobench bench); new code should call
// HostDistances.
func HostDistancesScalar(t *topo.Topology, workers int) ([][]uint8, error) {
	g := t.Graph()
	hosts := t.Hosts()
	n := len(hosts)
	if err := graph.CheckDistMatrixSize(n, n); err != nil {
		return nil, err
	}
	pos := hostPositions(g.N(), hosts)
	out := make([][]uint8, n)
	backing := make([]uint8, n*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	errs := make([]error, n)
	next := atomic.Int64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist := make([]int32, g.N())
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				dist = g.BFS(hosts[i], dist)
				if err := fillHostRow(out[i], dist, pos); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// distKernel names the BFS kernel HostDistances will select for a host
// count, for trace attributes.
func distKernel(hosts int) string {
	if hosts >= graph.ScalarCrossover {
		return "bitparallel"
	}
	return "scalar"
}

// hostPositions inverts a host list into a switch-id → host-index map
// (-1 for transit switches).
func hostPositions(numSwitches int, hosts []int) []int32 {
	pos := make([]int32, numSwitches)
	for i := range pos {
		pos[i] = -1
	}
	for i, u := range hosts {
		pos[u] = int32(i)
	}
	return pos
}

// fillHostRow compacts one full-graph BFS distance row onto host
// positions. An unreachable host is a disconnection error; distances
// must fit uint8 — graph.MaxUint8Dist (254) is the largest representable
// hop count, since 255 is reserved as graph.UnreachableDist (the what-if
// engine writes it into repaired rows when a removal disconnects hosts).
func fillHostRow(row []uint8, dist []int32, pos []int32) error {
	for v, d := range dist {
		j := pos[v]
		if j < 0 {
			continue
		}
		if d < 0 {
			return errors.New("tub: topology disconnected")
		}
		if d > graph.MaxUint8Dist {
			return fmt.Errorf("tub: distance %d exceeds uint8 range [0,%d] (255 is the unreachable sentinel)", d, graph.MaxUint8Dist)
		}
		row[j] = uint8(d)
	}
	return nil
}

// Matrix converts the maximal permutation into a saturated switch-level
// traffic matrix (the paper's worst-case TM, routable with mcf to measure
// the throughput gap).
func (r *Result) Matrix(t *topo.Topology) (*traffic.Matrix, error) {
	return traffic.FromPermutation(t, r.Perm)
}

// LowerBound evaluates Theorem 8.4 for the maximal permutation: a lower
// bound on the throughput achievable when routing may use all paths of
// length up to shortest+slack (the paper's additive path length M),
// assuming saturated ingress (the paper's Assumption 1):
//
//	θ(T) ≥ 2E / (N·M + Σ min(H_u,H_v)·L_uv).
//
// The difference Bound − LowerBound is the paper's "theoretical
// throughput gap" (Figure A.1).
func (r *Result) LowerBound(t *topo.Topology, slack int) float64 {
	if slack < 0 {
		slack = 0
	}
	den := float64(t.NumServers())*float64(slack) + float64(r.WeightedLen)
	return float64(r.TwoE) / den
}

// TheoreticalGap returns Bound − LowerBound(slack), clamped at 0.
func (r *Result) TheoreticalGap(t *topo.Topology, slack int) float64 {
	g := r.Bound - r.LowerBound(t, slack)
	if g < 0 {
		return 0
	}
	return g
}
