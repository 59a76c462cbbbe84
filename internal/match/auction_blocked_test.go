// Differential coverage for the matrix-free blocked auction: on equal
// weights it must reproduce AuctionSharded's run bit for bit — same
// permutation, same stats, same final prices — including at sizes that
// straddle the tile boundary, and its Total must equal the
// Jonker–Volgenant optimum (both are exact algorithms).
package match

import (
	"runtime"
	"testing"

	"dctopo/internal/rng"
)

// u8Matrix builds a distance-like uint8 matrix: zero diagonal, small
// value range (duplicate-heavy, like real hop distances).
func u8Matrix(n, maxD int, seed uint64) [][]uint8 {
	r := rng.New(seed)
	m := make([][]uint8, n)
	for i := range m {
		m[i] = make([]uint8, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = uint8(r.Intn(maxD + 1))
			}
		}
	}
	return m
}

func u8Rows(m [][]uint8) func(i int) []uint8 {
	return func(i int) []uint8 { return m[i] }
}

// u8Fn is the int64 view of the same weights, for the reference
// matchers: w(i, j) = min(h[i], h[j]) · m[i][j] (h nil means all ones).
func u8Fn(m [][]uint8, h []int64) WeightFunc {
	return func(i, j int) int64 {
		d := int64(m[i][j])
		if h == nil {
			return d
		}
		hw := h[i]
		if h[j] < hw {
			hw = h[j]
		}
		return d * hw
	}
}

// randomH draws per-row multipliers in [1, 4] — non-uniform, so the
// hsc (non-table) bid path is exercised.
func randomH(n int, seed uint64) []int64 {
	r := rng.New(seed)
	h := make([]int64, n)
	for i := range h {
		h[i] = 1 + int64(r.Intn(4))
	}
	return h
}

func TestAuctionBlockedMatchesExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40, 97} {
		for seed := uint64(1); seed <= 3; seed++ {
			m := u8Matrix(n, 12, seed)
			for _, h := range [][]int64{nil, randomH(n, seed + 100)} {
				w := u8Fn(m, h)
				want := Exact(n, w).Total
				res, stats := AuctionBlocked(n, U8Weights{Rows: u8Rows(m), H: h}, AuctionOptions{Workers: 1})
				checkPerfect(t, n, w, res)
				if res.Total != want {
					t.Fatalf("n=%d seed=%d uniform=%v: blocked total %d != JV %d", n, seed, h == nil, res.Total, want)
				}
				if stats.Phases < 1 || stats.Rounds < 1 || stats.Bids < stats.Rounds {
					t.Fatalf("n=%d seed=%d: implausible stats %+v", n, seed, stats)
				}
			}
		}
	}
}

// requireSameRun pins a run against a reference run — the blocked
// kernel against the materialized sharded kernel, or a split bid scan
// against the serial one: permutation (Col and Row), stats and final
// prices all bit-equal.
func requireSameRun(t *testing.T, label string, n int, res, ref *Result, stats, refStats AuctionStats) {
	t.Helper()
	if res.Total != ref.Total {
		t.Fatalf("%s: total %d != reference %d", label, res.Total, ref.Total)
	}
	for i := range res.Col {
		if res.Col[i] != ref.Col[i] || res.Row[i] != ref.Row[i] {
			t.Fatalf("%s: Col[%d]=%d Row[%d]=%d != reference %d, %d", label, i, res.Col[i], i, res.Row[i], ref.Col[i], ref.Row[i])
		}
	}
	if stats.Phases != refStats.Phases || stats.Rounds != refStats.Rounds || stats.Bids != refStats.Bids || len(stats.Prices) != len(refStats.Prices) {
		t.Fatalf("%s: stats %d/%d/%d (%d prices) != reference %d/%d/%d (%d prices)", label,
			stats.Phases, stats.Rounds, stats.Bids, len(stats.Prices), refStats.Phases, refStats.Rounds, refStats.Bids, len(refStats.Prices))
	}
	for j, p := range stats.Prices {
		if p != refStats.Prices[j] {
			t.Fatalf("%s: price[%d]=%d != reference %d", label, j, p, refStats.Prices[j])
		}
	}
}

// TestAuctionBlockedBitIdenticalToSharded: moderate sizes, uniform and
// non-uniform multipliers, both worker extremes (workers only shard the
// max-weight scan, whose max-of-max combination is order independent).
func TestAuctionBlockedBitIdenticalToSharded(t *testing.T) {
	for _, n := range []int{1, 2, 16, 17, 100, 257} {
		for seed := uint64(1); seed <= 2; seed++ {
			m := u8Matrix(n, 9, seed)
			for _, h := range [][]int64{nil, randomH(n, seed + 7)} {
				w := u8Fn(m, h)
				ref, refStats := AuctionSharded(n, w, AuctionOptions{Workers: 1})
				for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
					res, stats := AuctionBlocked(n, U8Weights{Rows: u8Rows(m), H: h}, AuctionOptions{Workers: workers})
					checkPerfect(t, n, w, res)
					requireSameRun(t, "blocked", n, res, ref, stats, refStats)
				}
			}
		}
	}
}

// TestAuctionBlockedTileBoundaries drives the carried-across-tiles
// top-2 state through sizes that straddle auctionTile: one tile minus a
// column, exactly one tile, and a one-column second tile. Bit-identity
// against the sharded kernel (which scans full rows with no tiling) is
// the strongest possible check that tiling never changes a bid; the
// n=1000 case additionally pins the Total to Jonker–Volgenant.
func TestAuctionBlockedTileBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("tile-boundary sizes are too large for -short")
	}
	for _, n := range []int{auctionTile - 1, auctionTile, auctionTile + 1} {
		m := u8Matrix(n, 4, uint64(n))
		w := u8Fn(m, nil)
		ref, refStats := AuctionSharded(n, w, AuctionOptions{Workers: 1})
		res, stats := AuctionBlocked(n, U8Weights{Rows: u8Rows(m)}, AuctionOptions{Workers: 1})
		checkPerfect(t, n, w, res)
		requireSameRun(t, "tile boundary", n, res, ref, stats, refStats)
	}
	n := 1000
	m := u8Matrix(n, 6, 5)
	h := randomH(n, 9)
	w := u8Fn(m, h)
	ref, refStats := AuctionSharded(n, w, AuctionOptions{Workers: 1})
	res, stats := AuctionBlocked(n, U8Weights{Rows: u8Rows(m), H: h}, AuctionOptions{Workers: runtime.GOMAXPROCS(0)})
	checkPerfect(t, n, w, res)
	requireSameRun(t, "n=1000", n, res, ref, stats, refStats)
	if want := Exact(n, w).Total; res.Total != want {
		t.Fatalf("n=1000: blocked total %d != JV %d", res.Total, want)
	}
}

// TestAuctionBlockedZeroWeights: all-zero weights (every bid tied) must
// terminate with a valid permutation, as for the sharded kernel.
func TestAuctionBlockedZeroWeights(t *testing.T) {
	n := 9
	m := make([][]uint8, n)
	for i := range m {
		m[i] = make([]uint8, n)
	}
	w := func(i, j int) int64 { return 0 }
	res, _ := AuctionBlocked(n, U8Weights{Rows: u8Rows(m)}, AuctionOptions{Workers: 2})
	checkPerfect(t, n, w, res)
	if res.Total != 0 {
		t.Fatalf("total %d != 0", res.Total)
	}
}

// TestAuctionBlockedAllocs pins the steady-state allocation count: the
// pooled arena absorbs all per-run scratch, leaving only the escaping
// outputs (Result, Col, Row, the Prices copy) plus closure glue.
func TestAuctionBlockedAllocs(t *testing.T) {
	n := 256
	m := u8Matrix(n, 7, 3)
	uw := U8Weights{Rows: u8Rows(m)}
	opt := AuctionOptions{Workers: 1}
	AuctionBlocked(n, uw, opt) // warm the pool
	allocs := testing.AllocsPerRun(10, func() {
		AuctionBlocked(n, uw, opt)
	})
	if allocs > 8 {
		t.Fatalf("AuctionBlocked allocates %.0f objects per run, want <= 8 (escaping outputs only)", allocs)
	}
}

// TestAuctionBlockedSplitAllocs is TestAuctionBlockedAllocs with a
// two-way bid split at Workers: 2. On top of the serial run's 5, the
// two-way max-weight scan adds its fan-out and the team its struct,
// chunk results, helper slice, two wake channels and one goroutine —
// 17 in all, whatever n or the round count. The bound leaves room for
// the race detector, whose sync.Pool drops a quarter of the pooled
// arenas; 30 runs keep that average steady. (AllocsPerRun runs at
// GOMAXPROCS=1, so the forced split takes its slow yield-and-park path
// here; the count is the same.)
func TestAuctionBlockedSplitAllocs(t *testing.T) {
	n := 256
	m := u8Matrix(n, 7, 3)
	uw := U8Weights{Rows: u8Rows(m)}
	opt := AuctionOptions{Workers: 2}
	auctionBlocked(n, uw, opt, 2) // warm the pool
	allocs := testing.AllocsPerRun(30, func() {
		auctionBlocked(n, uw, opt, 2)
	})
	if allocs > 20 {
		t.Fatalf("AuctionBlocked with a two-way bid split allocates %.0f objects per run, want <= 20", allocs)
	}
}
