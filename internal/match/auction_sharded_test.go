// Equivalence coverage for the sharded Jacobi auction: its Total must
// equal the Jonker–Volgenant optimum on every weight matrix (it is an
// exact algorithm, not an approximation), its matching must be a valid
// permutation, and the result must be bit-identical across worker counts
// and between the callback and materialized-row paths.
package match

import (
	"fmt"
	"runtime"
	"testing"

	"dctopo/internal/rng"
)

// checkPerfect fails unless res is a consistent perfect matching whose
// Total matches the weights.
func checkPerfect(t *testing.T, n int, w WeightFunc, res *Result) {
	t.Helper()
	seen := make([]bool, n)
	var total int64
	for i, j := range res.Col {
		if j < 0 || j >= n || seen[j] {
			t.Fatalf("Col is not a permutation: Col[%d]=%d", i, j)
		}
		seen[j] = true
		if res.Row[j] != i {
			t.Fatalf("Row inverse broken at %d->%d", i, j)
		}
		total += w(i, j)
	}
	if total != res.Total {
		t.Fatalf("Total %d does not match weights %d", res.Total, total)
	}
}

func TestAuctionShardedMatchesExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40, 97} {
		for seed := uint64(1); seed <= 3; seed++ {
			m := randomMatrix(n, 12, seed) // small maxW forces duplicate weights
			want := Exact(n, fn(m)).Total
			res, stats := AuctionSharded(n, fn(m), AuctionOptions{Workers: 1})
			checkPerfect(t, n, fn(m), res)
			if res.Total != want {
				t.Fatalf("n=%d seed=%d: sharded auction total %d != JV %d", n, seed, res.Total, want)
			}
			if stats.Phases < 1 || stats.Rounds < 1 || stats.Bids < stats.Rounds {
				t.Fatalf("n=%d seed=%d: implausible stats %+v", n, seed, stats)
			}
		}
	}
}

func TestAuctionShardedMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 7} {
		for seed := uint64(1); seed <= 4; seed++ {
			m := randomMatrix(n, 5, seed)
			want := bruteForce(n, fn(m))
			res, _ := AuctionSharded(n, fn(m), AuctionOptions{})
			if res.Total != want {
				t.Fatalf("n=%d seed=%d: total %d != brute force %d", n, seed, res.Total, want)
			}
		}
	}
}

// TestAuctionShardedDeterministicAcrossWorkers: not just the Total — the
// full permutation must be bit-identical for every worker count, and for
// the Row fast path against the plain callback.
func TestAuctionShardedDeterministicAcrossWorkers(t *testing.T) {
	n := 120
	m := randomMatrix(n, 9, 42)
	row := func(i int, out []int64) { copy(out, m[i]) }
	base, baseStats := AuctionSharded(n, fn(m), AuctionOptions{Workers: 1})
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		for _, useRow := range []bool{false, true} {
			opt := AuctionOptions{Workers: workers}
			if useRow {
				opt.Row = row
			}
			res, stats := AuctionSharded(n, fn(m), opt)
			if res.Total != base.Total {
				t.Fatalf("workers=%d row=%v: total %d != %d", workers, useRow, res.Total, base.Total)
			}
			for i := range res.Col {
				if res.Col[i] != base.Col[i] {
					t.Fatalf("workers=%d row=%v: Col[%d]=%d != %d", workers, useRow, i, res.Col[i], base.Col[i])
				}
			}
			if stats.Phases != baseStats.Phases || stats.Rounds != baseStats.Rounds || stats.Bids != baseStats.Bids {
				t.Fatalf("workers=%d row=%v: stats %+v != %+v", workers, useRow, stats, baseStats)
			}
			for j, p := range stats.Prices {
				if p != baseStats.Prices[j] {
					t.Fatalf("workers=%d row=%v: price[%d]=%d != %d — final prices depend on worker count", workers, useRow, j, p, baseStats.Prices[j])
				}
			}
		}
	}
}

func TestAuctionShardedOnPhase(t *testing.T) {
	n := 24
	m := randomMatrix(n, 50, 7)
	var phases, rounds, bids int
	lastEps := int64(-1)
	res, stats := AuctionSharded(n, fn(m), AuctionOptions{
		OnPhase: func(phase int, eps int64, r, b int) {
			if phase != phases {
				t.Fatalf("phase callback out of order: got %d want %d", phase, phases)
			}
			phases++
			rounds += r
			bids += b
			lastEps = eps
		},
	})
	if phases != stats.Phases || rounds != stats.Rounds || bids != stats.Bids {
		t.Fatalf("callback totals (%d,%d,%d) != stats %+v", phases, rounds, bids, stats)
	}
	if lastEps != 1 {
		t.Fatalf("final phase eps = %d, want 1", lastEps)
	}
	if want := Exact(n, fn(m)).Total; res.Total != want {
		t.Fatalf("total %d != JV %d", res.Total, want)
	}
}

// TestAuctionShardedZeroWeights: an all-zero matrix (every matching
// optimal, every bid tied) must still terminate and produce a valid
// permutation.
func TestAuctionShardedZeroWeights(t *testing.T) {
	n := 9
	w := func(i, j int) int64 { return 0 }
	res, _ := AuctionSharded(n, w, AuctionOptions{Workers: 2})
	checkPerfect(t, n, w, res)
	if res.Total != 0 {
		t.Fatalf("total %d != 0", res.Total)
	}
}

// FuzzMatching cross-checks the sharded and blocked auctions against
// Jonker–Volgenant on fuzzer-chosen integer matrices: duplicate-heavy
// weights, tiny and odd sizes, uniform and non-uniform multipliers,
// and one to four workers, which the blocked kernel also applies as a
// forced column split of its bid scan. Any Total mismatch is a bug —
// all three algorithms are exact — and the blocked kernel must
// additionally reproduce the sharded run bit for bit at every split.
func FuzzMatching(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(6), uint8(1))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(4))
	f.Add(uint64(3), uint8(13), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, maxWRaw, workersRaw uint8) {
		n := 1 + int(nRaw)%24
		maxD := int(maxWRaw) % 16 // small range → many duplicate weights
		workers := 1 + int(workersRaw)%4
		r := rng.New(seed)
		d := make([][]uint8, n)
		for i := range d {
			d[i] = make([]uint8, n)
			for j := range d[i] {
				d[i][j] = uint8(r.Intn(maxD + 1))
			}
		}
		var h []int64
		if seed%2 == 1 {
			h = randomH(n, seed+31)
		}
		w := u8Fn(d, h)
		want := Exact(n, w).Total
		res, stats := AuctionSharded(n, w, AuctionOptions{Workers: workers})
		checkPerfect(t, n, w, res)
		if res.Total != want {
			t.Fatalf("n=%d maxD=%d workers=%d seed=%d: sharded auction total %d != JV %d",
				n, maxD, workers, seed, res.Total, want)
		}
		blk, blkStats := AuctionBlocked(n, U8Weights{Rows: u8Rows(d), H: h}, AuctionOptions{Workers: workers})
		checkPerfect(t, n, w, blk)
		requireSameRun(t, "fuzz blocked", n, blk, res, blkStats, stats)
		// The same worker count as a forced bid-scan split: these sizes sit
		// far below BidCrossover, where AuctionBlocked never splits.
		split, splitStats := auctionBlocked(n, U8Weights{Rows: u8Rows(d), H: h}, AuctionOptions{Workers: workers}, workers)
		checkPerfect(t, n, w, split)
		requireSameRun(t, fmt.Sprintf("fuzz blocked split=%d", workers), n, split, res, splitStats, stats)
	})
}
