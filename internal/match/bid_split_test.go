// Bit-identity of the column-split bid scan: for every split width the
// blocked auction must return the same permutation, stats and final
// prices as a one-goroutine scan, and no helper goroutine may outlive
// the call.
package match

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// requireNoLeakedGoroutines fails if the goroutine count does not fall
// back to before within a short grace period (a joined helper may still
// be counted for an instant after its WaitGroup.Done).
func requireNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before: a bid helper outlived AuctionBlocked", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// allWorkers and allWidths are the default checkSplitWidths
// dimensions: the public Workers values, and forced split widths so the
// split runs whatever the host's core count and n.
var (
	allWorkers = []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	allWidths  = []int{2, 3}
)

// checkSplitWidths runs the blocked auction on uw at each public
// Workers value and each forced split width, and requires every run to
// equal the serial Workers: 1 one.
func checkSplitWidths(t *testing.T, label string, n int, uw U8Weights, workers, widths []int) {
	t.Helper()
	before := runtime.NumGoroutine()
	ref, refSt := auctionBlocked(n, uw, AuctionOptions{Workers: 1}, 1)
	for _, w := range workers {
		res, st := AuctionBlocked(n, uw, AuctionOptions{Workers: w})
		requireSameRun(t, fmt.Sprintf("%s workers=%d", label, w), n, res, ref, st, refSt)
	}
	for _, width := range widths {
		res, st := auctionBlocked(n, uw, AuctionOptions{Workers: width}, width)
		requireSameRun(t, fmt.Sprintf("%s width=%d", label, width), n, res, ref, st, refSt)
	}
	requireNoLeakedGoroutines(t, before)
}

// TestAuctionBlockedSplitSmall drives the split at sizes far below
// BidCrossover, down to one column per chunk. Small enough for -short,
// so the -race run covers the handoff.
func TestAuctionBlockedSplitSmall(t *testing.T) {
	for _, n := range []int{2, 3, 5, 16, 17, 100, 257} {
		for seed := uint64(1); seed <= 2; seed++ {
			m := u8Matrix(n, 9, seed)
			checkSplitWidths(t, fmt.Sprintf("n=%d seed=%d uniform", n, seed), n, U8Weights{Rows: u8Rows(m)}, allWorkers, allWidths)
			checkSplitWidths(t, fmt.Sprintf("n=%d seed=%d non-uniform", n, seed), n, U8Weights{Rows: u8Rows(m), H: randomH(n, seed+7)}, allWorkers, allWidths)
		}
	}
}

// TestAuctionBlockedSplitLarge covers both sides of BidCrossover and
// the tile and split edges: one tile minus a column, exactly a tile,
// one column past it, and two full tiles, where a two-way split lands
// exactly on the tile edge. Uniform and non-uniform multipliers. Each
// run above a tile takes seconds, so those sizes check the host's full
// width and one forced width instead of every combination.
func TestAuctionBlockedSplitLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-host auctions are too large for -short")
	}
	procs := []int{runtime.GOMAXPROCS(0)}
	for _, c := range []struct {
		n               int
		nonUniform      bool
		workers, widths []int
	}{
		{BidCrossover - 1, true, allWorkers, allWidths},
		{BidCrossover, true, allWorkers, allWidths},
		{auctionTile - 1, false, procs, []int{3}},
		{auctionTile, false, procs, []int{3}},
		{auctionTile + 1, true, procs, []int{3}},
		{2 * auctionTile, false, nil, []int{2}},
	} {
		m := u8Matrix(c.n, 6, uint64(c.n))
		checkSplitWidths(t, fmt.Sprintf("n=%d uniform", c.n), c.n, U8Weights{Rows: u8Rows(m)}, c.workers, c.widths)
		if c.nonUniform {
			checkSplitWidths(t, fmt.Sprintf("n=%d non-uniform", c.n), c.n, U8Weights{Rows: u8Rows(m), H: randomH(c.n, 3)}, c.workers, c.widths)
		}
	}
}

// TestAuctionBlockedSplitAllTies: every weight equal, so every column
// ties in every round and the lowest one must win across each split
// point, exactly as in a one-goroutine scan.
func TestAuctionBlockedSplitAllTies(t *testing.T) {
	sizes := []int{9, 64, 130}
	if !testing.Short() {
		sizes = append(sizes, BidCrossover+3)
	}
	for _, n := range sizes {
		m := make([][]uint8, n)
		for i := range m {
			m[i] = make([]uint8, n)
			for j := range m[i] {
				m[i][j] = 3
			}
		}
		checkSplitWidths(t, fmt.Sprintf("all-ties n=%d", n), n, U8Weights{Rows: u8Rows(m)}, allWorkers, allWidths)
	}
}

// TestBidTopMerge pins the merge rule on hand-built ranges: a tie
// between the two ranges keeps the low column with second = best; a
// strictly larger high best takes the lead with second = max(low best,
// high second); an empty high range changes nothing.
func TestBidTopMerge(t *testing.T) {
	const none = int64(-1) << 62
	for _, c := range []struct {
		name                     string
		lo, hi                   [3]int64 // J, V, S
		wantJ, wantV, wantSecond int64
	}{
		{"tie keeps low column", [3]int64{3, 10, 4}, [3]int64{7, 10, 9}, 3, 10, 10},
		{"low wins, high best is second", [3]int64{3, 10, 4}, [3]int64{7, 8, 2}, 3, 10, 8},
		{"low wins, low second stays", [3]int64{3, 10, 9}, [3]int64{7, 8, 2}, 3, 10, 9},
		{"high wins, low best is second", [3]int64{3, 10, 4}, [3]int64{7, 12, 5}, 7, 12, 10},
		{"high wins, high second stays", [3]int64{3, 10, 4}, [3]int64{7, 12, 11}, 7, 12, 11},
		{"empty high range", [3]int64{3, 10, 4}, [3]int64{-1, none, none}, 3, 10, 4},
	} {
		var lo, hi bidTop
		lo.J[0], lo.V[0], lo.S[0] = int(c.lo[0]), c.lo[1], c.lo[2]
		hi.J[0], hi.V[0], hi.S[0] = int(c.hi[0]), c.hi[1], c.hi[2]
		lo.merge(1, &hi)
		if int64(lo.J[0]) != c.wantJ || lo.V[0] != c.wantV || lo.S[0] != c.wantSecond {
			t.Errorf("%s: got (%d, %d, %d), want (%d, %d, %d)", c.name, lo.J[0], lo.V[0], lo.S[0], c.wantJ, c.wantV, c.wantSecond)
		}
	}
}

// TestBidScanTieAcrossSplit scans one bidder whose row has its maximum
// at columns 4 and 5, which every split width here puts in different
// chunks (4 is the last column of one, 5 the first of the next): the
// split scan must pick column 4, with the tied value as second best,
// as the serial scan does.
func TestBidScanTieAcrossSplit(t *testing.T) {
	const n = 10
	row := []uint8{1, 2, 1, 1, 5, 5, 1, 2, 1, 1}
	price := make([]int64, n)
	for _, h := range [][]int64{nil, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, {1, 3, 2, 2, 2, 2, 4, 1, 2, 3}} {
		var want bidTop
		for _, width := range []int{1, 2, 3, n} {
			bd := new(u8Bidder)
			bd.init(n, U8Weights{Rows: func(int) []uint8 { return row }, H: h}, nil, nil)
			team := bd.startTeam(width)
			bd.scan([]int{0}, price)
			team.stop()
			if width == 1 {
				want = bd.top
				if want.J[0] != 4 || want.S[0] != want.V[0] {
					t.Fatalf("h=%v serial scan: best column %d, best %d, second %d; want column 4 with a tied second", h, want.J[0], want.V[0], want.S[0])
				}
				continue
			}
			if bd.top.J[0] != want.J[0] || bd.top.V[0] != want.V[0] || bd.top.S[0] != want.S[0] {
				t.Fatalf("h=%v width=%d: (%d, %d, %d) != serial (%d, %d, %d)", h, width,
					bd.top.J[0], bd.top.V[0], bd.top.S[0], want.J[0], want.V[0], want.S[0])
			}
		}
	}
}

// TestBidWorkers pins the width rule: serial below BidCrossover or for
// one worker, never wider than GOMAXPROCS, and at most one worker per
// BidCrossover/2 columns.
func TestBidWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, workers int }{
		{BidCrossover - 1, 8}, {BidCrossover, 1}, {BidCrossover, 2}, {BidCrossover, 64},
		{6000, 0}, {6000, 2}, {6000, 64}, {100000, 64},
	} {
		got := BidWorkers(c.n, c.workers)
		want := c.workers
		if want <= 0 || want > procs {
			want = procs
		}
		if m := c.n / (BidCrossover / 2); want > m {
			want = m
		}
		if c.n < BidCrossover || want < 1 {
			want = 1
		}
		if got != want {
			t.Errorf("BidWorkers(%d, %d) = %d, want %d", c.n, c.workers, got, want)
		}
	}
}

// TestAuctionResumeU8Split: the warm resume's uint8 path shares the
// split scan; its matching, work and prices must not depend on Workers.
func TestAuctionResumeU8Split(t *testing.T) {
	if testing.Short() {
		t.Skip("a resume above BidCrossover is too large for -short")
	}
	n := BidCrossover + 40
	base := u8Matrix(n, 6, 11)
	warmRes, warmSt := AuctionBlocked(n, U8Weights{Rows: u8Rows(base)}, AuctionOptions{Workers: 1})
	changed := []int{3, 500, 1030}
	pert := perturbU8Rows(base, changed, 6, 12)
	run := func(workers int) (*Result, ResumeStats) {
		return AuctionResume(n, u8Fn(pert, nil), AuctionWarmStart{Prices: warmSt.Prices, Col: warmRes.Col}, changed,
			AuctionResumeOptions{Workers: workers, U8: &U8Weights{Rows: u8Rows(pert)}})
	}
	before := runtime.NumGoroutine()
	ref, refSt := run(1)
	res, st := run(runtime.GOMAXPROCS(0))
	if st.Rounds != refSt.Rounds || st.Bids != refSt.Bids || st.Freed != refSt.Freed || st.FellBack != refSt.FellBack {
		t.Fatalf("resume work %+v != serial %+v", st, refSt)
	}
	requireSameRun(t, "resume", n, res, ref, AuctionStats{Prices: st.Prices}, AuctionStats{Prices: refSt.Prices})
	requireNoLeakedGoroutines(t, before)
}
