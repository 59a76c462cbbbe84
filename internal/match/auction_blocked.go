// Matrix-free blocked auction: the ε-scaling auction of AuctionSharded
// with bids that scan uint8 distance rows directly, computing the
// scaled weight in-register instead of loading a materialized int32
// row.
//
// Every matcher in this repo sees weights of one shape:
// w(i, j) = min(H_i, H_j) · D_ij with D a uint8 hop-distance matrix.
// Materializing that product as int32 multiplies the working set 4×
// (8 KB of distance row becomes 32 KB of weight row) and past
// auctionMatBudget forces a per-bid rematerialization — the wall that
// capped the exact matcher at n≈6000. A uint8 row for n=20000 is 20 KB;
// the scaled weight is one multiply (or, when H is uniform, one 256-way
// table lookup) away, which is cheaper than the cache misses the int32
// row costs.
//
// The bid kernel is additionally cache-blocked: the ≤ auctionBlock
// bidders of one round scan the price vector in auctionTile-column
// tiles, so one 32 KB price tile is loaded once and reused by every
// bidder in the block instead of being evicted between full-row scans.
// Scanning tiles in ascending column order with the running
// best/second-best carried across tiles visits candidates in exactly
// the order a full-row scan does, so the bids — and therefore the
// matching, the stats, and the final prices — are bit-identical to
// AuctionSharded on the same weights.
package match

import (
	"runtime"
	"sync"
)

// auctionTile is the number of columns one bid-scan tile covers. The
// hot tile state is the price slice (8 bytes/column): 4096 columns keep
// it at 32 KB — resident in L1d on anything current — while the block's
// ≤ 16 distance-row tiles add 4 KB each. Smaller tiles pay more loop
// overhead for no locality gain; larger ones spill the price tile.
const auctionTile = 4096

// U8Weights is the weight matrix shape shared by every matcher call
// site in this repo: w(i, j) = min(H[i], H[j]) · Rows(i)[j]. Passing
// the uint8 rows directly lets the auction bid without materializing
// any int32/int64 weight row.
type U8Weights struct {
	// Rows returns row i of the uint8 distance matrix. Only the first n
	// entries are read. The slice is borrowed: the auction holds up to
	// auctionBlock rows at once (one per bidder of the current block)
	// and releases them when the block resolves, so callers may return
	// views of a shared matrix or per-row caches that stay valid for
	// the whole run. Must be safe for concurrent calls when
	// AuctionOptions.Workers > 1 — the max-weight scan shards rows
	// across workers. The bid scan calls Rows only from the calling
	// goroutine, but from BidCrossover hosts up it reads every returned
	// row from BidWorkers goroutines at once (each scanning column
	// chunks), so a returned row must not change while the block that
	// fetched it bids.
	Rows func(i int) []uint8
	// H holds the per-row multipliers (the pairwise min is taken
	// in-register); nil means all ones.
	H []int64
}

// weightInRow returns the raw (unscaled) weight of pair (i, j) given an
// already-fetched row i.
func (uw *U8Weights) weightInRow(row []uint8, i, j int) int64 {
	d := int64(row[j])
	if uw.H == nil {
		return d
	}
	h := uw.H[i]
	if uw.H[j] < h {
		h = uw.H[j]
	}
	return d * h
}

// u8Bidder is the tiled top-2 bid kernel shared by AuctionBlocked and
// AuctionResume's U8 path. init detects the uniform-H case (every
// multiplier equal, the common one: tub fabrics usually have one server
// count) and compiles the scaled weight into a 256-entry lookup table;
// otherwise it pre-scales the per-column multipliers once so the inner
// loop is one multiply, one min and one subtract per column. With a
// bidTeam attached (see bid_split.go) each round's scan is split into
// column chunks shared with the team's helpers.
type u8Bidder struct {
	n       int
	rowsFn  func(i int) []uint8
	h       []int64
	scale   int64
	uniform bool
	wTab    *[256]int64 // uniform: wTab[d] = d·h₀·scale
	hsc     []int64     // non-uniform: hsc[j] = H[j]·scale
	rows    [auctionBlock][]uint8
	top     bidTop
	team    *bidTeam // nil: the calling goroutine scans every column
}

// bidTop is the top-2 state of one block's bidders over a column range:
// best column, best value and second-best value per bidder.
type bidTop struct {
	J    [auctionBlock]int
	V, S [auctionBlock]int64
}

// init prepares the bidder for an n-column instance. wTab and hsc are
// optional caller-owned backing (pooled arenas pass theirs); nil means
// allocate on demand for whichever path the weights select.
func (bd *u8Bidder) init(n int, uw U8Weights, wTab *[256]int64, hsc []int64) {
	bd.n = n
	bd.rowsFn = uw.Rows
	bd.h = uw.H
	bd.scale = int64(n + 1)
	bd.uniform = true
	h0 := int64(1)
	if len(uw.H) > 0 {
		h0 = uw.H[0]
		for _, v := range uw.H[1:] {
			if v != h0 {
				bd.uniform = false
				break
			}
		}
	}
	if bd.uniform {
		if wTab == nil {
			wTab = new([256]int64)
		}
		for d := range wTab {
			wTab[d] = int64(d) * h0 * bd.scale
		}
		bd.wTab, bd.hsc = wTab, nil
		return
	}
	if cap(hsc) < n {
		hsc = make([]int64, n)
	}
	hsc = hsc[:n]
	for j := 0; j < n; j++ {
		hsc[j] = uw.H[j] * bd.scale
	}
	bd.wTab, bd.hsc = nil, hsc
}

// scan computes best/second-best objects for every bidder in blk
// (len ≤ auctionBlock) against price, leaving the results in top.
// Columns run in ascending order with the running top-2 carried across
// tiles, so the outcome is exactly a full-row ascending scan's — ties
// keep the lowest column, bit for bit. With a team attached, the
// calling goroutine and the helpers scan column chunks of the round,
// and the per-chunk results merge in column order (bidTop.merge) to the
// same bit-exact outcome.
func (bd *u8Bidder) scan(blk []int, price []int64) {
	for bi, i := range blk {
		bd.rows[bi] = bd.rowsFn(i)
	}
	if bd.team != nil {
		bd.team.scan(blk, price)
		return
	}
	bd.scanRange(blk, price, 0, bd.n, &bd.top)
}

// scanRange is scan over columns [from, to) only, in auctionTile tiles
// from from, into top. It reads bd.rows, which scan fills first.
func (bd *u8Bidder) scanRange(blk []int, price []int64, from, to int, top *bidTop) {
	for bi := range blk {
		top.J[bi] = -1
		top.V[bi] = int64(-1) << 62
		top.S[bi] = int64(-1) << 62
	}
	for t0 := from; t0 < to; t0 += auctionTile {
		t1 := t0 + auctionTile
		if t1 > to {
			t1 = to
		}
		priceT := price[t0:t1]
		if bd.uniform {
			w0 := bd.wTab[1]
			for bi := range blk {
				rowT := bd.rows[bi][t0:t1]
				priceT := priceT[:len(rowT)]
				bestJ, bestV, secondV := top.J[bi], top.V[bi], top.S[bi]
				for jj, d := range rowT {
					v := int64(d)*w0 - priceT[jj]
					// Equivalent to the strict-> top-2 update, reordered so
					// both compares compile to conditional moves instead of
					// unpredictable branches.
					if v > secondV {
						secondV = v
					}
					if v > bestV {
						secondV = bestV
						bestV = v
						bestJ = t0 + jj
					}
				}
				top.J[bi], top.V[bi], top.S[bi] = bestJ, bestV, secondV
			}
			continue
		}
		hscT := bd.hsc[t0:t1]
		for bi := range blk {
			rowT := bd.rows[bi][t0:t1]
			priceT := priceT[:len(rowT)]
			hscT := hscT[:len(rowT)]
			hi := bd.h[blk[bi]] * bd.scale
			bestJ, bestV, secondV := top.J[bi], top.V[bi], top.S[bi]
			for jj, d := range rowT {
				m := hscT[jj]
				if hi < m {
					m = hi
				}
				v := int64(d)*m - priceT[jj]
				if v > bestV {
					secondV = bestV
					bestV = v
					bestJ = t0 + jj
				} else if v > secondV {
					secondV = v
				}
			}
			top.J[bi], top.V[bi], top.S[bi] = bestJ, bestV, secondV
		}
	}
}

// merge folds hi — the top-2 of the column range directly above the
// one t covers — into t for the first b bidders, with the strict->
// rule of one ascending scan over both ranges: the higher range takes
// the lead only on a strictly larger best, so ties keep the lowest
// column, and the second best is the larger of the loser's best and
// the winner's second.
func (t *bidTop) merge(b int, hi *bidTop) {
	for bi := 0; bi < b; bi++ {
		if t.V[bi] >= hi.V[bi] {
			if hi.V[bi] > t.S[bi] {
				t.S[bi] = hi.V[bi]
			}
			continue
		}
		second := t.V[bi]
		if hi.S[bi] > second {
			second = hi.S[bi]
		}
		t.J[bi], t.V[bi], t.S[bi] = hi.J[bi], hi.V[bi], second
	}
}

// csCheck reports whether row i's assignment to column jAt still
// satisfies 1-CS against price — the same arithmetic as the int64
// prefilter in AuctionResume, computed from the uint8 row.
func (bd *u8Bidder) csCheck(i, jAt int, price []int64) bool {
	row := bd.rowsFn(i)[:bd.n]
	price = price[:bd.n]
	best := int64(-1) << 62
	if bd.uniform {
		wTab := bd.wTab
		for j, d := range row {
			if v := wTab[d] - price[j]; v > best {
				best = v
			}
		}
		return wTab[row[jAt]]-price[jAt] >= best-1
	}
	hsc := bd.hsc[:len(row)]
	hi := bd.h[i] * bd.scale
	sc := func(j int) int64 {
		m := hsc[j]
		if hi < m {
			m = hi
		}
		return int64(row[j]) * m
	}
	for j := range row {
		if v := sc(j) - price[j]; v > best {
			best = v
		}
	}
	return sc(jAt)-price[jAt] >= best-1
}

// u8MaxRaw returns the maximum raw weight over the matrix, sharded
// across workers. The per-worker maxima combine with max — order
// independent — so the result, and everything the auction derives from
// it (ε schedule, bid guard), is identical for any worker count.
func u8MaxRaw(n int, uw U8Weights, workers int) int64 {
	h := uw.H
	uniform := true
	h0 := int64(1)
	if len(h) > 0 {
		h0 = h[0]
		for _, v := range h[1:] {
			if v != h0 {
				uniform = false
				break
			}
		}
	}
	if workers <= 1 {
		workers = 1
	}
	scan := func(lo int) int64 {
		if uniform {
			var md uint8
			for i := lo; i < n; i += workers {
				for _, d := range uw.Rows(i)[:n] {
					if d > md {
						md = d
					}
				}
			}
			return int64(md) * h0
		}
		m := int64(0)
		for i := lo; i < n; i += workers {
			row := uw.Rows(i)[:n]
			hi := h[i]
			for j, d := range row {
				hw := hi
				if h[j] < hw {
					hw = h[j]
				}
				if v := int64(d) * hw; v > m {
					m = v
				}
			}
		}
		return m
	}
	if workers == 1 {
		return scan(0)
	}
	maxes := make([]int64, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			maxes[wk] = scan(wk)
		}(wk)
	}
	wg.Wait()
	m := int64(0)
	for _, v := range maxes {
		if v > m {
			m = v
		}
	}
	return m
}

// blockedArena is AuctionBlocked's pooled scratch: everything whose
// lifetime ends with the call. Result.Col/Row and the Prices copy
// escape to the caller and are allocated fresh — the steady-state
// allocation count is a small constant, pinned by
// TestAuctionBlockedAllocs.
type blockedArena struct {
	price   []int64
	bidAmt  []int64
	best    []int64
	hsc     []int64
	bidObj  []int
	winner  []int
	free    []int
	touched []int
	wTab    [256]int64
	bd      u8Bidder
}

var blockedArenas = sync.Pool{New: func() interface{} { return new(blockedArena) }}

func (a *blockedArena) grow(n int) {
	if cap(a.price) < n {
		a.price = make([]int64, n)
		a.bidAmt = make([]int64, n)
		a.best = make([]int64, n)
		a.hsc = make([]int64, n)
		a.bidObj = make([]int, n)
		a.winner = make([]int, n)
		a.free = make([]int, 0, n)
	}
	if cap(a.touched) < auctionBlock {
		a.touched = make([]int, 0, auctionBlock)
	}
	a.price = a.price[:n]
	a.bidAmt = a.bidAmt[:n]
	a.best = a.best[:n]
	a.hsc = a.hsc[:n]
	a.bidObj = a.bidObj[:n]
	a.winner = a.winner[:n]
}

// AuctionBlocked computes a maximum-weight perfect matching with the
// same block-synchronous ε-scaling auction as AuctionSharded, for
// weights of the U8Weights shape, without materializing a weight
// matrix. On equal weights it reproduces AuctionSharded's run exactly:
// same matching, same stats, same final prices (the ε schedule, block
// partition, bid values and resolution order are all identical — see
// the package comment for why the tiled scan preserves them). The
// Total therefore always equals the Jonker–Volgenant optimum.
//
// Workers shards the max-weight scan and, from BidCrossover hosts up,
// each round's bid scan: BidWorkers(n, Workers) goroutines scan column
// chunks of the block's bids at once (bid_split.go) and the per-chunk
// top-2 merge in column order, while resolution stays sequential. On 2
// cores the split measured a median 1.47× at 6000 hosts and 1.52× at
// 2048 (Jellyfish, DESIGN.md); below the crossover a round is only a
// few µs of scan and the handoff ate the gain. The matching is
// identical for any worker count. opt.Row is ignored.
func AuctionBlocked(n int, uw U8Weights, opt AuctionOptions) (*Result, AuctionStats) {
	return auctionBlocked(n, uw, opt, BidWorkers(n, opt.Workers))
}

// auctionBlocked is AuctionBlocked with the bid-scan width given
// explicitly, so tests can drive the column split at any size.
func auctionBlocked(n int, uw U8Weights, opt AuctionOptions, bidWidth int) (*Result, AuctionStats) {
	var stats AuctionStats
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	a := blockedArenas.Get().(*blockedArena)
	a.grow(n)
	bd := &a.bd
	bd.init(n, uw, &a.wTab, a.hsc)
	team := bd.startTeam(bidWidth)
	defer team.stop()

	maxW := u8MaxRaw(n, uw, workers) * bd.scale
	epsStart := maxW / 2
	if epsStart < 1 {
		epsStart = 1
	}

	price := a.price
	for j := range price {
		price[j] = 0
	}
	owner := make([]int, n)  // column -> row, -1 if free; escapes as Result.Row
	assign := make([]int, n) // row -> column, -1 if free; escapes as Result.Col
	bidObj, bidAmt, best, winner := a.bidObj, a.bidAmt, a.best, a.winner
	for j := range winner {
		winner[j] = -1
	}
	free := a.free[:0]
	touched := a.touched[:0]

	for phase, eps := 0, epsStart; ; phase, eps = phase+1, eps/4 {
		if eps < 1 {
			eps = 1
		}
		for j := range owner {
			owner[j] = -1
		}
		for i := range assign {
			assign[i] = -1
		}
		free = free[:0]
		for i := 0; i < n; i++ {
			free = append(free, i)
		}
		head := 0
		phaseRounds, phaseBids := 0, 0
		for head < len(free) {
			b := auctionBlock
			if rem := len(free) - head; b > rem {
				b = rem
			}
			blk := free[head : head+b]
			phaseRounds++
			phaseBids += b
			bd.scan(blk, price)
			for bi, i := range blk {
				bestV, secondV := bd.top.V[bi], bd.top.S[bi]
				if secondV < bestV-maxW { // n == 1: no second candidate
					secondV = bestV
				}
				bidObj[i] = bd.top.J[bi]
				bidAmt[i] = bestV - secondV + eps
			}
			// Sequential resolution in block order — verbatim from
			// AuctionSharded, so ties keep the earliest bidder.
			touched = touched[:0]
			for _, i := range blk {
				j := bidObj[i]
				if winner[j] == -1 {
					touched = append(touched, j)
					best[j] = bidAmt[i]
					winner[j] = i
				} else if bidAmt[i] > best[j] {
					best[j] = bidAmt[i]
					winner[j] = i
				}
			}
			for _, j := range touched {
				i := winner[j]
				price[j] += best[j]
				if prev := owner[j]; prev >= 0 {
					assign[prev] = -1
					free = append(free, prev)
				}
				owner[j] = i
				assign[i] = j
				winner[j] = -1
			}
			for _, i := range blk {
				if assign[i] < 0 {
					free = append(free, i)
				}
			}
			head += b
			if head >= n {
				free = append(free[:0], free[head:]...)
				head = 0
			}
		}
		stats.Phases++
		stats.Rounds += phaseRounds
		stats.Bids += phaseBids
		if opt.OnPhase != nil {
			opt.OnPhase(phase, eps, phaseRounds, phaseBids)
		}
		if eps == 1 {
			break
		}
	}
	team.stop()
	a.free = free[:0] // keep any growth for the next run

	res := &Result{Col: assign, Row: owner}
	for i := 0; i < n; i++ {
		res.Total += uw.weightInRow(uw.Rows(i), i, assign[i])
	}
	stats.Prices = append([]int64(nil), price...)
	// Drop caller references (row views, closures) before pooling so the
	// arena never pins a caller's matrix alive.
	bd.rowsFn, bd.h = nil, nil
	bd.rows = [auctionBlock][]uint8{}
	blockedArenas.Put(a)
	return res, stats
}
