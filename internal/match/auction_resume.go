// Warm-started rematch: resume a finished ε-scaling auction after a
// sparse weight change instead of re-running it from scratch.
//
// A completed AuctionSharded run ends with every (person, object) pair
// satisfying 1-CS — complementary slackness with slack ε = 1 — against
// its final prices in the scaled weight domain. When only a few rows of
// the weight matrix change (a what-if query perturbs the distances of a
// handful of hosts), every unchanged row still satisfies 1-CS against
// those same prices: its weights and its object's price are untouched,
// and prices only ever rise, which can only loosen the other side of the
// inequality. The same holds for a changed row that still passes a
// direct 1-CS check against the warm prices (its entries moved, but not
// enough to beat its assignment's slack). So it suffices to free the
// changed rows that fail that check and run
// the final ε = 1 bidding loop until they are re-assigned. At
// termination all n pairs satisfy 1-CS, which with weights scaled by
// n + 1 certifies the exact optimum — the same argument that makes the
// cold auction's last phase exact, independent of its starting prices.
//
// The bidding machinery mirrors AuctionSharded's block-synchronous loop
// bit for bit (same block size, same frozen-price Jacobi bids, same
// sequential strict-> resolution), so the resumed matching is identical
// for every worker count. What the resume path deliberately skips is
// everything amortizable: the O(n²) max-weight scan (callers pass the
// bound), the weight matrix materialization, and all pre-final ε phases.
package match

import (
	"runtime"
	"sort"
	"sync"
)

// AuctionWarmStart is the retained state of a completed AuctionSharded
// run on the base weights: the final scaled prices (AuctionStats.Prices)
// and the matching (Result.Col). AuctionResume treats both as read-only.
type AuctionWarmStart struct {
	Prices []int64
	Col    []int
}

// AuctionResumeOptions configures AuctionResume. The zero value (serial,
// no row fast path, full max-weight scan, no round cap) is valid.
type AuctionResumeOptions struct {
	// Workers bounds the worker pool of the max-weight scan and, on the
	// U8 path, of the column-split bid scan from BidCrossover hosts up,
	// as in AuctionBlocked; <= 0 means GOMAXPROCS. The matching is
	// identical for any worker count.
	Workers int
	// Row, when non-nil, fills out[j] = w(i, j) for every column j in one
	// call (see AuctionOptions.Row).
	Row func(i int, out []int64)
	// ScaledRow, when non-nil, returns row i of the weight matrix with
	// every entry already multiplied by the auction's scale factor
	// (n + 1). The returned slice is borrowed: the auction only reads it
	// and only until its next ScaledRow call from the same goroutine, so
	// callers can return views of a precomputed matrix or a reused
	// buffer. This skips both the per-bid materialization and the scale
	// pass — the dominant cost when rows are cheap to cache. With
	// Workers > 1 the callback must be safe for concurrent calls.
	// Takes precedence over Row inside the bidding loop; Row (or the
	// plain WeightFunc) still serves the cold-fallback path.
	ScaledRow func(i int) []int64
	// U8, when non-nil, supplies the weights as uint8 distance rows plus
	// per-row multipliers (see U8Weights): the 1-CS prefilter and every
	// bid then compute scaled weights in-register from the uint8 rows —
	// the matrix-free path AuctionBlocked uses — instead of loading
	// int64 rows. Takes precedence over ScaledRow and Row inside the
	// bidding loop, and switches the round-cap fallback to
	// AuctionBlocked. The weights U8 describes must agree with w (w
	// still computes the Total and serves as documentation of the
	// matrix); on equal weights the resumed run is bit-identical to the
	// ScaledRow path's.
	U8 *U8Weights
	// MaxWeight is an upper bound on the raw (unscaled) weights after the
	// change; <= 0 means scan all rows, which costs the O(n²) the resume
	// path exists to avoid. An over-estimate is fine; an under-estimate
	// only dampens bids (never breaks exactness, see the bid guard).
	MaxWeight int64
	// MaxRounds caps resumed bidding rounds before giving up and
	// re-running the full cold auction; <= 0 means no cap. A cap bounds
	// the worst case of heavily damaged instances where warm prices buy
	// nothing.
	MaxRounds int
}

// ResumeStats reports what AuctionResume did.
type ResumeStats struct {
	// Freed is the number of rows released for re-bidding; Pruned counts
	// changed rows the 1-CS prefilter kept matched without bidding.
	Freed, Pruned int
	// Rounds and Bids count the resumed bidding work (on the fallback
	// path, the cold run's work).
	Rounds, Bids int
	// FellBack reports that the round cap was hit and the result comes
	// from a full cold AuctionSharded run instead.
	FellBack bool
	// Prices holds the final scaled prices of this run, usable as the
	// next warm start against the same weights.
	Prices []int64
}

// AuctionResume computes the exact maximum-weight perfect matching for
// weights w, given warm state from a completed auction on weights that
// differ from w only in the rows listed in changed (duplicates and
// order don't matter). The total always equals a cold run's; the
// permutation attaining it may differ.
func AuctionResume(n int, w WeightFunc, warm AuctionWarmStart, changed []int, opt AuctionResumeOptions) (*Result, ResumeStats) {
	scale := int64(n + 1)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	rowOf := func(i int, buf []int64) {
		if opt.Row != nil {
			opt.Row(i, buf)
			for j := range buf {
				buf[j] *= scale
			}
			return
		}
		for j := range buf {
			buf[j] = w(i, j) * scale
		}
	}

	// Matrix-free path: bids and the prefilter scan uint8 rows directly.
	var bd *u8Bidder
	if opt.U8 != nil {
		bd = new(u8Bidder)
		bd.init(n, *opt.U8, nil, nil)
	}

	price := append([]int64(nil), warm.Prices...)
	assign := append([]int(nil), warm.Col...)
	owner := make([]int, n)
	for j := range owner {
		owner[j] = -1
	}
	for i, j := range assign {
		owner[j] = i
	}

	// Candidate rows: the changed set, lowest index first (the initial
	// free-queue order is part of the deterministic block partition).
	free := append([]int(nil), changed...)
	sort.Ints(free)
	uniq := free[:0]
	for k, i := range free {
		if k > 0 && i == free[k-1] {
			continue
		}
		uniq = append(uniq, i)
	}
	free = uniq

	// 1-CS prefilter: a changed row whose current assignment still
	// satisfies 1-CS against the warm prices keeps it. Sound for the same
	// reason unchanged rows keep theirs — during the resumed bidding,
	// prices rise only on objects bid away from their owners (which
	// re-frees the owner), so a row that passes here stays 1-CS to the
	// end. Each check is one profit scan; each pruned row avoids not just
	// its own re-bid but the whole bump cascade it would trigger, which
	// is where lightly-damaged instances spend their time.
	var csBuf []int64
	if bd == nil && opt.ScaledRow == nil {
		csBuf = make([]int64, n)
	}
	st := ResumeStats{}
	violators := free[:0]
	for _, i := range free {
		if bd != nil {
			if bd.csCheck(i, assign[i], price) {
				st.Pruned++
			} else {
				violators = append(violators, i)
			}
			continue
		}
		row := csBuf
		if opt.ScaledRow != nil {
			row = opt.ScaledRow(i)
		} else {
			rowOf(i, csBuf)
		}
		best := int64(-1) << 62
		for j, ww := range row {
			if v := ww - price[j]; v > best {
				best = v
			}
		}
		if j := assign[i]; row[j]-price[j] >= best-1 {
			st.Pruned++
			continue
		}
		violators = append(violators, i)
	}
	free = violators
	st.Freed = len(free)
	for _, i := range free {
		owner[assign[i]] = -1
		assign[i] = -1
	}

	maxW := opt.MaxWeight * scale
	if opt.MaxWeight <= 0 && bd != nil {
		maxW = u8MaxRaw(n, *opt.U8, workers) * scale
	} else if opt.MaxWeight <= 0 {
		// No hint: pay the sharded scan the cold path does.
		maxes := make([]int64, workers)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				buf := make([]int64, n)
				m := int64(0)
				for i := wk; i < n; i += workers {
					rowOf(i, buf)
					for _, ww := range buf {
						if ww > m {
							m = ww
						}
					}
				}
				maxes[wk] = m
			}(wk)
		}
		wg.Wait()
		for _, m := range maxes {
			if m > maxW {
				maxW = m
			}
		}
	}

	bidObj := make([]int, n)
	bidAmt := make([]int64, n)
	best := make([]int64, n)
	winner := make([]int, n)
	for j := range winner {
		winner[j] = -1
	}
	touched := make([]int, 0, auctionBlock)
	var rowBuf []int64
	if bd == nil && opt.ScaledRow == nil {
		rowBuf = make([]int64, n)
	}

	// bid mirrors AuctionSharded's: best/second-best against the block's
	// frozen prices, ε = 1. The maxW guard caps pathological spreads the
	// warm prices can produce; a damped bid keeps ε-CS (the price still
	// rises by ≥ ε), so a too-small MaxWeight hint costs rounds, never
	// exactness.
	bid := func(buf []int64, blk []int) {
		for _, i := range blk {
			bestJ, bestV, secondV := -1, int64(-1)<<62, int64(-1)<<62
			row := buf
			if opt.ScaledRow != nil {
				row = opt.ScaledRow(i)
			} else {
				rowOf(i, buf)
			}
			for j, ww := range row {
				v := ww - price[j]
				if v > bestV {
					secondV = bestV
					bestV = v
					bestJ = j
				} else if v > secondV {
					secondV = v
				}
			}
			if secondV < bestV-maxW {
				secondV = bestV
			}
			bidObj[i] = bestJ
			bidAmt[i] = bestV - secondV + 1 // ε = 1
		}
	}

	var team *bidTeam
	if bd != nil {
		team = bd.startTeam(BidWorkers(n, opt.Workers))
		defer team.stop()
	}
	head := 0
	for head < len(free) {
		if opt.MaxRounds > 0 && st.Rounds >= opt.MaxRounds {
			team.stop()
			// Warm prices aren't converging; the cold auction's ε schedule
			// handles heavy damage better. Deterministic: depends only on
			// the round count, which is worker-independent.
			var res *Result
			var cold AuctionStats
			if opt.U8 != nil {
				res, cold = AuctionBlocked(n, *opt.U8, AuctionOptions{Workers: opt.Workers})
			} else {
				res, cold = AuctionSharded(n, w, AuctionOptions{Workers: opt.Workers, Row: opt.Row})
			}
			st.FellBack = true
			st.Rounds += cold.Rounds
			st.Bids += cold.Bids
			st.Prices = cold.Prices
			return res, st
		}
		b := auctionBlock
		if rem := len(free) - head; b > rem {
			b = rem
		}
		blk := free[head : head+b]
		st.Rounds++
		st.Bids += b
		if bd != nil {
			bd.scan(blk, price)
			for bi, i := range blk {
				bestV, secondV := bd.top.V[bi], bd.top.S[bi]
				if secondV < bestV-maxW {
					secondV = bestV
				}
				bidObj[i] = bd.top.J[bi]
				bidAmt[i] = bestV - secondV + 1 // ε = 1
			}
		} else {
			bid(rowBuf, blk)
		}
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

	res := &Result{Col: assign, Row: owner}
	for i := 0; i < n; i++ {
		res.Total += w(i, res.Col[i])
	}
	st.Prices = price
	return res, st
}
