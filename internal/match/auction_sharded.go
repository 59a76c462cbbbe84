package match

import (
	"math"
	"runtime"
	"sync"
)

// auctionBlock is the number of free persons that bid concurrently
// against one snapshot of the prices. A fixed constant — not a function
// of the worker count — so the block partition, and therefore the
// matching, is identical however the bidding is sharded. The value
// trades wasted bids against parallel width: with the tie-heavy
// distance weights the matchers see, bidders in one block collide on
// the same objects and only one wins, so total bids grow with block
// size (measured on a 1000-host Jellyfish: 27.7k bids at block 1 —
// pure Gauss-Seidel — 44.6k at 16, 104k at 256). 16 keeps the bid
// count within ~1.6× of the sequential floor while still giving a
// 16-way shardable scan per round.
const auctionBlock = 16

// auctionMatBudget caps the memory spent materializing the scaled weight
// matrix (int32 entries). Within budget, a bid scans a flat prebuilt row
// — no callback, no multiply; beyond it, rows are rematerialized per bid.
const auctionMatBudget = 256 << 20

// AuctionOptions configures AuctionSharded. The zero value (serial, no
// row fast path, no phase callback) is valid.
type AuctionOptions struct {
	// Workers bounds the worker pool of the sharded scans — weight
	// materialization and the max-weight scan, plus AuctionBlocked's
	// column-split bid scan from BidCrossover hosts up; <= 0 means
	// GOMAXPROCS. The matching is identical for any worker count.
	Workers int
	// Row, when non-nil, fills out[j] = w(i, j) for every column j in one
	// call. Weight materialization then scans a filled row instead of
	// making n callback calls — the callback was the dominant cost of the
	// Gauss-Seidel auction on distance-derived weights.
	Row func(i int, out []int64)
	// OnPhase, when non-nil, is called after each ε-scaling phase with
	// the phase index (from 0), the ε it ran at, and the bidding rounds
	// and bids it took. Observability only; never changes the matching.
	OnPhase func(phase int, eps int64, rounds, bids int)
}

// AuctionStats reports how much work an AuctionSharded run did.
type AuctionStats struct {
	// Phases is the number of ε-scaling phases.
	Phases int
	// Rounds is the total number of bidding blocks resolved across
	// phases.
	Rounds int
	// Bids is the total number of bids computed (a person may bid many
	// times before holding an object through the end of its phase).
	Bids int
	// Prices holds the final per-object prices in the scaled weight
	// domain (weights × (n+1)). Together with Result.Col they are the
	// warm-start state AuctionResume picks up after a sparse weight
	// change; retaining them costs one []int64 per run.
	Prices []int64
}

// AuctionSharded computes a maximum-weight perfect matching with a
// block-synchronous ε-scaling auction. Weights must be non-negative
// integers; like Auction, weights are scaled by n+1 so the final ε = 1
// phase certifies an exact optimum — the Total always equals the
// Jonker–Volgenant optimum, though the permutation attaining it may
// differ.
//
// Bidding proceeds in blocks: the first auctionBlock free persons (in
// ascending index order) each compute their best bid against the block's
// frozen prices, and the bids are then resolved sequentially in
// ascending person order with strict comparisons, so for each object
// the highest bid wins and ties go to the lowest-indexed bidder. The
// block partition and the resolution order are pure functions of the
// free list and the frozen prices, so the matching is bit-identical for
// every worker count. Workers shards the weight materialization and the
// max-weight scan; the bids run on the calling goroutine. (A by-bidder
// bid split, gated at 64 bidders per block, could never fire with
// auctionBlock = 16 and was removed; AuctionBlocked splits each round
// by column chunks instead.)
// Bertsekas' termination argument is unaffected by within-block Jacobi
// scheduling: every resolved block raises at least one price by ≥ ε.
func AuctionSharded(n int, w WeightFunc, opt AuctionOptions) (*Result, AuctionStats) {
	var stats AuctionStats
	scale := int64(n + 1)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// rowOf materializes scaled row i into buf, via the fast path when
	// available.
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

	// Max scaled weight, sharded across workers (order-independent).
	maxW := int64(0)
	{
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
	epsStart := maxW / 2
	if epsStart < 1 {
		epsStart = 1
	}

	// Materialize the scaled matrix when it fits the budget and int32:
	// the bid scan then reads a flat row with no recomputation.
	var mat []int32
	if int64(n)*int64(n)*4 <= auctionMatBudget && maxW <= math.MaxInt32 {
		mat = make([]int32, n*n)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				buf := make([]int64, n)
				for i := wk; i < n; i += workers {
					rowOf(i, buf)
					row := mat[i*n : (i+1)*n]
					for j, ww := range buf {
						row[j] = int32(ww)
					}
				}
			}(wk)
		}
		wg.Wait()
	}

	price := make([]int64, n)
	owner := make([]int, n)  // column -> row, -1 if free
	assign := make([]int, n) // row -> column, -1 if free
	free := make([]int, 0, n)
	bidObj := make([]int, n)
	bidAmt := make([]int64, n)
	best := make([]int64, n) // per-block best bid per object
	winner := make([]int, n) // per-block winning bidder per object, -1 idle
	for j := range winner {
		winner[j] = -1
	}
	touched := make([]int, 0, n)
	// Row scratch buffer (unused when the matrix is materialized),
	// reused across blocks.
	rowBuf := make([]int64, n)

	// bid computes the best and second-best objects for free[lo:hi]
	// against the current prices. Pure reads of shared state; each bidder
	// writes only its own bidObj/bidAmt slot.
	var curEps int64
	bid := func(buf []int64, blk []int) {
		for _, i := range blk {
			bestJ, bestV, secondV := -1, int64(-1)<<62, int64(-1)<<62
			if mat != nil {
				row := mat[i*n : (i+1)*n]
				for j, ww := range row {
					v := int64(ww) - price[j]
					if v > bestV {
						secondV = bestV
						bestV = v
						bestJ = j
					} else if v > secondV {
						secondV = v
					}
				}
			} else {
				rowOf(i, buf)
				for j, ww := range buf {
					v := ww - price[j]
					if v > bestV {
						secondV = bestV
						bestV = v
						bestJ = j
					} else if v > secondV {
						secondV = v
					}
				}
			}
			if secondV < bestV-maxW { // n == 1: no second candidate
				secondV = bestV
			}
			bidObj[i] = bestJ
			bidAmt[i] = bestV - secondV + curEps
		}
	}

	for phase, eps := 0, epsStart; ; phase, eps = phase+1, eps/4 {
		if eps < 1 {
			eps = 1
		}
		curEps = eps
		// Each phase restarts the assignment but keeps the prices: an
		// ε-CS warm start (keep pairs still satisfying ε-CS at the new
		// ε) was measured to free essentially every person anyway —
		// after ε shrinks 4×, almost no pair keeps the tighter slack —
		// so it saved no bids and only added a full n-row check per
		// phase.
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
			bid(rowBuf, blk)
			// Sequential resolution in block order: strict > keeps the
			// earliest bidder on ties, independent of how the bidding was
			// sharded.
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
			// Award objects: price rises by the winning bid; the evicted
			// owner (if any) re-enters the queue.
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
			// Block members that lost their bid re-enter after the
			// evictees, in block order. The queue discipline is a pure
			// function of the resolution sequence — O(block) per round
			// where an ascending free-list rescan would cost O(n) — and
			// keeps the matching bit-identical across worker counts.
			for _, i := range blk {
				if assign[i] < 0 {
					free = append(free, i)
				}
			}
			head += b
			// Compact the drained prefix so the queue's footprint stays
			// O(n) over a phase.
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

	res := &Result{Col: assign, Row: owner}
	for i := 0; i < n; i++ {
		res.Total += w(i, res.Col[i])
	}
	stats.Prices = price
	return res, stats
}
