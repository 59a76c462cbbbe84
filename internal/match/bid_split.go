// Column-split bidding: each auction round's frozen-price bid scan is
// cut into contiguous column chunks that the calling goroutine and its
// helper goroutines claim one at a time. Every chunk's top-2 results
// merge in column order with the strict-> rule of one ascending scan
// (bidTop.merge), so every bid — and with sequential resolution the
// matching, the stats and the final prices — is bit-identical to a
// one-goroutine scan, whichever goroutine scanned which chunk.
//
// Rounds are short (about 100 µs of scan at 6000 hosts, tens of µs
// near BidCrossover) and there are tens of thousands of them, so the
// handoff cannot afford a park and wake-up per round: every wait spins
// on an atomic first, for about two chunks' scan time, and parks on a
// channel only past that. The caller never waits for a chunk nobody
// has started — it claims chunks too — so a round does not stall on a
// helper the OS has not scheduled; and the short spins leave the core
// to other work when the host is oversubscribed. (Fixed per-goroutine
// ranges and round-long spins ran 0.3× the serial scan with two
// such processes on two cores; see DESIGN.md.) The helpers live for
// one matcher call (bidTeam.stop joins them).
package match

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// BidCrossover is the host count from which AuctionBlocked and
// AuctionResume's uint8 path split each round's bid scan across
// workers. Below it a round is too short to pay for the handoff. The
// measured sweep (DESIGN.md, Jellyfish R=16 H=8, 2 cores) lost at 256
// hosts, was mixed at 512 and won from 1024 up.
const BidCrossover = 1024

// bidChunksPerWorker is how many column chunks each round is cut into
// per goroutine of the split: enough that the caller can take over the
// share of a helper that has not started, few enough that a chunk is
// still thousands of column scans.
const bidChunksPerWorker = 4

// bidSpinMin is the floor of the spin budget, and the budget before the
// first round has been timed: about one round's serial scan at
// BidCrossover hosts. Without it a helper parks after every short round
// (a phase's tail blocks hold only a few bidders) and the next round
// pays a wake-up; the 512-host sweep point parked in half its rounds.
const bidSpinMin = 20 * time.Microsecond

// BidWorkers returns the number of goroutines that scan each bid round
// of an n-host auction asked to use workers (<= 0 means GOMAXPROCS):
// 1 below BidCrossover, otherwise workers capped at GOMAXPROCS (a
// spinning handoff gains nothing without a core per goroutine) and at
// one worker per BidCrossover/2 columns. The matching does not depend
// on it.
func BidWorkers(n, workers int) int {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > procs {
		workers = procs
	}
	if n < BidCrossover || workers < 2 {
		return 1
	}
	if m := n / (BidCrossover / 2); workers > m {
		workers = m
	}
	return workers
}

// bidHelper is one helper goroutine's parking spot.
type bidHelper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// bidTeam runs one bidder's column-split scans: chunk k covers columns
// [k·n/K, (k+1)·n/K) of K = len(tops) and leaves its top-2 in tops[k].
type bidTeam struct {
	bd      *u8Bidder
	tops    []bidTop
	helpers []bidHelper

	// Round inputs, written before work announces the round.
	blk   []int
	price []int64

	// work packs the round number (high 32 bits) with the next
	// unclaimed chunk (low 32 bits). A claim is a CAS on the whole word,
	// so a goroutine that slept through a round can never claim a chunk
	// of the next one by mistake.
	work   atomic.Uint64
	quit   atomic.Bool
	done   atomic.Int32 // chunks of the current round scanned
	spinNs atomic.Int64 // spin budget: two chunks' scan time
	wg     sync.WaitGroup

	// The caller's parking spot while helpers finish their chunks.
	parked atomic.Bool
	wake   chan struct{}

	stopped bool
}

// startTeam attaches a team of width-1 helpers (width capped at n) to
// bd and returns it; width <= 1 attaches none and returns nil. The
// caller must stop the team before bd is reused.
func (bd *u8Bidder) startTeam(width int) *bidTeam {
	if width > bd.n {
		width = bd.n
	}
	if width <= 1 {
		return nil
	}
	chunks := min(width*bidChunksPerWorker, bd.n)
	t := &bidTeam{
		bd:      bd,
		tops:    make([]bidTop, chunks),
		helpers: make([]bidHelper, width-1),
		wake:    make(chan struct{}, 1),
	}
	t.spinNs.Store(int64(bidSpinMin))
	t.wg.Add(len(t.helpers))
	for k := range t.helpers {
		h := &t.helpers[k]
		h.wake = make(chan struct{}, 1)
		go t.help(h)
	}
	bd.team = t
	return t
}

// scan is u8Bidder.scan split across the team: announce the round,
// scan chunks alongside the helpers, wait for the chunks they hold,
// merge every chunk in column order into bd.top. bd.rows must already
// hold the block's rows.
func (t *bidTeam) scan(blk []int, price []int64) {
	t.blk, t.price = blk, price
	t.done.Store(0)
	round := t.round() + 1
	t.work.Store(uint64(round) << 32)
	for k := range t.helpers {
		t.helpers[k].unpark()
	}

	start := time.Now()
	if mine := t.scanChunks(round); mine > 0 {
		perChunk := int64(time.Since(start)) / int64(mine)
		t.spinNs.Store(max(2*perChunk, int64(bidSpinMin)))
	}
	all := int32(len(t.tops))
	for t.done.Load() != all {
		if spin(t.spinNs.Load(), func() bool { return t.done.Load() == all }) {
			break
		}
		// A token can arrive early here too (see awaitRound): the loop
		// rechecks done after every wake-up.
		t.parked.Store(true)
		if t.done.Load() == all && t.parked.CompareAndSwap(true, false) {
			break
		}
		<-t.wake
	}

	bd := t.bd
	bd.top = t.tops[0]
	for k := 1; k < len(t.tops); k++ {
		bd.top.merge(len(blk), &t.tops[k])
	}
}

// scanChunks claims and scans chunks of round until none is left,
// returning how many this goroutine scanned. The goroutine that
// finishes a round's last chunk wakes a parked caller and then yields
// its core, where the woken caller is queued.
func (t *bidTeam) scanChunks(round uint32) int {
	cols, chunks := t.bd.n, len(t.tops)
	scanned := 0
	for {
		w := t.work.Load()
		k := int(uint32(w))
		if uint32(w>>32) != round || k >= chunks {
			return scanned
		}
		if !t.work.CompareAndSwap(w, w+1) {
			continue
		}
		t.bd.scanRange(t.blk, t.price, k*cols/chunks, (k+1)*cols/chunks, &t.tops[k])
		scanned++
		if t.done.Add(1) == int32(chunks) && t.parked.CompareAndSwap(true, false) {
			t.wake <- struct{}{}
			runtime.Gosched()
		}
	}
}

// help is a helper goroutine's loop: wait for a round, scan chunks.
func (t *bidTeam) help(h *bidHelper) {
	defer t.wg.Done()
	var seen uint32
	for {
		seen = t.awaitRound(h, seen)
		if t.quit.Load() {
			return
		}
		t.scanChunks(seen)
	}
}

// round returns the number of the round work currently announces.
func (t *bidTeam) round() uint32 { return uint32(t.work.Load() >> 32) }

// awaitRound returns the first round number after seen: spinning
// first, then parked on h.wake. A caller that finds the helper parked
// claims the wake-up by clearing parked (bidHelper.unpark), so every
// token sent is received exactly once. A token can still arrive early:
// the caller announcing round seen may reach this helper's flag only
// after the helper has scanned that round and parked for the next one.
// So a woken helper rechecks the round and waits again if it has not
// moved.
func (t *bidTeam) awaitRound(h *bidHelper, seen uint32) uint32 {
	for {
		var r uint32
		if spin(t.spinNs.Load(), func() bool { r = t.round(); return r != seen }) {
			return r
		}
		h.parked.Store(true)
		if r := t.round(); r != seen && h.parked.CompareAndSwap(true, false) {
			return r
		}
		<-h.wake
		if r := t.round(); r != seen {
			return r
		}
	}
}

// unpark wakes the helper if it is parked.
func (h *bidHelper) unpark() {
	if h.parked.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
	}
}

// spin polls ready until it reports true (and returns true) or budgetNs
// has passed (false), reading the clock once every 64 polls.
func spin(budgetNs int64, ready func() bool) bool {
	start := time.Now()
	for i := 0; ; i++ {
		if ready() {
			return true
		}
		if i&63 == 63 && time.Since(start).Nanoseconds() > budgetNs {
			return false
		}
	}
}

// stop ends the helpers and waits for them to exit. It is idempotent
// and a no-op on a nil team, so callers may both defer it (covering a
// panicking Rows callback) and call it before releasing the bidder.
func (t *bidTeam) stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.quit.Store(true)
	// Announce a round with no chunks left to claim.
	t.work.Store(uint64(t.round()+1)<<32 | uint64(len(t.tops)))
	for k := range t.helpers {
		t.helpers[k].unpark()
	}
	t.wg.Wait()
	t.bd.team = nil
}
