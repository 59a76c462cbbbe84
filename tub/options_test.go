package tub

import (
	"strings"
	"testing"

	"dctopo/internal/match"
	"dctopo/obs"
	"dctopo/topo"
)

// TestBoundRejectsInvalidMatcher: garbage Matcher values fail fast with
// a descriptive error instead of falling through to the wrong matcher.
func TestBoundRejectsInvalidMatcher(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 12, Radix: 6, Servers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Matcher{-1, GreedyMatcher + 1, 99} {
		_, err := Bound(top, Options{Matcher: m})
		if err == nil {
			t.Fatalf("matcher %d: expected error", m)
		}
		if !strings.Contains(err.Error(), "invalid matcher") {
			t.Fatalf("matcher %d: unexpected error %v", m, err)
		}
	}
	// All valid matchers still work, and the result records which ran.
	for _, m := range []Matcher{AutoMatcher, ExactMatcher, AuctionMatcher, GreedyMatcher} {
		res, err := Bound(top, Options{Matcher: m})
		if err != nil {
			t.Fatalf("matcher %d: %v", m, err)
		}
		want := m
		if m == AutoMatcher {
			want = ExactMatcher // 12 hosts ≤ autoExactMax
		}
		if res.Matcher != want {
			t.Fatalf("matcher %d: Result.Matcher = %v, want %v", m, res.Matcher, want)
		}
	}
}

// TestBoundRejectsInvalidAuctionMax: a negative crossover fails fast.
func TestBoundRejectsInvalidAuctionMax(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 12, Radix: 6, Servers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Bound(top, Options{AuctionMax: -1})
	if err == nil || !strings.Contains(err.Error(), "invalid AuctionMax") {
		t.Fatalf("AuctionMax=-1: err = %v, want invalid AuctionMax", err)
	}
}

// TestBoundAuctionMaxCrossover: AuctionMax moves the Auto auction→greedy
// crossover, the fallback is counted and recorded in Result.Matcher, and
// an explicit Matcher ignores AuctionMax entirely.
func TestBoundAuctionMaxCrossover(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 80, Radix: 6, Servers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()

	// 80 hosts under the default crossover: Auto runs the exact auction.
	res, err := Bound(top, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher != AuctionMatcher {
		t.Fatalf("default crossover: Matcher = %v, want auction", res.Matcher)
	}
	if c := o.Counter("tub.match.fallback").Value(); c != 0 {
		t.Fatalf("no degradation, but fallback counter = %d", c)
	}

	// A crossover below the host count degrades Auto to greedy — counted,
	// never silent.
	res, err = Bound(top, Options{AuctionMax: 70, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher != GreedyMatcher {
		t.Fatalf("AuctionMax=70 with 80 hosts: Matcher = %v, want greedy", res.Matcher)
	}
	if c := o.Counter("tub.match.fallback").Value(); c != 1 {
		t.Fatalf("fallback counter = %d, want 1", c)
	}

	// An explicit matcher is not a degradation and ignores AuctionMax.
	res, err = Bound(top, Options{Matcher: AuctionMatcher, AuctionMax: 70, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher != AuctionMatcher {
		t.Fatalf("explicit auction: Matcher = %v", res.Matcher)
	}
	if c := o.Counter("tub.match.fallback").Value(); c != 1 {
		t.Fatalf("explicit matcher bumped the fallback counter to %d", c)
	}
}

// TestBoundBidWorkersAttr: the auction's tub.match span closes with the
// bid-scan width match.BidWorkers resolves — 1 below match.BidCrossover
// or for one worker — and the width never changes the bound.
func TestBoundBidWorkersAttr(t *testing.T) {
	switches := []int{80}
	if !testing.Short() {
		switches = append(switches, match.BidCrossover)
	}
	for _, sw := range switches {
		top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: sw, Radix: 8, Servers: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var ref int64
		for _, workers := range []int{1, 0} {
			capture := &obs.Capture{}
			res, err := Bound(top, Options{Matcher: AuctionMatcher, Workers: workers, Obs: obs.New(capture)})
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				ref = res.WeightedLen
			} else if res.WeightedLen != ref {
				t.Fatalf("switches=%d: weighted_len %d at Workers 0 != %d at Workers 1", sw, res.WeightedLen, ref)
			}
			want := int64(match.BidWorkers(len(top.Hosts()), workers))
			if sw < match.BidCrossover && want != 1 {
				t.Fatalf("switches=%d: BidWorkers = %d below the crossover", sw, want)
			}
			found := false
			for _, e := range capture.Events() {
				if e.Kind != obs.KindSpanEnd || e.Name != "tub.match" {
					continue
				}
				v, ok := e.Attr("bid_workers")
				if !ok || v != want {
					t.Fatalf("switches=%d workers=%d: bid_workers = %v (present %v), want %d", sw, workers, v, ok, want)
				}
				found = true
			}
			if !found {
				t.Fatalf("switches=%d: no tub.match span end captured", sw)
			}
		}
	}
}
