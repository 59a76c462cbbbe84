package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dctopo/expt"
	"dctopo/internal/rng"
	"dctopo/obs"
)

// expt-cold: synchronous POST /v1/experiments/{id} requests to a fresh
// service with no store, cycling through the light registry
// experiments. Every timed request carries its own seed, so no request
// is coalesced or answered from a cache: each runs the driver through
// expt.Execute, the Runner, the Memo and the job queue. The parameters
// are the small ones the golden files record (tens of milliseconds per
// request), so per-call overhead shows here and the big kernels do not
// dominate.
const (
	exptSetups = 5
	// exptRoundRate is rounds (one request per experiment) per second.
	exptRoundRate = 2.5
	exptMinRounds = 4
)

// exptCase is one experiment's request parameters; Seed is set per
// request. golden names the expt/testdata file the default-seed
// (Seed 1) answer must match byte for byte, if there is one.
type exptCase struct {
	id     string
	params map[string]interface{}
	golden string
}

var exptCases = []exptCase{
	{"tab3", map[string]interface{}{"Radix": 32, "Servers": []int{8, 7}, "MaxN": 1 << 30, "BBWProbeSwitches": []int{64, 128}}, "tab3_small.golden"},
	{"fig4", map[string]interface{}{"Radix": 8, "Servers": 3, "Switches": []int{16, 24}, "K": 4}, "fig4_small.golden"},
	{"fig9", map[string]interface{}{"Servers": 256, "Radix": 12, "MinH": 2}, "fig9_small.golden"},
	{"figA1", map[string]interface{}{"Radix": 16, "Servers": 4, "Switches": []int{32, 256}, "Slack": 1}, "figA1_small.golden"},
	{"figA2", map[string]interface{}{"FatTreeK": []int{4, 8}}, "figA2_small.golden"},
	{"figA5", map[string]interface{}{"Radix": 8, "Servers": 3, "Switches": []int{24}, "KList": []int{1, 8}}, "figA5_small.golden"},
	{"routing", map[string]interface{}{"Family": "jellyfish", "Radix": 8, "Servers": 3, "Switches": []int{16, 24}, "K": 4}, "routing_small.golden"},
	{"ablation", map[string]interface{}{"Switches": 100, "MCFSwitches": 24}, ""},
	{"whatif", map[string]interface{}{"Switches": 100}, ""},
}

// exptIDs names the experiments expt-cold requests, in request order.
var exptIDs = func() []string {
	ids := make([]string, len(exptCases))
	for i, c := range exptCases {
		ids[i] = c.id
	}
	return ids
}()

// body renders the request document with the given seed.
func (c exptCase) body(seed uint64) []byte {
	p := map[string]interface{}{"Seed": seed}
	for k, v := range c.params {
		p[k] = v
	}
	b, _ := json.Marshal(p)
	return b
}

func runExpt(b *bench) error {
	goldens := map[string][]byte{}
	for _, c := range exptCases {
		if c.golden == "" {
			continue
		}
		g, err := os.ReadFile(filepath.Join("expt", "testdata", c.golden))
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		goldens[c.id] = g
	}
	request := func(s *server, c exptCase, seed uint64, format string) ([]byte, error) {
		body := c.body(seed)
		b.claim(fmt.Sprintf("%d|%s|%s|%s", s.id, c.id, body, format))
		status, out, cached, err := s.post("/v1/experiments/"+c.id+"?deadline=1m"+format, body)
		switch {
		case err != nil:
			return nil, err
		case status != http.StatusOK:
			// 202 (converted to async) and 429 (refused) count as failed.
			return nil, fmt.Errorf("%s seed %d: status %d: %s", c.id, seed, status, out)
		case cached:
			return nil, fmt.Errorf("%s seed %d: answered from the store", c.id, seed)
		}
		return out, nil
	}
	// decode checks a JSON payload through the registry's own decoder and
	// renders it.
	decode := func(c exptCase, payload []byte) error {
		e, ok := expt.Lookup(c.id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", c.id)
		}
		r, err := e.Decode(payload)
		if err != nil {
			return fmt.Errorf("%s: decode: %w", c.id, err)
		}
		if len(r.Tables()) == 0 || r.Tables()[0].String() == "" {
			return fmt.Errorf("%s: result renders no table", c.id)
		}
		return nil
	}
	// Set-up unit: start a service and run one round at the default
	// seed; the answers must match the golden files byte for byte.
	untraced, traced, err := b.startServers(exptSetups, func(s *server) error {
		for _, c := range exptCases {
			b.attempted++
			format := "&format=tables"
			if c.golden == "" {
				format = ""
			}
			out, err := request(s, c, 1, format)
			switch {
			case err != nil:
			case c.golden != "" && string(out) != string(goldens[c.id]):
				err = fmt.Errorf("%s: tables differ from expt/testdata/%s", c.id, c.golden)
			case c.golden == "":
				err = decode(c, out)
			}
			if err != nil {
				b.fail(-1, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	servers := kept(untraced, traced)
	defer func() {
		if err := stopAll(servers); err != nil {
			b.violate("server shutdown: " + err.Error())
		}
	}()
	b.record["warmup_ops"] = fmt.Sprintf("%d set-up rounds of %d golden requests", exptSetups, len(exptCases))

	var before map[string]float64
	if traced != nil {
		if before, err = traced.metrics(); err != nil {
			return err
		}
	}
	rounds := b.opCount(exptRoundRate, exptMinRounds)
	b.record["instances"] = fmt.Sprintf("%d rounds x %d experiments, one seed per request", rounds, len(exptCases))
	n := rounds * len(exptCases)
	r := rng.New(b.seed)
	b.measure("POST /v1/experiments", n, false, func(op int, isTraced bool, _ *obs.Obs) (func() error, error) {
		c := exptCases[op%len(exptCases)]
		// Seeds stay below 2^31 and above 1, so they are never the
		// golden seed and fit every driver's arithmetic.
		seed := 2 + r.Uint64()%(1<<31)
		out, err := request(pick(isTraced, untraced, traced), c, seed, "")
		if err != nil {
			return nil, err
		}
		return func() error { return decode(c, out) }, nil
	})

	for _, s := range servers {
		m, err := s.metrics()
		if err != nil {
			return err
		}
		for _, k := range []string{"serve.jobs.coalesced", "serve.jobs.cachehits", "expt.store.hits", "serve.jobs.rejected"} {
			if m[k] != 0 {
				b.violate(fmt.Sprintf("%s = %v, want 0", k, m[k]))
			}
		}
	}
	if traced == nil {
		return nil
	}
	after, err := traced.metrics()
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	b.layer["serve.jobs.coalesced"] = after["serve.jobs.coalesced"]
	b.layer["expt.store.hits"] = after["expt.store.hits"]
	b.layer["expt.memo.hits"] = delta("expt.memo.hits")
	var waitMs, waits float64
	for k := range after {
		if name, ok := strings.CutSuffix(k, ".wait.sum_ms"); ok {
			waitMs += delta(k)
			waits += delta(name + ".wait.count")
		}
	}
	if waits > 0 {
		b.layer["expt.runner.wait_ms"] = waitMs / waits
	}
	// Queue wait: from the request leaving the client to the driver's
	// root span starting (HTTP in, admission, the job queue hand-off).
	// HTTP overhead: the rest of the client's time outside that span.
	var queue, overhead []float64
	spans := b.spans()
	for _, op := range b.tracedOps() {
		for _, sp := range spans {
			if strings.HasPrefix(sp.name, "expt.") && within(op, sp.start, sp.end) {
				q := sp.start.Sub(op.start)
				queue = append(queue, float64(q)/1e6)
				overhead = append(overhead, float64(op.dur-q-sp.end.Sub(sp.start))/1e6)
				break
			}
		}
	}
	b.layer["serve.queue_wait_ms"] = median(queue)
	b.layer["serve.http_overhead_ms"] = median(overhead)
	var builds []time.Duration
	for _, sp := range spans {
		if sp.name == "topo.build" && inAny(b.tracedOps(), sp.start, sp.end) {
			builds = append(builds, sp.end.Sub(sp.start))
		}
	}
	b.layer["topo.build_ms"] = median(millis(builds))
	return nil
}
