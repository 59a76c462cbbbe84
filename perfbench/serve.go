package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"dctopo/obs"
	"dctopo/serve"
)

// server is one in-process serve.New instance behind an httptest
// listener, driven over loopback HTTP by the benchmark's one client.
type server struct {
	id  int // set-up unit index: request identities are per server
	srv *serve.Server
	hs  *httptest.Server
}

// startServer starts a fresh service with no store (nothing persists or
// replays) and o as its instrumentation handle (nil: the service's own
// sink-less registry, as in production without -trace).
func startServer(id int, o *obs.Obs) *server {
	srv := serve.New(serve.Options{Obs: o, SyncDeadline: time.Minute})
	return &server{id: id, srv: srv, hs: httptest.NewServer(srv)}
}

// stop shuts the listener and drains the job queue; it returns once
// every goroutine the server started has ended.
func (s *server) stop() error {
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// post sends one request and returns the status, the body and whether
// the service reports the answer as replayed from its store.
func (s *server) post(path string, body []byte) (int, []byte, bool, error) {
	resp, err := s.hs.Client().Post(s.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, false, err
	}
	return resp.StatusCode, out, resp.Header.Get("X-Topobench-Cached") == "true", nil
}

// metrics reads the service's GET /metrics document.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.hs.Client().Get(s.hs.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// startServers runs the set-up unit n times, each on a fresh server,
// and keeps the last one, or in a traced run the last two: an untraced
// server for the even ops and a server instrumented with b.o for the odd
// ops. unit is timed as set-up; servers not kept are stopped at once.
func (b *bench) startServers(n int, unit func(s *server) error) (untraced, traced *server, err error) {
	for i := 0; i < n; i++ {
		var o *obs.Obs
		if b.trace && i == n-1 {
			o = b.o
		}
		var s *server
		err := b.setup(func() error {
			s = startServer(i, o)
			return unit(s)
		})
		if err != nil {
			s.stop()
			if untraced != nil {
				untraced.stop()
			}
			return nil, nil, err
		}
		switch {
		case i == n-1 && b.trace:
			traced = s
		case i == n-2 && b.trace, i == n-1:
			untraced = s
		default:
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
	}
	return untraced, traced, nil
}

// pick returns the server an op goes to.
func pick(traced bool, untracedSrv, tracedSrv *server) *server {
	if traced {
		return tracedSrv
	}
	return untracedSrv
}

// kept lists the servers that serve timed ops.
func kept(untraced, traced *server) []*server {
	if traced == nil {
		return []*server{untraced}
	}
	return []*server{untraced, traced}
}

// stopAll stops every kept server and returns their errors joined.
func stopAll(ss []*server) error {
	var errs []error
	for _, s := range ss {
		errs = append(errs, s.stop())
	}
	return errors.Join(errs...)
}
