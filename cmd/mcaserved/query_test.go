package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// FuzzQuery reads arbitrary raw query strings the way each endpoint
// reads its own. The decoder never panics; a parameter outside the
// declaration is always an error; and when err is nil every integer
// came back inside its range, every engine is non-nil and the context
// carries a deadline no later than the server maximum.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		"", "engine=sat&workers=2", "engine=simulation&runs=8&seed=-5",
		"checkpoint=1&workers=-1", "n=2&coverage=1&rounds=3&timeout=30s",
		"n=0", "rounds=2", "workers=%zz", "engine=quantum", "a=1;b=2",
		"timeout=-3s", "seed=99999999999999999999", "coverage=true&rounds=101",
	} {
		f.Add(seed)
	}
	const def, max = time.Second, time.Minute
	type intRead struct {
		name        string
		got, lo, hi int
	}
	endpoints := []struct {
		declared []string
		read     func(q *query) ([]intRead, []engine.Engine)
	}{
		{[]string{"engine", "workers", "runs", "seed", "timeout"}, func(q *query) ([]intRead, []engine.Engine) {
			return nil, []engine.Engine{q.engine(q.workers())}
		}},
		{[]string{"checkpoint", "engine", "workers", "timeout"}, func(q *query) ([]intRead, []engine.Engine) {
			q.str("engine", "auto")
			q.workers()
			return nil, nil
		}},
		{[]string{"workers", "timeout"}, func(q *query) ([]intRead, []engine.Engine) {
			q.workers()
			return nil, nil
		}},
		{[]string{"engine", "runs", "seed", "timeout"}, func(q *query) ([]intRead, []engine.Engine) {
			return nil, []engine.Engine{q.engine(0)}
		}},
		{[]string{"seed", "n", "engines", "coverage", "rounds", "timeout"}, func(q *query) ([]intRead, []engine.Engine) {
			q.int64("seed", 1, math.MinInt64, math.MaxInt64)
			n := q.int("n", 50, 1, maxGenerate)
			q.str("engines", "")
			q.bool("coverage")
			rounds := q.int("rounds", 4, 1, 100)
			return []intRead{{"n", n, 1, maxGenerate}, {"rounds", rounds, 1, 100}}, nil
		}},
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		for _, ep := range endpoints {
			q := params(r, ep.declared...)
			ints, engines := ep.read(q)
			ctx, cancel := q.context(def, max)
			deadline, ok := ctx.Deadline()
			cancel()
			for name := range r.URL.Query() {
				if !slices.Contains(ep.declared, name) && q.err == nil {
					t.Fatalf("%q read as %v: undeclared %q accepted", raw, ep.declared, name)
				}
			}
			if q.err != nil {
				continue
			}
			for _, n := range ints {
				if n.got < n.lo || n.got > n.hi {
					t.Fatalf("%q: %s = %d outside %d..%d with no error", raw, n.name, n.got, n.lo, n.hi)
				}
			}
			for _, eng := range engines {
				if eng == nil {
					t.Fatalf("%q read as %v: nil engine with no error", raw, ep.declared)
				}
			}
			if !ok || time.Until(deadline) > max {
				t.Fatalf("%q: deadline %v (set %v), want one within %v", raw, deadline, ok, max)
			}
		}
	})
}

// TestWorkersOverTheBoundAreAnErrorResult: engine.MaxWorkers is checked
// where every engine is checked, so a worker count past it — on /verify,
// on a checkpointed run and in a fleet work unit — comes back as an
// error result naming the bound, before any shard exists.
func TestWorkersOverTheBoundAreAnErrorResult(t *testing.T) {
	srv, _ := startRole(t, serverConfig{Role: "worker", DefaultTimeout: 30 * time.Second})
	over := strconv.Itoa(engine.MaxWorkers + 1)
	bound := "at most " + strconv.Itoa(engine.MaxWorkers)
	for path, body := range map[string]string{
		"/verify?engine=explicit&workers=" + over: scenarioDoc,
		"/verify?workers=" + over:                 scenarioDoc,
		"/verify?checkpoint=1&workers=" + over:    scenarioDoc,
		"/fleet/work":                             `{"version":1,"index":0,"engine":{"version":1,"kind":"explicit","workers":` + over + `},"scenario":` + scenarioDoc + `}`,
	} {
		resp := postJSON(t, srv.URL+path, body)
		data, _ := io.ReadAll(resp.Body)
		if strings.Contains(path, "checkpoint") {
			var env resumeEnvelope
			json.Unmarshal(data, &env)
			data = env.Result
		}
		res, err := engine.DecodeResult(bytes.TrimSpace(data))
		if resp.StatusCode != http.StatusOK || err != nil || res.Status != engine.StatusError || res.Err == nil || !strings.Contains(res.Err.Error(), bound) {
			t.Errorf("%s: status %d, %s (%v), want an error result naming %q", path, resp.StatusCode, data, err, bound)
		}
	}
	// The bound itself still runs.
	resp := postJSON(t, srv.URL+"/verify?engine=explicit&workers="+strconv.Itoa(engine.MaxWorkers), scenarioDoc)
	data, _ := io.ReadAll(resp.Body)
	if res, err := engine.DecodeResult(bytes.TrimSpace(data)); err != nil || res.Status != engine.StatusHolds {
		t.Fatalf("workers=%d: %s (%v)", engine.MaxWorkers, data, err)
	}
}
