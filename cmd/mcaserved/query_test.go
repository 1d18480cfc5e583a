package main

import (
	"bytes"
	"encoding/json"
	"io"
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
// declaration is always an error; and when err is nil every engine is
// non-nil, a checkpoint switch was 0, 1 or true, and the context
// carries a deadline no later than the server maximum.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		"", "engine=sat&workers=2", "engine=simulation&runs=8&seed=-5",
		"checkpoint=1&workers=-1", "checkpoint=0&engine=simulation&runs=3",
		"checkpoint=maybe", "checkpoint=1&runs=3", "workers=%zz", "engine=quantum", "a=1;b=2",
		"timeout=-3s", "seed=99999999999999999999", "checkpoint=true&engine=explicit&timeout=30s",
	} {
		f.Add(seed)
	}
	const def, max = time.Second, time.Minute
	endpoints := []struct {
		declared []string
		read     func(q *query) []engine.Engine
	}{
		{[]string{"checkpoint", "engine", "workers", "runs", "seed", "timeout"}, func(q *query) []engine.Engine {
			q.bool("checkpoint")
			return []engine.Engine{q.engine(q.workers())}
		}},
		{[]string{"checkpoint", "engine", "workers", "timeout"}, func(q *query) []engine.Engine {
			q.bool("checkpoint")
			q.str("engine", "auto")
			q.workers()
			return nil
		}},
		{[]string{"workers", "timeout"}, func(q *query) []engine.Engine {
			q.workers()
			return nil
		}},
		{[]string{"engine", "runs", "seed", "timeout"}, func(q *query) []engine.Engine {
			return []engine.Engine{q.engine(0)}
		}},
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		for _, ep := range endpoints {
			q := params(r, ep.declared...)
			engines := ep.read(q)
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
			if v := r.URL.Query().Get("checkpoint"); !slices.Contains([]string{"", "0", "1", "true"}, v) {
				t.Fatalf("%q read as %v: checkpoint %q accepted as a switch", raw, ep.declared, v)
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
