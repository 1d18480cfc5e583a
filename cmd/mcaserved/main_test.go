package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
)

const scenarioDoc = `{
  "version": 1,
  "name": "served-demo",
  "agents": [
    {"id": 0, "items": 2, "base": [10, 15],
     "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
    {"id": 1, "items": 2, "base": [15, 10],
     "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}}
  ],
  "graph": {"nodes": 2, "edges": [{"u": 0, "v": 1}]}
}`

const oscillatingDoc = `{
  "version": 1,
  "name": "served-oscillation",
  "agents": [
    {"id": 0, "items": 2, "base": [10, 15],
     "policy": {"target": 2, "utility": {"kind": "non-submodular-synergy"}, "release_outbid": true, "rebid": "on-change"}},
    {"id": 1, "items": 2, "base": [15, 10],
     "policy": {"target": 2, "utility": {"kind": "non-submodular-synergy"}, "release_outbid": true, "rebid": "on-change"}}
  ],
  "graph": {"nodes": 2, "edges": [{"u": 0, "v": 1}]}
}`

const sweepRequest = `{
  "version": 1,
  "name": "served-sweep",
  "base": {
    "name": "base",
    "agents": [
      {"id": 0, "items": 2, "base": [10, 15],
       "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
      {"id": 1, "items": 2, "base": [15, 10],
       "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}}
    ],
    "graph": {"nodes": 2, "edges": [{"u": 0, "v": 1}]}
  },
  "axes": [
    {"axis": "policy", "variants": [
      {"name": "honest", "scenario": {}},
      {"name": "greedy", "scenario": {"agents": [
        {"id": 0, "items": 2, "base": [10, 15],
         "policy": {"target": 2, "utility": {"kind": "non-submodular-synergy"}, "release_outbid": true, "rebid": "on-change"}},
        {"id": 1, "items": 2, "base": [15, 10],
         "policy": {"target": 2, "utility": {"kind": "non-submodular-synergy"}, "release_outbid": true, "rebid": "on-change"}}
      ]}}
    ]},
    {"axis": "mode", "variants": [
      {"name": "plain", "scenario": {}},
      {"name": "dup", "scenario": {"explore": {"duplicate_deliveries": true}}}
    ]}
  ]
}`

// mustServer builds the role-aware handler or fails the test.
func mustServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testServer(t *testing.T) (*httptest.Server, *cache.Cache) {
	t.Helper()
	c, err := cache.New(cache.Options{Capacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mustServer(t, serverConfig{
		Workers:        2,
		Cache:          c,
		DefaultTimeout: 30 * time.Second,
	}))
	t.Cleanup(srv.Close)
	return srv, c
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestVerifyEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	for _, tc := range []struct {
		doc  string
		want engine.Status
	}{
		{scenarioDoc, engine.StatusHolds},
		{oscillatingDoc, engine.StatusViolated},
	} {
		resp := postJSON(t, srv.URL+"/verify", tc.doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		res, err := engine.DecodeResult(buf.Bytes())
		if err != nil {
			t.Fatalf("decode: %v\n%s", err, buf.Bytes())
		}
		if res.Status != tc.want {
			t.Fatalf("verdict %v, want %v", res.Status, tc.want)
		}
		if tc.want == engine.StatusViolated && res.Trace == nil {
			t.Fatal("violated result lost its counterexample trace")
		}
	}
}

func TestVerifyCacheRoundTrip(t *testing.T) {
	srv, c := testServer(t)
	first := postJSON(t, srv.URL+"/verify", scenarioDoc)
	var buf bytes.Buffer
	buf.ReadFrom(first.Body)
	r1, err := engine.DecodeResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first request served from an empty cache")
	}

	second := postJSON(t, srv.URL+"/verify", scenarioDoc)
	buf.Reset()
	buf.ReadFrom(second.Body)
	r2, err := engine.DecodeResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("repeat request missed the cache")
	}
	if r2.Status != r1.Status || r2.Stats.States != r1.Stats.States {
		t.Fatalf("cached verdict differs: %+v vs %+v", r2, r1)
	}
	if st := c.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("cache stats %+v", st)
	}

	// The stats endpoint reports the same counters.
	resp, err := http.Get(srv.URL + "/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cache.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("/cache/stats reported %+v", st)
	}
}

func TestVerifyRejectsBadInput(t *testing.T) {
	srv, _ := testServer(t)
	for name, tc := range map[string]struct {
		path string
		body string
	}{
		"not-json":       {"/verify", "hello"},
		"unknown-field":  {"/verify", `{"version":1,"mystery":2}`},
		"wrong-version":  {"/verify", `{"version":9}`},
		"bad-engine":     {"/verify?engine=quantum", scenarioDoc},
		"bad-workers":    {"/verify?workers=lots", scenarioDoc},
		"bad-timeout":    {"/verify?timeout=-3", scenarioDoc},
		"sweep-bad-base": {"/sweep", `{"version":1}`},
		// Sizes a document states are bounded at decode: the first of these
		// used to reach make() on a pool goroutine and end the process.
		"sweep-store-bits":  {"/sweep?engine=explicit", `{"version":1,"name":"s","base":{"agents":[{"id":0,"items":1,"base":[1],"policy":{"target":1,"utility":{"kind":"flat"},"rebid":"never"}}],"graph":{"nodes":1},"explore":{"store":"bitstate","store_bits":62}}}`},
		"verify-graph-size": {"/verify", `{"version":1,"graph":{"nodes":20000000}}`},
		"sweep-null-patch":  {"/sweep", `{"version":1,"base":{},"axes":[{"axis":"a","variants":[{"name":"v","scenario":null}]}]}`},
	} {
		t.Run(name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Fatalf("error body missing: %v %v", e, err)
			}
		})
	}
	resp, err := http.Get(srv.URL + "/verify")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /verify: status %d, want 405", resp.StatusCode)
	}
}

// TestMalformedScenariosAre400s takes the documents of
// internal/engine/testdata/malformed.json — line3.json with one edit
// each, breaking one well-formedness rule each — through every endpoint
// that accepts a scenario, on one worker-role server: each answer is a
// 400 naming the rule, and the server still answers /healthz afterwards.
// On the parent the documents decoded; for the five that then panic
// inside an engine, /verify dropped the connection and
// /verify?engine=explicit&workers=2 and /fleet/work ended the process
// from a shard goroutine.
func TestMalformedScenariosAre400s(t *testing.T) {
	sample, err := os.ReadFile("../../examples/scenarios/line3.json")
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile("../../internal/engine/testdata/malformed.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct{ Name, Old, New, Rule string }
	if err := json.Unmarshal(table, &rows); err != nil || len(rows) == 0 {
		t.Fatalf("malformed.json: %d rows, %v", len(rows), err)
	}
	srv, _ := startRole(t, serverConfig{Role: "worker", Workers: 2, DefaultTimeout: 30 * time.Second})
	for _, row := range rows {
		doc := strings.Replace(string(sample), row.Old, row.New, 1)
		if doc == string(sample) {
			t.Fatalf("%s: edit did not apply", row.Name)
		}
		base := strings.Replace(doc, `"version": 1,`, "", 1)
		for path, body := range map[string]string{
			"/verify":                           doc,
			"/verify?engine=explicit&workers=2": doc,
			"/verify?checkpoint=1":              doc,
			"/sweep":                            `{"version":1,"name":"sw","base":` + base + `}`,
			"/fleet/work":                       `{"version":1,"index":0,"engine":{"version":1,"kind":"explicit","workers":2},"scenario":` + doc + `}`,
		} {
			resp := postJSON(t, srv.URL+path, body)
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e["error"], row.Rule) {
				t.Errorf("%s on %s: status %d, error %q (%v), want 400 naming %q", row.Name, path, resp.StatusCode, e["error"], err, row.Rule)
			}
		}
	}
	if code, body := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after the malformed requests: %d %s", code, body)
	}
	// The sample itself still verifies through the same doors.
	resp := postJSON(t, srv.URL+"/verify?engine=explicit&workers=2", string(sample))
	data, _ := io.ReadAll(resp.Body)
	if res, err := engine.DecodeResult(bytes.TrimSpace(data)); err != nil || res.Status != engine.StatusHolds || res.Stats.States != 454 {
		t.Fatalf("line3.json: %s (%v)", data, err)
	}
}

// TestEngineFromQueryChecksKindAndFields: a parameter that does not
// belong to the chosen engine is an error, exactly as on the fleet wire
// (both go through engine.EngineSpec.Engine), a parameter no endpoint
// reads is an error too (a typo, or the retired cube), and every path
// the benchmark and the docs use stays valid.
func TestEngineFromQueryChecksKindAndFields(t *testing.T) {
	for _, tc := range []struct {
		query   string
		workers int // what the handler passes: ?workers= on /verify, 0 on /sweep
		want    engine.Engine
	}{
		{"", 0, engine.Auto{}},
		{"engine=auto", 4, engine.Auto{Workers: 4}},
		{"engine=explicit", 0, engine.Explicit{}},
		{"engine=explicit&workers=2", 2, engine.Explicit{}}, // the DFS at any count
		{"engine=explicit&workers=65", 65, engine.Explicit{Workers: 65}},
		{"engine=sat", 0, engine.SAT{}},
		{"engine=sat&workers=2", 2, engine.SAT{Workers: 2}},
		{"engine=sat&timeout=30s", 0, engine.SAT{}},
		{"engine=simulation&runs=8&seed=-5", 0, engine.Simulation{Runs: 8, Seed: -5}},
		{"engine=explicit&cube=3", 0, nil},
		{"engine=explicit&runs=8", 0, nil},
		{"engine=sat&runs=8", 0, nil},
		{"engine=sat&seed=1", 0, nil},
		{"engine=simulation&workers=4", 4, nil},
		{"engine=simulation&cube=2", 0, nil},
		{"runs=8", 0, nil},
		{"engine=auto&cube=2", 0, nil},
		{"engine=quantum", 0, nil},
		{"engine=sat&cube=many", 0, nil},
		{"engine=simulation&seed=soon", 0, nil},
		{"engine=sat&cube=3", 0, nil},
		{"engine=sat&workers=2&cube=3", 2, nil},
		{"engine=sat&worker=2", 0, nil},
		{"cube=3", 0, nil},
	} {
		r := httptest.NewRequest(http.MethodPost, "/verify?"+tc.query, nil)
		q := params(r, "engine", "workers", "runs", "seed", "timeout")
		got := q.engine(tc.workers)
		err := q.err
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q (workers %d): accepted as %#v, want an error", tc.query, tc.workers, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%q (workers %d): got %#v, %v; want %#v", tc.query, tc.workers, got, err, tc.want)
		}
	}
	// Over the socket the rejection is a 400 that names the stray
	// parameter, on every endpoint and on both /verify side paths.
	srv, _ := testServer(t)
	for _, tc := range []struct{ path, body, stray string }{
		{"/verify?engine=explicit&cube=3", scenarioDoc, "cube"},
		{"/verify?engine=sat&worker=2", scenarioDoc, "worker"},
		{"/verify?checkpoint=1&runs=3", scenarioDoc, "runs"},
		{"/verify?engine=sat", `{"resume":"deadbeef"}`, "engine"},
		{"/sweep?cube=3", `{"version":1,"name":"sw","base":{}}`, "cube"},
		// Pools are the operator's -workers (or the fleet's credit), never
		// the request's.
		{"/sweep?workers=2", `{"version":1,"name":"sw","base":{}}`, "workers"},
	} {
		resp := postJSON(t, srv.URL+tc.path, tc.body)
		var reply struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, `"`+tc.stray+`"`) {
			t.Errorf("%s: status %d %q, want a 400 naming %q", tc.path, resp.StatusCode, reply.Error, tc.stray)
		}
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	c, err := cache.New(cache.Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mustServer(t, serverConfig{Cache: c, MaxBody: 64}))
	t.Cleanup(srv.Close)
	resp := postJSON(t, srv.URL+"/verify", scenarioDoc)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestSweepEndpointStreamsNDJSON(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/sweep", sweepRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var resultLines int
	var sawSummary bool
	holds, violated := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"summary":`)) {
			if sum := readSummary(t, line); sum.Total != 4 || sum.Holds != holds || sum.Violated != violated {
				t.Fatalf("summary %+v (saw %d holds, %d violated)", sum, holds, violated)
			}
			sawSummary = true
			continue
		}
		res, err := engine.DecodeResult(line)
		if err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		resultLines++
		switch res.Status {
		case engine.StatusHolds:
			holds++
		case engine.StatusViolated:
			violated++
		default:
			t.Fatalf("cell %q: %v (err %v)", res.Scenario, res.Status, res.Err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if resultLines != 4 || !sawSummary {
		t.Fatalf("stream had %d result lines, summary=%v", resultLines, sawSummary)
	}
	// The honest cells hold, the greedy (non-submodular + release) cells
	// oscillate — Result 1 served over HTTP.
	if holds != 2 || violated != 2 {
		t.Fatalf("holds=%d violated=%d, want 2/2", holds, violated)
	}
}

// TestSweepWarmPassIsCached repeats the sweep and expects every
// conclusive cell to come back as a cache hit.
func TestSweepWarmPassIsCached(t *testing.T) {
	srv, _ := testServer(t)
	// Drain the cold pass: closing an unread stream breaks the pipe, the
	// server aborts the sweep, and the cancelled cells are never cached.
	if _, err := io.Copy(io.Discard, postJSON(t, srv.URL+"/sweep", sweepRequest).Body); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+"/sweep", sweepRequest)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"summary":`)) {
			if sum := readSummary(t, line); sum.CacheHits != sum.Total {
				t.Fatalf("warm sweep: %d hits of %d", sum.CacheHits, sum.Total)
			}
			return
		}
		res, err := engine.DecodeResult(line)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("cell %q not served from cache", res.Scenario)
		}
	}
	t.Fatal("no summary line")
}

// TestVerifyTimeoutReportsInconclusive drives a heavyweight scenario
// with a tiny per-request timeout through the cancellation plumbing.
func TestVerifyTimeoutReportsInconclusive(t *testing.T) {
	srv, c := testServer(t)
	heavy := `{
  "version": 1,
  "name": "heavy",
  "agents": [
    {"id": 0, "items": 3, "base": [10, 15, 20],
     "policy": {"target": 3, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
    {"id": 1, "items": 3, "base": [20, 10, 15],
     "policy": {"target": 3, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
    {"id": 2, "items": 3, "base": [15, 20, 10],
     "policy": {"target": 3, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}}
  ],
  "graph": {"nodes": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}, {"u": 0, "v": 2}]}
}`
	resp := postJSON(t, srv.URL+"/verify?timeout=1ms", heavy)
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	res, err := engine.DecodeResult(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.Bytes())
	}
	if res.Status != engine.StatusInconclusive {
		t.Fatalf("status %v, want inconclusive", res.Status)
	}
	if c.Len() != 0 {
		t.Fatal("inconclusive result cached")
	}
}

// flushCounter is a ResponseWriter that counts lines and flushes.
type flushCounter struct {
	httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestStreamLinesFlushesWhenIdle pins the flush rule both ways: lines
// that are already waiting go out in one flush, and a line with nothing
// behind it is flushed at once, not held for company.
func TestStreamLinesFlushesWhenIdle(t *testing.T) {
	encode := func(i int) (string, []byte, error) { return "", []byte{'0' + byte(i)}, nil }

	burst := make(chan int, 8)
	for i := 0; i < 8; i++ {
		burst <- i
	}
	close(burst)
	w := &flushCounter{ResponseRecorder: *httptest.NewRecorder()}
	streamLines(startNDJSON(w, func() {}, "test"), burst, encode)
	if got := w.Body.String(); got != "0\n1\n2\n3\n4\n5\n6\n7\n" || w.flushes != 1 {
		t.Fatalf("burst: %d flushes, body %q", w.flushes, got)
	}

	// One at a time: the producer waits until the consumer has flushed
	// line i before it sends line i+1.
	trickle := make(chan int, 8)
	flushed := make(chan struct{})
	w = &flushCounter{ResponseRecorder: *httptest.NewRecorder()}
	go func() {
		defer close(trickle)
		for i := 0; i < 5; i++ {
			trickle <- i
			<-flushed
		}
	}()
	streamLines(startNDJSON(notifyFlush{w, flushed}, func() {}, "test"), trickle, encode)
	if w.flushes != 5 {
		t.Fatalf("trickle: %d flushes for 5 lines", w.flushes)
	}
}

// notifyFlush signals each flush to the producer.
type notifyFlush struct {
	*flushCounter
	flushed chan struct{}
}

func (n notifyFlush) Flush() {
	n.flushCounter.Flush()
	n.flushed <- struct{}{}
}

// satTranslations reads the three mcaserved_sat_translations_total
// samples of a /metrics body: hit, miss, uncached.
func satTranslations(t *testing.T, url string) [3]int {
	t.Helper()
	_, body := getBody(t, url+"/metrics")
	var out [3]int
	for i, outcome := range []string{"hit", "miss", "uncached"} {
		prefix := `mcaserved_sat_translations_total{outcome="` + outcome + `"} `
		j := strings.Index(body, prefix)
		if j < 0 {
			t.Fatalf("/metrics has no %s sample:\n%s", outcome, body)
		}
		line, _, _ := strings.Cut(body[j+len(prefix):], "\n")
		n, err := strconv.Atoi(line)
		if err != nil {
			t.Fatalf("%s sample %q: %v", outcome, line, err)
		}
		out[i] = n
	}
	return out
}

// Two sat-check-shaped requests of one model family, apart in their
// rand_seed only, are two result-cache misses but at most one
// translation: the second copies the one the process keeps, and
// /metrics counts it as a hit. The counts are the process's, so the
// test reads them as differences.
func TestSATTranslationMetrics(t *testing.T) {
	srv, _ := testServer(t)
	before := satTranslations(t, srv.URL)
	for seed := 1; seed <= 2; seed++ {
		doc := fmt.Sprintf(`{"version":1,"name":"sat-consensus/r%d","model":{"kind":"mca-model","spec":{"encoding":"optimized","scope":{"pnodes":3,"vnodes":2,"values":4,"states":4,"msgs":2,"int_bitwidth":3}}},"solver":{"rand_seed":%d}}`, seed, seed)
		resp := postJSON(t, srv.URL+"/verify?engine=sat", doc)
		body, _ := io.ReadAll(resp.Body)
		res, err := engine.DecodeResult(body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d %v\n%s", seed, resp.StatusCode, err, body)
		}
		if res.Status != engine.StatusViolated || res.Cached {
			t.Fatalf("seed %d: %v (cached %v), want a fresh violated verdict", seed, res.Status, res.Cached)
		}
	}
	after := satTranslations(t, srv.URL)
	hit, miss, uncached := after[0]-before[0], after[1]-before[1], after[2]-before[2]
	if hit+miss != 2 || hit < 1 || uncached != 0 {
		t.Fatalf("translations hit %d, miss %d, uncached %d; want two checks, at least one a hit", hit, miss, uncached)
	}
}
