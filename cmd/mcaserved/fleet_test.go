package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mca"
)

// startRole boots one in-process mcaserved in the given role and
// returns its base URL.
func startRole(t *testing.T, cfg serverConfig) (*httptest.Server, *server) {
	t.Helper()
	s := mustServer(t, cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, s
}

// sweepNDJSON posts a sweep and splits the NDJSON stream into result
// lines and the decoded summary. A missing summary line fails the test
// because it means the stream aborted.
func sweepNDJSON(t *testing.T, url, body string) ([]string, engine.Summary) {
	t.Helper()
	resp := postJSON(t, url+"/sweep", body)
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("sweep status %d: %s", resp.StatusCode, buf.String())
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[len(lines)-1], `{"summary":`) {
		t.Fatalf("stream has no summary line: %q", lines)
	}
	return lines[:len(lines)-1], readSummary(t, []byte(lines[len(lines)-1]))
}

// readSummary reads a sweep stream's summary line, {"summary":{...}}.
func readSummary(t *testing.T, line []byte) engine.Summary {
	t.Helper()
	var w struct {
		Summary struct {
			Version                                              int
			Total, Holds, Violated, Inconclusive, Errors, Capped int
			CacheHits                                            int `json:"cache_hits"`
			Violations                                           map[explore.ViolationKind]int
			Scenarios                                            []string
			WallNS                                               int64 `json:"wall_ns"`
		}
	}
	if err := engine.StrictUnmarshal(line, &w); err != nil || w.Summary.Version != engine.SchemaVersion {
		t.Fatalf("summary line (version %d): %v\n%s", w.Summary.Version, err, line)
	}
	s := w.Summary
	return engine.Summary{Total: s.Total, Holds: s.Holds, Violated: s.Violated, Inconclusive: s.Inconclusive, Errors: s.Errors,
		Capped: s.Capped, CacheHits: s.CacheHits, Violations: s.Violations, Scenarios: s.Scenarios, Wall: time.Duration(s.WallNS)}
}

// summaryBytes canonicalizes a summary for byte comparison (wall time
// is a measurement, not part of the determinism contract).
func summaryBytes(t *testing.T, sum engine.Summary) string {
	t.Helper()
	sum.Wall = 0
	data, err := engine.EncodeSummary(&sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// TestFleetRolesEndToEnd is the full topology acceptance test: a
// coordinator fronting two worker processes that share a remote cache
// peer. The first sweep must match a standalone server byte for byte
// (the summary's wall aside); the second must be served from the
// shared cache, with the remote tier and the fleet counters visible on
// /metrics.
func TestFleetRolesEndToEnd(t *testing.T) {
	// The shared cache peer every worker layers behind its local tiers.
	peerCache, err := cache.New(cache.Options{Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	peerSrv, _ := startRole(t, serverConfig{Cache: peerCache, PeerCache: true})

	// startFleet boots a fresh coordinator + two workers over the shared
	// peer. Booting it twice models a full fleet restart: the second
	// generation has empty local tiers and can only answer from the peer.
	startFleet := func() (coordSrv *httptest.Server, workers []*httptest.Server, workerCaches []*cache.Cache) {
		workerURLs := make([]string, 2)
		workers = make([]*httptest.Server, 2)
		workerCaches = make([]*cache.Cache, 2)
		for i := range workerURLs {
			wc, err := cache.New(cache.Options{Capacity: 64, RemoteURL: peerSrv.URL + "/cache/entry"})
			if err != nil {
				t.Fatal(err)
			}
			srv, _ := startRole(t, serverConfig{Role: "worker", Cache: wc, FleetSlots: 2})
			workers[i], workerURLs[i], workerCaches[i] = srv, srv.URL, wc
		}
		coordSrv, _ = startRole(t, serverConfig{Role: "coordinator", Peers: workerURLs})
		return coordSrv, workers, workerCaches
	}

	standaloneSrv, _ := testServer(t)
	_, wantSum := sweepNDJSON(t, standaloneSrv.URL, sweepRequest)

	coldCoord, _, coldCaches := startFleet()
	coldLines, coldSum := sweepNDJSON(t, coldCoord.URL, sweepRequest)
	if got, want := summaryBytes(t, coldSum), summaryBytes(t, wantSum); got != want {
		t.Fatalf("fleet summary diverged from standalone:\n got %s\nwant %s", got, want)
	}
	if coldSum.CacheHits != 0 {
		t.Fatalf("cold fleet sweep reported %d cache hits", coldSum.CacheHits)
	}
	// Peer propagation is asynchronous: settle the cold generation's
	// queues so the warm pass sees a fully warmed peer.
	for _, c := range coldCaches {
		c.WaitRemotePuts()
	}

	// Pass two on a restarted fleet: everything conclusive is answered
	// from the shared tier.
	coordSrv, workers, warmCaches := startFleet()
	warmLines, warmSum := sweepNDJSON(t, coordSrv.URL, sweepRequest)
	if len(warmLines) != len(coldLines) {
		t.Fatalf("warm pass streamed %d lines, cold %d", len(warmLines), len(coldLines))
	}
	conclusive := warmSum.Holds + warmSum.Violated
	if warmSum.CacheHits != conclusive {
		t.Fatalf("warm pass: %d cache hits, want %d", warmSum.CacheHits, conclusive)
	}
	warmNoHits := warmSum
	warmNoHits.CacheHits = 0
	if got, want := summaryBytes(t, warmNoHits), summaryBytes(t, wantSum); got != want {
		t.Fatalf("warm summary diverged:\n got %s\nwant %s", got, want)
	}

	// The peer's store took every conclusive verdict exactly once.
	if st := peerCache.Stats(); st.Puts != uint64(conclusive) {
		t.Fatalf("peer cache stats %+v, want %d puts", st, conclusive)
	}
	// The cold generation pushed every conclusive verdict to the peer;
	// the warm generation, with empty local tiers, pulled every answer
	// back from it.
	var remoteHits, remotePuts uint64
	for i := range coldCaches {
		remotePuts += coldCaches[i].Stats().RemotePuts
		remoteHits += warmCaches[i].Stats().RemoteHits
	}
	if remotePuts != uint64(conclusive) {
		t.Fatalf("cold workers pushed %d results to the peer, want %d", remotePuts, conclusive)
	}
	if remoteHits != uint64(conclusive) {
		t.Fatalf("warm workers answered %d units from the peer, want %d", remoteHits, conclusive)
	}
	// /cache/stats on a warm worker reports the same remote traffic.
	var viaHTTP cache.Stats
	resp, err := http.Get(workers[0].URL + "/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&viaHTTP)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if viaHTTP.RemoteHits != warmCaches[0].Stats().RemoteHits {
		t.Fatalf("/cache/stats remote hits %d != direct %d", viaHTTP.RemoteHits, warmCaches[0].Stats().RemoteHits)
	}
	code, metricsBody := getBody(t, workers[0].URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, line := range []string{
		`mcaserved_cache_operations_total{kind="hit_remote"}`,
		`mcaserved_worker_units_total`,
		`mcaserved_requests_total{path="/fleet/work",code="200"}`,
	} {
		if !strings.Contains(metricsBody, line) {
			t.Fatalf("worker /metrics missing %q:\n%s", line, metricsBody)
		}
	}

	// The coordinator's /metrics carries the fleet dispatch counters,
	// and /fleet/status sees both workers healthy.
	code, metricsBody = getBody(t, coordSrv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("coordinator /metrics status %d", code)
	}
	for _, line := range []string{
		`mcaserved_fleet_dispatch_total{kind="completed"}`,
		`mcaserved_fleet_worker_healthy`,
		`mcaserved_requests_total{path="/sweep",code="200"} 1`,
	} {
		if !strings.Contains(metricsBody, line) {
			t.Fatalf("coordinator /metrics missing %q:\n%s", line, metricsBody)
		}
	}
	code, statusBody := getBody(t, coordSrv.URL+"/fleet/status")
	if code != http.StatusOK || strings.Contains(statusBody, `"healthy":false`) {
		t.Fatalf("/fleet/status %d: %s", code, statusBody)
	}
}

// TestQuotaShedding drives the per-tenant token buckets through the
// wire: a tenant that exhausts its burst gets 429 + Retry-After while
// another tenant is untouched, and the shed shows up on /metrics.
func TestQuotaShedding(t *testing.T) {
	srv, _ := startRole(t, serverConfig{QuotaRate: 0.001, QuotaBurst: 2})

	post := func(tenant string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/verify", strings.NewReader(scenarioDoc))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := post("acme"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := post("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant has its own bucket.
	if resp := post("globex"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status %d", resp.StatusCode)
	}
	if _, body := getBody(t, srv.URL+"/metrics"); !strings.Contains(body, `mcaserved_shed_total{reason="quota"} 1`) {
		t.Fatalf("/metrics missing quota shed:\n%s", body)
	}
}

// TestWrongVerbIsRefusedBeforeAdmission: every route declares its verb,
// so a GET on /verify is the mux's 405 carrying Allow, answered before
// the tenant quota is consulted — it does not spend the one token the
// POST after it needs.
func TestWrongVerbIsRefusedBeforeAdmission(t *testing.T) {
	srv, _ := startRole(t, serverConfig{Role: "worker", QuotaRate: 0.001, QuotaBurst: 1})
	for path, allow := range map[string]string{
		"/verify": "POST", "/sweep": "POST", "/fleet/work": "POST",
		"/metrics": "GET, HEAD", "/cache/stats": "GET, HEAD", "/healthz": "GET, HEAD", "/fleet/health": "GET, HEAD",
	} {
		method := http.MethodGet
		if strings.HasPrefix(allow, "GET") {
			method = http.MethodPost
		}
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(scenarioDoc))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != allow {
			t.Fatalf("%s %s: status %d, Allow %q; want 405, Allow %q", method, path, resp.StatusCode, resp.Header.Get("Allow"), allow)
		}
	}
	if resp := postJSON(t, srv.URL+"/verify", scenarioDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /verify after the refused GET: status %d, want 200 (the GET spent the token)", resp.StatusCode)
	}
}

// TestQuotaRefill pins the bucket arithmetic with a fake clock.
func TestQuotaRefill(t *testing.T) {
	q := newQuotaTable(2, 2) // 2 tokens/s, burst 2
	now := time.Unix(0, 0)
	q.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := q.allow("t"); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, retry := q.allow("t")
	if ok {
		t.Fatal("empty bucket allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry %v, want within (0, 1s]", retry)
	}
	now = now.Add(500 * time.Millisecond) // one token accrues
	if ok, _ := q.allow("t"); !ok {
		t.Fatal("refilled token denied")
	}
	if ok, _ := q.allow("t"); ok {
		t.Fatal("second token appeared from a 500ms refill at 2/s")
	}
	now = now.Add(time.Hour) // refill clamps at burst
	for i := 0; i < 2; i++ {
		if ok, _ := q.allow("t"); !ok {
			t.Fatalf("post-clamp token %d denied", i)
		}
	}
	if ok, _ := q.allow("t"); ok {
		t.Fatal("burst clamp exceeded")
	}
}

// TestInFlightShedding exercises the global admission cap at the gate:
// with one slot occupied, the next request sheds with 429.
func TestInFlightShedding(t *testing.T) {
	s := mustServer(t, serverConfig{MaxInFlight: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	h := s.gate(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/sweep", nil))
	}()
	<-entered

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/sweep", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	<-done

	// The freed slot admits again.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/sweep", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release status %d", rec.Code)
	}
}

// TestRoleValidation pins the construction errors.
func TestRoleValidation(t *testing.T) {
	if _, err := newServer(serverConfig{Role: "conductor"}); err == nil {
		t.Fatal("unknown role accepted")
	}
	if _, err := newServer(serverConfig{Role: "coordinator"}); err == nil {
		t.Fatal("coordinator without peers accepted")
	}
	// A role flag on a role that cannot honour it is an error naming the
	// flag and the role, never dropped or only logged.
	for _, tc := range []struct {
		cfg  serverConfig
		flag string
	}{
		{serverConfig{Peers: []string{"http://w1:8081"}}, "-peers"},
		{serverConfig{Role: "worker", Peers: []string{"http://w1:8081"}}, "-peers"},
		{serverConfig{FleetSlots: 4}, "-fleetslots"},
		{serverConfig{Role: "coordinator", Peers: []string{"http://w1:8081"}, FleetSlots: 2}, "-fleetslots"},
	} {
		_, err := newServer(tc.cfg)
		role := tc.cfg.withDefaults().Role
		if err == nil || !strings.Contains(err.Error(), tc.flag) || !strings.Contains(err.Error(), role) {
			t.Errorf("role %s with %s: err %v, want one naming both", role, tc.flag, err)
		}
	}
}

// TestCacheEntryEndpointMounted smoke-tests the peer protocol route:
// absent unless opted in with PeerCache, served (with key validation)
// when opted in, and behind the shared secret when one is configured.
func TestCacheEntryEndpointMounted(t *testing.T) {
	key := strings.Repeat("ab", 32)

	// Default servers do not expose the peer protocol at all: its PUT
	// verb stores unverifiable result documents.
	plain, _ := testServer(t)
	if code, _ := getBody(t, plain.URL+"/cache/entry/"+key); code != http.StatusNotFound {
		t.Fatalf("peer endpoint without -peercache: status %d, want mux 404", code)
	}
	if code, _ := getBody(t, plain.URL+"/cache/entry/nope"); code != http.StatusNotFound {
		t.Fatalf("peer endpoint without -peercache: status %d, want mux 404", code)
	}

	c, err := cache.New(cache.Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := startRole(t, serverConfig{Cache: c, PeerCache: true})
	if code, _ := getBody(t, srv.URL+"/cache/entry/"+key); code != http.StatusNotFound {
		t.Fatalf("absent key: status %d, want 404", code)
	}
	if code, _ := getBody(t, srv.URL+"/cache/entry/nope"); code != http.StatusBadRequest {
		t.Fatalf("bad key: status %d, want 400", code)
	}

	sealed, _ := startRole(t, serverConfig{Cache: c, PeerCache: true, CacheSecret: "s3cr3t"})
	if code, _ := getBody(t, sealed.URL+"/cache/entry/"+key); code != http.StatusUnauthorized {
		t.Fatalf("secret-protected endpoint without header: status %d, want 401", code)
	}
}

// TestFleetWorkExemptFromTenantQuota pins the admission split: the
// coordinator's dispatches carry no X-Tenant, so /fleet/work must not
// be folded into the anonymous quota bucket — otherwise enabling
// -quotarate on a worker mass-429s all intra-fleet traffic.
func TestFleetWorkExemptFromTenantQuota(t *testing.T) {
	srv, _ := startRole(t, serverConfig{Role: "worker", QuotaRate: 0.001, QuotaBurst: 1})

	// Well past the burst of 1: every request must reach the handler
	// (400: not a work unit), never the quota (429).
	for i := 0; i < 4; i++ {
		resp := postJSON(t, srv.URL+"/fleet/work", "{}")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("dispatch %d: status %d, want 400 from the handler (429 means quota applied)", i, resp.StatusCode)
		}
	}
	// The same server still quotas client-facing endpoints.
	if resp := postJSON(t, srv.URL+"/verify", scenarioDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("first /verify: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/verify", scenarioDoc); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst /verify: status %d, want 429", resp.StatusCode)
	}
}

// TestWorkerAdmitsBySlotsAlone: /fleet/work meets one admission
// decision, the worker's slots — what /fleet/health advertises and the
// coordinator dispatches against — so a -maxinflight below the slot
// count sheds none of it.
func TestWorkerAdmitsBySlotsAlone(t *testing.T) {
	const slots = 4
	srv, s := startRole(t, serverConfig{Role: "worker", MaxInFlight: 1, FleetSlots: slots})
	// Each unit explores until its request is cancelled.
	specs := make([]mca.Config, 3)
	for i := range specs {
		specs[i] = mca.Config{
			ID: mca.AgentID(i), Items: 3, Base: []int64{9, 7, 5},
			Policy: mca.Policy{Target: 3, Utility: mca.NonSubmodularSynergy{}, ReleaseOutbid: true, Rebid: mca.RebidAlways},
		}
	}
	heavy := engine.Scenario{Name: "heavy", AgentSpecs: specs, Graph: graph.Complete(3), Explore: explore.Options{MaxStates: 1 << 30}}
	unit, err := fleet.EncodeWorkUnit(0, engine.Explicit{}, &heavy)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	answered := make(chan int, slots)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/fleet/work", bytes.NewReader(unit))
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				answered <- resp.StatusCode
			}
		}()
	}
	defer wg.Wait()
	defer cancel()
	deadline := time.Now().Add(10 * time.Second)
	for s.fleetWorker.Stats().Busy < slots {
		select {
		case code := <-answered:
			t.Fatalf("a unit within the %d advertised slots was answered %d", slots, code)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slots busy after 10 s", s.fleetWorker.Stats().Busy, slots)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuotaTableForgetsIdleTenants: a client rotating X-Tenant cannot
// grow the table without bound. Past the sweep size, buckets that have
// refilled to burst go, and every decision matches a table that keeps
// them all.
func TestQuotaTableForgetsIdleTenants(t *testing.T) {
	now := time.Unix(0, 0)
	swept, kept := newQuotaTable(2, 3), newQuotaTable(2, 3) // refill period 1.5 s
	kept.sweepAbove = math.MaxInt
	for _, q := range []*quotaTable{swept, kept} {
		q.now = func() time.Time { return now }
	}
	allow := func(tenant string) {
		t.Helper()
		ok1, wait1 := swept.allow(tenant)
		ok2, wait2 := kept.allow(tenant)
		if ok1 != ok2 || wait1 != wait2 {
			t.Fatalf("tenant %q: swept table answered %v %v, unswept %v %v", tenant, ok1, wait1, ok2, wait2)
		}
	}
	for i := 0; i < 10000; i++ {
		allow(fmt.Sprintf("t%d", i))
		if i%100 == 0 {
			allow("hot") // a tenant that runs dry between refills
		}
	}
	now = now.Add(2 * time.Second)
	allow("late")
	if n := len(swept.buckets); n > quotaSweepAbove {
		t.Fatalf("%d tenants kept, want at most %d", n, quotaSweepAbove)
	}
	for i := 0; i < 10000; i += 97 {
		allow(fmt.Sprintf("t%d", i))
		allow("hot")
	}
}

// TestMetricsRequestAccounting checks the request counters and latency
// summaries the middleware records.
func TestMetricsRequestAccounting(t *testing.T) {
	srv, _ := testServer(t)
	postJSON(t, srv.URL+"/verify", scenarioDoc)
	postJSON(t, srv.URL+"/verify", "{not json")
	if code, _ := getBody(t, srv.URL+"/nonexistent"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
	_, body := getBody(t, srv.URL+"/metrics")
	for _, line := range []string{
		`mcaserved_requests_total{path="/verify",code="200"} 1`,
		`mcaserved_requests_total{path="/verify",code="400"} 1`,
		`mcaserved_requests_total{path="other",code="404"} 1`,
		`mcaserved_request_seconds_count{path="/verify"} 2`,
		`mcaserved_cache_entries 1`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q:\n%s", line, body)
		}
	}
}

// TestMetricsReportTheCacheCapacity: the capacity gauge reads the
// cache, not the -cachesize flag. A zero capacity is the cache's
// default of 4096 entries, a negative one is unbounded (0 on the gauge).
func TestMetricsReportTheCacheCapacity(t *testing.T) {
	for capacity, want := range map[int]string{0: "4096", -1: "0", 64: "64"} {
		c, err := cache.New(cache.Options{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		srv, _ := startRole(t, serverConfig{Cache: c})
		_, body := getBody(t, srv.URL+"/metrics")
		if line := "\nmcaserved_cache_capacity " + want + "\n"; !strings.Contains(body, line) {
			t.Errorf("cache capacity %d: /metrics lacks %q:\n%s", capacity, line[1:], body)
		}
	}
}

// TestGenerateIsNotServed: differential fuzzing lives in cmd/mcafuzz
// alone. POST /generate is an unknown path, a 404 that /metrics counts
// under "other" rather than as a route of its own.
func TestGenerateIsNotServed(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/generate?seed=1&n=5", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /generate: status %d, want 404", resp.StatusCode)
	}
	_, body := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(body, `mcaserved_requests_total{path="other",code="404"} 1`) || strings.Contains(body, `path="/generate"`) {
		t.Fatalf("/metrics does not count POST /generate under other:\n%s", body)
	}
}
