package cache

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/trace"
)

// peerKey is a syntactically valid content address (64 hex chars).
func peerKey(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6}), 64)
}

// peer spins up a cache served over the entry protocol, the shape every
// fleet node uses.
func peer(t *testing.T) (*Cache, *httptest.Server, *atomic.Int64) {
	t.Helper()
	shared, err := New(Options{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	var gets atomic.Int64
	h := HTTPHandler(shared, "")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return shared, srv, &gets
}

func TestRemoteTierHitAndPromotion(t *testing.T) {
	shared, srv, _ := peer(t)
	key := peerKey(0)
	shared.Put(key, res("warm"))

	local, err := New(Options{Capacity: 8, Dir: t.TempDir(), RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := local.Get(key)
	if !ok || got.Scenario != "warm" {
		t.Fatalf("remote get: ok=%v res=%+v", ok, got)
	}
	st := local.Stats()
	if st.RemoteHits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The hit was promoted into memory: the next Get is local.
	if _, ok := local.Get(key); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := local.Stats(); st.Hits != 1 || st.RemoteHits != 1 {
		t.Fatalf("stats after promotion %+v", st)
	}
	// ... and onto disk: a restarted cache with no remote still has it.
	reborn, err := New(Options{Capacity: 8, Dir: local.dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reborn.Get(key); !ok {
		t.Fatal("remote hit did not persist to the disk tier")
	}
}

func TestRemotePutPropagates(t *testing.T) {
	shared, srv, _ := peer(t)
	a, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	key := peerKey(1)
	a.Put(key, res("from-a"))
	a.WaitRemotePuts() // propagation is async; settle before asserting
	if st := a.Stats(); st.RemotePuts != 1 || st.RemoteErrors != 0 {
		t.Fatalf("put stats %+v", st)
	}
	if _, ok := shared.getLocal(key); !ok {
		t.Fatal("put did not reach the peer")
	}
	// Node b was never told about the key, but the shared tier warms it.
	got, ok := b.Get(key)
	if !ok || got.Scenario != "from-a" {
		t.Fatalf("b missed the fleet-warmed entry: ok=%v res=%+v", ok, got)
	}
	if st := b.Stats(); st.RemoteHits != 1 {
		t.Fatalf("b stats %+v", st)
	}
}

// TestRemoteSingleFlight pins the miss-coalescing contract: concurrent
// Gets of one cold key must cost one peer round trip, not N.
func TestRemoteSingleFlight(t *testing.T) {
	shared, srv, gets := peer(t)
	key := peerKey(2)
	shared.Put(key, res("flock"))

	local, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	var hits atomic.Int64
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, ok := local.Get(key); ok {
				hits.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if hits.Load() != n {
		t.Fatalf("%d of %d concurrent gets hit", hits.Load(), n)
	}
	// All n callers raced the flight; at most a handful can slip past
	// the memory tier before the first fetch promotes the entry, and the
	// single-flight collapses those to one round trip each "wave". The
	// hard bound we pin: strictly fewer fetches than callers, and at
	// least one.
	if g := gets.Load(); g < 1 || g >= n {
		t.Fatalf("%d peer round trips for %d coalesced gets", g, n)
	}
}

func TestRemoteMissAndDownPeerDegrade(t *testing.T) {
	_, srv, _ := peer(t)
	local, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := local.Get(peerKey(3)); ok {
		t.Fatal("hit on a cold fleet")
	}
	if st := local.Stats(); st.Misses != 1 || st.RemoteErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Kill the peer: Gets and Puts degrade to the local tiers and count
	// errors instead of failing.
	srv.Close()
	if _, ok := local.Get(peerKey(4)); ok {
		t.Fatal("hit from a dead peer")
	}
	local.Put(peerKey(4), res("local-only"))
	if _, ok := local.Get(peerKey(4)); !ok {
		t.Fatal("local tier lost the entry")
	}
	local.WaitRemotePuts()
	st := local.Stats()
	if st.RemoteErrors < 2 || st.RemotePuts != 0 {
		t.Fatalf("degraded stats %+v", st)
	}
}

func TestHTTPHandlerRejectsBadRequests(t *testing.T) {
	shared, err := New(Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HTTPHandler(shared, ""))
	t.Cleanup(srv.Close)
	valid := res("unsealed")
	doc, err := engine.EncodeResult(&valid)
	if err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		method, path, body string
		want               int
	}{
		"traversal-key":  {http.MethodGet, "/../../etc/passwd", "", http.StatusBadRequest},
		"short-key":      {http.MethodGet, "/abc123", "", http.StatusBadRequest},
		"uppercase-key":  {http.MethodGet, "/" + strings.Repeat("A", 64), "", http.StatusBadRequest},
		"miss":           {http.MethodGet, "/" + peerKey(0), "", http.StatusNotFound},
		"bad-put-body":   {http.MethodPut, "/" + peerKey(0), "{not a result", http.StatusBadRequest},
		"delete":         {http.MethodDelete, "/" + peerKey(0), "", http.StatusMethodNotAllowed},
		"alien-put-body": {http.MethodPut, "/" + peerKey(0), `{"version":9}`, http.StatusBadRequest},
		// A valid result document sent without X-Cache-Checksum: the
		// handler cannot tell it from one damaged in transit.
		"unsealed-put-body": {http.MethodPut, "/" + peerKey(0), string(doc), http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	if got := shared.Len(); got != 0 {
		t.Fatalf("rejected requests stored %d entries", got)
	}
}

// overLimit is a request body that has already run past its byte cap.
type overLimit struct{}

func (overLimit) Read([]byte) (int, error) {
	return 0, &http.MaxBytesError{Limit: engine.MaxResultBytes}
}

// TestHTTPHandlerErrorsAreJSON: every refusal carries the {"error": ...}
// envelope typed application/json, as every other mcaserved endpoint's.
func TestHTTPHandlerErrorsAreJSON(t *testing.T) {
	shared, err := New(Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		secret, method, path string
		body                 io.Reader
		want                 int
	}{
		{"", http.MethodGet, "/abc123", nil, http.StatusBadRequest},
		{"s3cr3t", http.MethodGet, "/" + peerKey(0), nil, http.StatusUnauthorized},
		{"", http.MethodGet, "/" + peerKey(0), nil, http.StatusNotFound},
		{"", http.MethodDelete, "/" + peerKey(0), nil, http.StatusMethodNotAllowed},
		{"", http.MethodPut, "/" + peerKey(0), overLimit{}, http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		HTTPHandler(shared, tc.secret).ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, tc.body))
		var reply map[string]string
		err := json.Unmarshal(rec.Body.Bytes(), &reply)
		if rec.Code != tc.want || rec.Header().Get("Content-Type") != "application/json" || err != nil || reply["error"] == "" {
			t.Errorf("%s %s: %d %q %q (%v), want %d with a JSON error envelope", tc.method, tc.path, rec.Code, rec.Header().Get("Content-Type"), rec.Body, err, tc.want)
		}
	}
}

// TestRemoteGetWithoutChecksumIsAMiss: a peer answering 200 with a
// valid result document but no X-Cache-Checksum is not trusted — the
// Get is a counted remote error and a miss, never a hit.
func TestRemoteGetWithoutChecksumIsAMiss(t *testing.T) {
	unsealed := res("unsealed")
	doc, err := engine.EncodeResult(&unsealed)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc)
	}))
	t.Cleanup(srv.Close)
	local, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := local.Get(peerKey(0)); ok {
		t.Fatalf("unsealed peer reply served as a hit: %+v", got)
	}
	if st := local.Stats(); st.RemoteErrors != 1 || st.RemoteHits != 0 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want one remote error and one miss", st)
	}
}

// TestHTTPHandlerSharedSecret pins the peer-protocol trust boundary:
// with a secret configured, requests without the right X-Cache-Auth are
// 401 and store nothing, while a client built with the matching
// RemoteSecret round-trips normally.
func TestHTTPHandlerSharedSecret(t *testing.T) {
	shared, err := New(Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HTTPHandler(shared, "hunter2"))
	t.Cleanup(srv.Close)
	key := peerKey(0)

	warm, err := New(Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	warm.Put(key, res("forged"))
	doc, err := engine.EncodeResult(&engine.Result{Scenario: "forged", Engine: "explicit", Status: engine.StatusHolds})
	if err != nil {
		t.Fatal(err)
	}
	for name, hdr := range map[string]string{"missing": "", "wrong": "hunter3"} {
		t.Run(name, func(t *testing.T) {
			for _, method := range []string{http.MethodGet, http.MethodPut} {
				req, err := http.NewRequest(method, srv.URL+"/"+key, strings.NewReader(string(doc)))
				if err != nil {
					t.Fatal(err)
				}
				if hdr != "" {
					req.Header.Set(authHeader, hdr)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnauthorized {
					t.Fatalf("%s without secret: status %d, want 401", method, resp.StatusCode)
				}
			}
		})
	}
	if shared.Len() != 0 {
		t.Fatal("unauthorized PUT stored an entry")
	}

	// A client holding the secret uses the protocol normally.
	authed, err := New(Options{Capacity: 8, RemoteURL: srv.URL, RemoteSecret: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	authed.Put(key, res("legit"))
	authed.WaitRemotePuts()
	if st := authed.Stats(); st.RemotePuts != 1 || st.RemoteErrors != 0 {
		t.Fatalf("authed put stats %+v", st)
	}
	fresh, err := New(Options{Capacity: 8, RemoteURL: srv.URL, RemoteSecret: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := fresh.Get(key); !ok || got.Scenario != "legit" {
		t.Fatalf("authed get: ok=%v res=%+v", ok, got)
	}
}

// TestRemotePutNeverBlocksOnWedgedPeer pins the hot-path contract from
// docs/OPERATIONS.md: verification never blocks on cache availability.
// Against a peer that accepts connections but never answers, Put must
// return immediately, and once the propagation queue is full further
// entries are dropped and counted rather than queued unboundedly.
func TestRemotePutNeverBlocksOnWedgedPeer(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // wedged: holds every request open until the test ends
	}))
	t.Cleanup(func() { close(release); srv.Close() })

	local, err := New(Options{Capacity: 2 * remotePutQueue, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	// One put wedges the sender, remotePutQueue more fill the queue, and
	// everything past that must be dropped on the spot.
	const extra = 3
	start := time.Now()
	for i := 0; i < 1+remotePutQueue+extra; i++ {
		local.Put(peerKey(byte(i))[:63]+string([]byte{'0' + byte(i%10)}), res("burst"))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("puts against a wedged peer took %v", d)
	}
	// The sender holds at most one in-flight propagation and the queue
	// at most remotePutQueue, so at least `extra` of the burst were
	// dropped — and drops are counted at enqueue time, synchronously.
	if st := local.Stats(); st.RemoteErrors < extra || st.RemotePuts != 0 {
		t.Fatalf("overflow stats %+v, want >= %d drops and no acked puts", st, extra)
	}
}

// TestRemotePutRoundTripsVerdict pins that a result survives the wire:
// what one node stores is what another decodes, status and all.
func TestRemotePutRoundTripsVerdict(t *testing.T) {
	_, srv, _ := peer(t)
	a, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	key := peerKey(5)
	want := engine.Result{Index: -1, Scenario: "wired", Engine: "explicit", Status: engine.StatusViolated}
	a.Put(key, want)
	a.WaitRemotePuts()
	got, ok := b.Get(key)
	if !ok || got.Status != want.Status || got.Scenario != want.Scenario || got.Engine != want.Engine {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
}

// TestPeerPutRefusesInconclusiveVerdicts: the Runner caches holds and
// violated only, so a PUT of any other status is a 400 naming it, and
// the scenario under that key is verified, not served from the cache.
func TestPeerPutRefusesInconclusiveVerdicts(t *testing.T) {
	shared, srv, _ := peer(t)
	pol := mca.Policy{Target: 2, Utility: mca.SubmodularResidual{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange}
	s := engine.Scenario{
		Name: "forged",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
		},
		Graph: graph.Complete(2),
	}
	key, err := engine.CacheKey(&s, engine.Explicit{})
	if err != nil {
		t.Fatal(err)
	}
	for _, status := range []string{"error", "inconclusive"} {
		body := []byte(`{"version":1,"engine":"explicit","index":-1,"status":"` + status + `"}`)
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(checksumHeader, engine.Digest(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), `\"`+status+`\"`) {
			t.Fatalf("PUT of a %s result: %d %s, want 400 naming the status", status, resp.StatusCode, reply)
		}
	}
	if shared.Len() != 0 {
		t.Fatalf("refused PUTs stored %d entries", shared.Len())
	}
	got := engine.VerifyCached(context.Background(), engine.Explicit{}, s, shared)
	if got.Cached || got.Status != engine.StatusHolds {
		t.Fatalf("VerifyCached after the refused PUTs: status=%s cached=%v", got.Status, got.Cached)
	}

	// A peer that holds such an entry anyway (an older build) is not
	// believed on GET either: the dialing cache counts an error and
	// misses.
	other := peerKey(3)
	shared.Put(other, engine.Result{Index: -1, Engine: "explicit", Status: engine.StatusError})
	local, err := New(Options{Capacity: 8, RemoteURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := local.Get(other); ok {
		t.Fatalf("peer's error entry served: %+v", res)
	}
	if st := local.Stats(); st.RemoteHits != 0 || st.RemoteErrors != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReadEntriesServeTheBytesRead: an entry promoted from disk, and one
// a peer PUT stored, keeps the bytes it was read from, so its first hit
// is spliced from them: EncodeResult allocates its output and nothing
// more, where encoding the verdict again allocates for every member.
func TestReadEntriesServeTheBytesRead(t *testing.T) {
	rec := trace.NewRecorder()
	rec.ItemNames = []string{"A", "B"}
	rec.Record(trace.Step{Label: "deliver 0->1", Agents: []trace.AgentSnapshot{{ID: 0, Bids: []int64{10, 3}, Winner: []int{0, 1}, Bundle: []int{0}}}})
	stored := engine.Result{Index: -1, Scenario: "first", Engine: "explicit", Status: engine.StatusViolated,
		Violation: explore.ViolationOscillation, Trace: rec, Stats: engine.Stats{States: 12, MaxDepth: 4, Exhausted: true}}
	key := peerKey(4)
	// firstHit checks the first encoding of a hit on key in each of five
	// fresh caches from open, and that the fewest allocations the process
	// made during one is at most the output's. Mallocs counts every
	// goroutine's, so another's can only add to the hit's own.
	firstHit := func(t *testing.T, open func() *Cache) {
		t.Helper()
		want := stored
		want.Scenario, want.Index, want.Cached = "cell", 7, true
		wantData, err := engine.EncodeResult(&want)
		if err != nil {
			t.Fatal(err)
		}
		fewest := uint64(math.MaxUint64)
		for range 5 {
			hit, ok := open().Get(key)
			if !ok {
				t.Fatal("entry missing")
			}
			hit.Scenario, hit.Index, hit.Cached = "cell", 7, true
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			data, err := engine.EncodeResult(&hit)
			runtime.ReadMemStats(&after)
			if err != nil || !bytes.Equal(data, wantData) {
				t.Fatalf("first hit (%v):\n got %s\nwant %s", err, data, wantData)
			}
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		if fewest > 1 {
			t.Fatalf("first hit made %d allocations: encoded again, not spliced", fewest)
		}
	}

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		writer, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		writer.Put(key, stored)
		firstHit(t, func() *Cache {
			reader, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			return reader
		})
	})
	t.Run("peer-put", func(t *testing.T) {
		doc, err := engine.EncodeResult(&stored)
		if err != nil {
			t.Fatal(err)
		}
		firstHit(t, func() *Cache {
			c, err := New(Options{})
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPut, "/"+key, bytes.NewReader(doc))
			req.Header.Set(checksumHeader, engine.Digest(doc))
			w := httptest.NewRecorder()
			HTTPHandler(c, "").ServeHTTP(w, req)
			if w.Code != http.StatusNoContent {
				t.Fatalf("PUT: %d %s", w.Code, w.Body)
			}
			return c
		})
	})
}
