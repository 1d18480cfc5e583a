package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
)

// fleetScenarios is the acceptance sweep: policy × topology × fault
// cells covering holds, violations, and both the explicit and the
// simulation engine under Auto routing.
func fleetScenarios() []engine.Scenario {
	utilities := []mca.Utility{
		mca.SubmodularResidual{}, mca.NonSubmodularSynergy{},
		mca.FlatUtility{}, mca.EscalatingUtility{Cap: 1 << 10},
	}
	graphs := map[string]*graph.Graph{
		"complete2": graph.Complete(2),
		"line3":     graph.Line(3),
	}
	var out []engine.Scenario
	for _, u := range utilities {
		for gname, g := range graphs {
			n := g.N()
			specs := make([]mca.Config, n)
			for i := 0; i < n; i++ {
				base := []int64{int64(10 + 5*(i%2)), int64(15 - 5*(i%2))}
				specs[i] = mca.Config{
					ID: mca.AgentID(i), Items: 2, Base: base,
					Policy: mca.Policy{Target: 2, Utility: u, ReleaseOutbid: true, Rebid: mca.RebidOnChange},
				}
			}
			for fname, f := range map[string]netsim.Faults{
				"reliable": {},
				"drop":     {Drop: 0.25},
			} {
				out = append(out, engine.Scenario{
					Name:       fmt.Sprintf("%s/%s/%s", u.Name(), gname, fname),
					AgentSpecs: specs,
					Graph:      g,
					Explore:    explore.Options{MaxStates: 30000},
					Faults:     f,
				})
			}
		}
	}
	return out
}

// encodeSummary canonicalizes a summary for byte comparison: Wall is
// wall-clock, excluded from every determinism guarantee.
func encodeSummary(t *testing.T, sum engine.Summary) string {
	t.Helper()
	sum.Wall = 0
	data, err := engine.EncodeSummary(&sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// encodeResult is engine.EncodeResult of res: the line every node must
// write for it, byte for byte.
func encodeResult(t *testing.T, res engine.Result) string {
	t.Helper()
	data, err := engine.EncodeResult(&res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// startWorkers spins n in-process workers and returns their base URLs.
func startWorkers(t *testing.T, n int, mk func(i int) *fleet.Worker) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(mk(i).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// runnerBaseline runs the same batch through the single-process Runner.
func runnerBaseline(t *testing.T, scenarios []engine.Scenario) ([]engine.Result, engine.Summary) {
	t.Helper()
	return engine.NewRunner(engine.RunnerOptions{Workers: 4}).Run(context.Background(), scenarios)
}

// TestCoordinatorMatchesRunner is the fleet determinism pin: at worker
// counts 1, 2, and 4, the coordinator's summary — and every individual
// result — is byte-identical to the single-process Runner's.
func TestCoordinatorMatchesRunner(t *testing.T) {
	scenarios := fleetScenarios()
	baseResults, baseSum := runnerBaseline(t, scenarios)
	want := encodeSummary(t, baseSum)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			urls := startWorkers(t, n, func(int) *fleet.Worker {
				return fleet.NewWorker(fleet.WorkerOptions{Slots: 2})
			})
			coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
			if err != nil {
				t.Fatal(err)
			}
			results, sum := coord.Run(context.Background(), nil, scenarios)
			if got := encodeSummary(t, sum); got != want {
				t.Fatalf("summary diverged at %d workers:\n got %s\nwant %s", n, got, want)
			}
			for i := range results {
				if got, want := encodeResult(t, results[i]), encodeResult(t, baseResults[i]); got != want {
					t.Fatalf("result %d diverged:\n got %s\nwant %s", i, got, want)
				}
			}
			st := coord.Stats()
			if st.Completed != uint64(len(scenarios)) || st.LocalFallbacks != 0 {
				t.Fatalf("stats %+v: every unit should complete remotely", st)
			}
		})
	}
}

// TestCoordinatorSurvivesWorkerDeath kills one of three workers
// mid-sweep — it serves two units, then aborts every connection — and
// requires the re-dispatch path to land on the same bytes anyway.
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	scenarios := fleetScenarios()
	_, baseSum := runnerBaseline(t, scenarios)
	want := encodeSummary(t, baseSum)

	var served atomic.Int64
	urls := make([]string, 0, 3)
	dying := fleet.NewWorker(fleet.WorkerOptions{Slots: 2}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			panic(http.ErrAbortHandler) // the process is gone mid-request
		}
		dying.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	urls = append(urls, srv.URL)
	urls = append(urls, startWorkers(t, 2, func(int) *fleet.Worker {
		return fleet.NewWorker(fleet.WorkerOptions{Slots: 2})
	})...)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	fleet.UseFakeClock(coord)
	_, sum := coord.Run(context.Background(), nil, scenarios)
	if got := encodeSummary(t, sum); got != want {
		t.Fatalf("summary diverged after worker death:\n got %s\nwant %s", got, want)
	}
	st := coord.Stats()
	if st.Retries == 0 {
		t.Fatalf("stats %+v: the dying worker should have forced re-dispatches", st)
	}
	if st.Drained != 0 {
		t.Fatalf("stats %+v: no unit should have been dropped", st)
	}
}

// TestCoordinatorLocalFallbackCompletesSweep points the coordinator at
// nothing but a dead address: every unit must fall back to local
// verification and the sweep must still match the Runner exactly.
func TestCoordinatorLocalFallbackCompletesSweep(t *testing.T) {
	scenarios := fleetScenarios()[:4]
	_, baseSum := runnerBaseline(t, scenarios)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	fleet.UseFakeClock(coord)
	_, sum := coord.Run(context.Background(), nil, scenarios)
	if got, want := encodeSummary(t, sum), encodeSummary(t, baseSum); got != want {
		t.Fatalf("summary diverged with a dead fleet:\n got %s\nwant %s", got, want)
	}
	st := coord.Stats()
	if st.LocalFallbacks != uint64(len(scenarios)) || st.Completed != 0 {
		t.Fatalf("stats %+v: want %d local fallbacks", st, len(scenarios))
	}
	for _, w := range st.Workers {
		if w.Healthy {
			t.Fatalf("dead worker reported healthy: %+v", w)
		}
	}
}

// TestCoordinatorRefusesUnsealedReply: a worker reply whose body is a
// valid result document for the unit but carries no X-Fleet-Checksum
// cannot be told from one damaged in transit. It is a failed dispatch,
// retried and then verified locally — never returned as the verdict.
func TestCoordinatorRefusesUnsealedReply(t *testing.T) {
	scenarios := fleetScenarios()[:1]
	baseResults, _ := runnerBaseline(t, scenarios)
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 1}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/work" {
			inner.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		index, _, s, err := fleet.DecodeWorkUnit(body)
		if err != nil {
			t.Error(err)
			return
		}
		forged := engine.Result{Index: index, Scenario: s.Name, Engine: "forged", Status: engine.StatusViolated}
		data, err := engine.EncodeResult(&forged)
		if err != nil {
			t.Error(err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}))
	t.Cleanup(srv.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	fleet.UseFakeClock(coord)
	results, _ := coord.Run(context.Background(), nil, scenarios)
	if got, want := encodeResult(t, results[0]), encodeResult(t, baseResults[0]); got != want {
		t.Fatalf("unsealed reply became the verdict:\n got %s\nwant %s", got, want)
	}
	// Two failures open the breaker, so the third attempt fails fast.
	if st := coord.Stats(); st.Dispatches != 2 || st.BreakerFastFails != 1 || st.Retries != 2 || st.LocalFallbacks != 1 || st.Completed != 0 {
		t.Fatalf("stats %+v: want two failed dispatches, a fast-fail, then a local fallback", st)
	}
}

// TestFleetRemoteCacheWarmsSecondPass is the shared-tier acceptance
// test: pass one fills a peer cache through two workers; pass two runs
// on two *fresh* workers (fresh local caches — a restarted fleet) and
// must be answered entirely from the remote tier, with byte-identical
// verdict counts.
func TestFleetRemoteCacheWarmsSecondPass(t *testing.T) {
	scenarios := fleetScenarios()
	shared, err := cache.New(cache.Options{Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	sharedSrv := httptest.NewServer(cache.HTTPHandler(shared, ""))
	t.Cleanup(sharedSrv.Close)

	runPass := func() (engine.Summary, []*cache.Cache) {
		caches := make([]*cache.Cache, 2)
		urls := startWorkers(t, 2, func(i int) *fleet.Worker {
			c, err := cache.New(cache.Options{Capacity: 64, RemoteURL: sharedSrv.URL})
			if err != nil {
				t.Fatal(err)
			}
			caches[i] = c
			return fleet.NewWorker(fleet.WorkerOptions{Slots: 2, Cache: c})
		})
		coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
		if err != nil {
			t.Fatal(err)
		}
		_, sum := coord.Run(context.Background(), nil, scenarios)
		return sum, caches
	}

	cold, coldCaches := runPass()
	if cold.CacheHits != 0 {
		t.Fatalf("cold pass had %d cache hits", cold.CacheHits)
	}
	conclusive := cold.Holds + cold.Violated
	// Peer propagation is asynchronous; settle the queues before
	// counting puts or starting the warm pass.
	var remotePuts uint64
	for _, c := range coldCaches {
		c.WaitRemotePuts()
		remotePuts += c.Stats().RemotePuts
	}
	if remotePuts != uint64(conclusive) {
		t.Fatalf("%d remote puts for %d conclusive verdicts", remotePuts, conclusive)
	}

	warm, warmCaches := runPass()
	if warm.CacheHits != conclusive {
		t.Fatalf("warm pass: %d cache hits, want %d", warm.CacheHits, conclusive)
	}
	var remoteHits uint64
	for _, c := range warmCaches {
		remoteHits += c.Stats().RemoteHits
	}
	if remoteHits != uint64(conclusive) {
		t.Fatalf("warm pass: %d remote hits, want %d (fresh local tiers must fetch from the peer)", remoteHits, conclusive)
	}
	// Verdict content is identical; only cache warmth differs.
	cold.CacheHits, warm.CacheHits = 0, 0
	if got, want := encodeSummary(t, warm), encodeSummary(t, cold); got != want {
		t.Fatalf("warm summary diverged:\n got %s\nwant %s", got, want)
	}
}

// TestCoordinatorQuiesce pins the draining contract: a quiesced
// coordinator still completes the stream, reporting unrun units
// inconclusive instead of dropping them.
func TestCoordinatorQuiesce(t *testing.T) {
	scenarios := fleetScenarios()[:4]
	urls := startWorkers(t, 1, func(int) *fleet.Worker {
		return fleet.NewWorker(fleet.WorkerOptions{Slots: 2})
	})
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	coord.Quiesce()
	results, sum := coord.Run(context.Background(), nil, scenarios)
	if sum.Inconclusive != len(scenarios) {
		t.Fatalf("summary %+v: want all inconclusive", sum)
	}
	for _, res := range results {
		if res.Status != engine.StatusInconclusive || res.Err == nil || !strings.Contains(res.Err.Error(), "draining") {
			t.Fatalf("drained result %+v", res)
		}
	}
	if st := coord.Stats(); st.Drained != uint64(len(scenarios)) || st.Dispatches != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestWorkerRejectsOverCapacity drives the admission path directly: a
// one-slot worker with a unit in flight answers 429 + Retry-After.
func TestWorkerRejectsOverCapacity(t *testing.T) {
	w := fleet.NewWorker(fleet.WorkerOptions{Slots: 1})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	// A heavyweight unit occupies the only slot: a three-agent
	// exhaustive exploration that runs until the request is cancelled.
	specs := make([]mca.Config, 3)
	for i := range specs {
		specs[i] = mca.Config{
			ID: mca.AgentID(i), Items: 3, Base: []int64{9, 7, 5},
			Policy: mca.Policy{Target: 3, Utility: mca.NonSubmodularSynergy{}, ReleaseOutbid: true, Rebid: mca.RebidAlways},
		}
	}
	heavy := engine.Scenario{
		Name:       "heavy",
		AgentSpecs: specs,
		Graph:      graph.Complete(3),
		Explore:    explore.Options{MaxStates: 1 << 30},
	}
	unit := encodeUnit(t, 0, engine.Explicit{}, &heavy)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/fleet/work", strings.NewReader(unit))
		_, err := http.DefaultClient.Do(req)
		slow <- err
	}()
	// Wait for the slot to be taken.
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().Busy == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never became busy")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(srv.URL+"/fleet/work", "application/json", strings.NewReader(unit))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	cancel()
	<-slow
	if st := w.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func encodeUnit(t *testing.T, index int, eng engine.Engine, s *engine.Scenario) string {
	t.Helper()
	data, err := fleet.EncodeWorkUnit(index, eng, s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWorkerRejectsBadUnits covers the worker's input validation.
func TestWorkerRejectsBadUnits(t *testing.T) {
	w := fleet.NewWorker(fleet.WorkerOptions{Slots: 2, MaxBody: 256})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not-json":      {"hello", http.StatusBadRequest},
		"wrong-version": {`{"version":9,"index":0,"engine":{},"scenario":{}}`, http.StatusBadRequest},
		"neg-index":     {`{"version":1,"index":-2,"engine":{"version":1,"kind":"auto"},"scenario":{"version":1}}`, http.StatusBadRequest},
		// Without the foreign member this unit is valid and runs.
		"unknown-member": {`{"version":1,"bogus":{"deadline":1},"index":3,"engine":{"version":1,"kind":"auto"},"scenario":{"version":1}}`, http.StatusBadRequest},
		"trailing-data":  {`{"version":1,"index":3,"engine":{"version":1,"kind":"auto"},"scenario":{"version":1}}}`, http.StatusBadRequest},
		"oversized":      {`{"pad":"` + strings.Repeat("x", 512) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/fleet/work", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	resp, err := http.Get(srv.URL + "/fleet/work")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /fleet/work: %d", resp.StatusCode)
	}
}

// TestWorkUnitCodecRoundTrip pins the unit wire format.
func TestWorkUnitCodecRoundTrip(t *testing.T) {
	s := fleetScenarios()[0]
	data, err := fleet.EncodeWorkUnit(7, engine.Simulation{Runs: 4, Seed: 9}, &s)
	if err != nil {
		t.Fatal(err)
	}
	index, eng, got, err := fleet.DecodeWorkUnit(data)
	if err != nil {
		t.Fatal(err)
	}
	if index != 7 {
		t.Fatalf("index %d", index)
	}
	if eng != (engine.Simulation{Runs: 4, Seed: 9}) {
		t.Fatalf("engine %#v", eng)
	}
	want, err := engine.EncodeScenario(&s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := engine.EncodeScenario(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(want) {
		t.Fatalf("scenario round trip:\n got %s\nwant %s", back, want)
	}
}

// FuzzDecodeWorkUnit: a work unit is what a fleet worker reads off the
// network. It either fails to decode, or its re-encoding decodes to the
// same index, engine and scenario; it never panics. On every document
// the wire reader and the reflective strict decode it replaced
// (decodeWorkUnitReference) accept or reject alike, and agree on what
// they accept. Read as a /fleet/work body, the same bytes are
// 1 to MaxBatch units (checkWorkBody): one per line as a coordinator
// writes them, or one unit of any spelling; any other body — a line
// that does not decode, or too many units — is refused whole.
func FuzzDecodeWorkUnit(f *testing.F) {
	s := fleetScenarios()[0]
	var units [][]byte
	for i, eng := range []engine.Engine{
		engine.Auto{}, engine.Explicit{Workers: 2}, engine.Simulation{Runs: 4, Seed: 9},
		engine.SAT{}, engine.SAT{Workers: -1},
	} {
		data, err := fleet.EncodeWorkUnit(i, eng, &s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		units = append(units, data)
	}
	nl := []byte("\n")
	f.Add(bytes.Join(units, nl))
	f.Add(append(bytes.Join(units[:2], nl), '\n'))
	f.Add(bytes.Join([][]byte{units[0], []byte(`{"version":1}`), units[1]}, nl))
	f.Add(bytes.Join([][]byte{units[0], nil, units[1]}, nl))
	f.Add(bytes.Repeat(append(units[2], '\n'), fleet.MaxBatch+1))
	f.Add(bytes.ReplaceAll(units[0], []byte(`,"`), []byte(",\n\"")))
	for _, spec := range []string{
		`{"version":1,"kind":"sat","cube":3}`, // the retired cube-and-conquer field
		`{"version":1,"kind":"simulation","workers":2}`,
		`{"version":9,"kind":"auto"}`,
	} {
		f.Add([]byte(`{"version":1,"index":0,"engine":` + spec + `,"scenario":{"version":1}}`))
	}
	f.Add([]byte(`{"version":1,"index":-2,"engine":{"version":1,"kind":"auto"},"scenario":{"version":1}}`))
	f.Add([]byte(`{"version":9,"index":0,"engine":{},"scenario":{}}`))
	// A null or missing engine or scenario, repeated and case-folded
	// members, and a stray closing brace.
	scen, err := engine.EncodeScenario(&s)
	if err != nil {
		f.Fatal(err)
	}
	const spec = `{"version":1,"kind":"auto"}`
	for _, members := range []string{
		`"engine":` + spec + `,"scenario":null`,
		`"engine":` + spec,
		`"engine":null,"scenario":` + string(scen),
		`"scenario":` + string(scen),
		`"engine":` + spec + `,"scenario":` + string(scen) + `,"scenario":{"version":1}`,
		`"engine":{"version":1,"kind":"simulation","runs":4},"engine":{"version":1,"kind":"simulation","seed":9},"scenario":` + string(scen),
		`"engine":` + spec + `,"Scenario":` + string(scen),
		`"engine":` + spec + `,"scenario":` + string(scen) + `}`,
		`"engine":` + spec + `,"\u0073cenario":` + string(scen),
		`"engine":{"version":1,"kind":"auto","\u212aind":"sat"},"scenario":` + string(scen),
		`"engine":` + spec + `,"scenario":` + string(scen) + `,"index":1e2`,
	} {
		f.Add([]byte(`{"version":1,"index":0,` + members + `}`))
	}
	f.Add(append(bytes.Clone(units[0]), '\f')) // not JSON white space
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkWorkBody(t, doc)
		index, eng, s, err := fleet.DecodeWorkUnit(doc)
		refIndex, refEng, refS, refErr := decodeWorkUnitReference(doc)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("the reader says %v, the reflective decode %v", err, refErr)
		}
		if err == nil {
			got, _ := engine.EncodeScenario(&s)
			want, _ := engine.EncodeScenario(&refS)
			if index != refIndex || eng != refEng || string(got) != string(want) {
				t.Fatalf("the reader decodes %d %#v %s, the reflective decode %d %#v %s", index, eng, got, refIndex, refEng, want)
			}
		}
		if err != nil {
			return
		}
		data, err := fleet.EncodeWorkUnit(index, eng, &s)
		if err != nil {
			t.Fatalf("decoded unit does not encode: %v", err)
		}
		index2, eng2, s2, err := fleet.DecodeWorkUnit(data)
		if err != nil || index2 != index || eng2 != eng {
			t.Fatalf("re-encoding %s decodes to %d %#v (%v), want %d %#v", data, index2, eng2, err, index, eng)
		}
		want, _ := engine.EncodeScenario(&s)
		got, _ := engine.EncodeScenario(&s2)
		if string(got) != string(want) {
			t.Fatalf("scenario moved across the round trip:\n got %s\nwant %s", got, want)
		}
	})
}

// checkWorkBody holds DecodeWorkBody to the body rule of
// FuzzDecodeWorkUnit. A body whose every line decodes alone, at most
// MaxBatch of them, is read as those units; a body that is one unit is
// read as it; anything refused yields no unit; and what is accepted,
// re-assembled one unit per line, reads back as the same units.
func checkWorkBody(t *testing.T, body []byte) {
	units, err := fleet.DecodeWorkBody(body)
	var lineUnits []engine.WorkUnit
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var u engine.WorkUnit
		var lineErr error
		if u.Index, u.Engine, u.Scenario, lineErr = fleet.DecodeWorkUnit(line); lineErr != nil {
			lineUnits = nil
			break
		}
		lineUnits = append(lineUnits, u)
	}
	if len(lineUnits) > fleet.MaxBatch {
		lineUnits = nil
	}
	var one []engine.WorkUnit
	if index, eng, s, oneErr := fleet.DecodeWorkUnit(body); oneErr == nil {
		one = []engine.WorkUnit{{Index: index, Engine: eng, Scenario: s}}
	}
	if err != nil {
		if units != nil || lineUnits != nil || one != nil {
			t.Fatalf("refused (%v) a body read as %d units, %d lines that each decode, %d whole", err, len(units), len(lineUnits), len(one))
		}
		return
	}
	if len(units) > fleet.MaxBatch {
		t.Fatalf("read %d units, at most %d", len(units), fleet.MaxBatch)
	}
	sameUnits(t, "its lines", units, lineUnits)
	sameUnits(t, "the one unit", units, one)
	var again [][]byte
	for _, u := range units {
		again = append(again, []byte(encodeUnit(t, u.Index, u.Engine, &u.Scenario)))
	}
	back, err := fleet.DecodeWorkBody(bytes.Join(again, []byte("\n")))
	if err != nil {
		t.Fatalf("re-assembled body refused: %v", err)
	}
	sameUnits(t, "its re-assembly", units, back)
}

// sameUnits fails unless want is nil or holds the units of got.
func sameUnits(t *testing.T, what string, got, want []engine.WorkUnit) {
	t.Helper()
	if want == nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("read %d units, %s %d", len(got), what, len(want))
	}
	for i := range got {
		a, _ := engine.EncodeScenario(&got[i].Scenario)
		b, _ := engine.EncodeScenario(&want[i].Scenario)
		if got[i].Index != want[i].Index || got[i].Engine != want[i].Engine || string(a) != string(b) {
			t.Fatalf("unit %d reads %d %#v %s, %s %d %#v %s", i, got[i].Index, got[i].Engine, a, what, want[i].Index, want[i].Engine, b)
		}
	}
}

// TestCoordinatorHealth probes a live and a dead worker.
func TestCoordinatorHealth(t *testing.T) {
	urls := startWorkers(t, 1, func(int) *fleet.Worker {
		return fleet.NewWorker(fleet.WorkerOptions{})
	})
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
		Workers: append(urls, "http://127.0.0.1:1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := coord.Health(context.Background())
	if len(hs) != 2 || !hs[0].Healthy || hs[1].Healthy {
		t.Fatalf("health %+v", hs)
	}
}
