package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mca"
)

// cheap is an engine every grid cell costs well under a millisecond on,
// race detector included, so a coordinator batches them.
var cheap = engine.Simulation{Runs: 1, Seed: 1}

// bodyUnits is the units of a /fleet/work body, one per line.
func bodyUnits(body []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
}

// recordingWorker serves /fleet/work through a fresh worker of the given
// slots, after passing each body to see; its URL is returned.
func recordingWorker(t *testing.T, slots int, see func(body []byte)) string {
	t.Helper()
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: slots}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/work" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
				return
			}
			see(body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestWorkBodyCarriesUnitsInOrder: a worker verifies the units of one
// body in order and answers one line per unit, under one checksum of
// the whole reply; a one-unit body, in any spelling, is answered with
// that unit's line alone. A body with a unit that does not decode, a
// stray byte between units, or more than MaxBatch units is one 400, and
// no unit of it runs.
func TestWorkBodyCarriesUnitsInOrder(t *testing.T) {
	w := fleet.NewWorker(fleet.WorkerOptions{Slots: 1})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	cells := decodeGrid(t, 6, awkwardName).Scenarios()
	unit := func(index int) string { return encodeUnit(t, index, cheap, &cells[index]) }
	post := func(body string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/fleet/work", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(reply), resp.Header
	}
	line := func(index int) string {
		res := cheap.Verify(context.Background(), cells[index])
		res.Index = index
		return encodeResult(t, res) + "\n"
	}

	for _, indexes := range [][]int{{4}, {5, 2, 9}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}} {
		for _, sep := range []string{"\n", "\n\n \t", ""} {
			var body, want strings.Builder
			for i, index := range indexes {
				if i > 0 {
					body.WriteString(sep)
				}
				body.WriteString(unit(index))
				want.WriteString(line(index))
			}
			body.WriteString(sep)
			code, reply, h := post(body.String())
			if code != http.StatusOK || engine.CheckDigest(h.Get("X-Fleet-Checksum"), []byte(reply)) != nil {
				t.Fatalf("%d units: status %d, checksum %q over %q", len(indexes), code, h.Get("X-Fleet-Checksum"), reply)
			}
			if reply != want.String() {
				t.Fatalf("%d units answered\n%s\nwant\n%s", len(indexes), reply, want.String())
			}
		}
	}

	pretty := strings.ReplaceAll(unit(3), `,"`, ",\n  \"")
	if code, reply, _ := post(pretty); code != http.StatusOK || reply != line(3) {
		t.Fatalf("one unit over several lines: status %d, reply %s", code, reply)
	}

	ran := w.Stats().Units
	var tooMany []string
	for i := 0; i <= fleet.MaxBatch; i++ {
		tooMany = append(tooMany, unit(i%len(cells)))
	}
	for name, body := range map[string]string{
		"bad-unit":   unit(0) + "\n" + `{"version":1}` + "\n" + unit(1),
		"stray-byte": unit(0) + "\n}\n" + unit(1),
		"blank-body": "\n",
		"too-many":   strings.Join(tooMany, "\n"),
	} {
		if code, reply, _ := post(body); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, code, reply)
		}
	}
	if st := w.Stats(); st.Units != ran {
		t.Fatalf("refused bodies ran %d units", st.Units-ran)
	}
}

// heavyScenario is an exhaustive check that costs milliseconds: a
// three-agent synergy auction on a complete graph, capped at 4000
// states.
func heavyScenario(i int) engine.Scenario {
	specs := make([]mca.Config, 3)
	for id := range specs {
		specs[id] = mca.Config{
			ID: mca.AgentID(id), Items: 3, Base: []int64{9, 7, int64(5 + i)},
			Policy: mca.Policy{Target: 3, Utility: mca.NonSubmodularSynergy{}, ReleaseOutbid: true, Rebid: mca.RebidAlways},
		}
	}
	return engine.Scenario{Name: fmt.Sprintf("heavy-%d", i), AgentSpecs: specs, Graph: graph.Complete(3), Explore: explore.Options{MaxStates: 4000}}
}

// TestExpensiveUnitsTravelAlone: a Runner's first dispatches carry one
// unit each, and so does every dispatch once its units measure over a
// millisecond of worker time: 8 such cells on a credit of 4 go in 8
// dispatches, 4 at a time, both on a fresh Runner and on one that has
// measured them. The worker holds the requests in groups of four, each
// until its fourth arrives: four must be in flight at once, however the
// dispatches interleave, or the test fails.
func TestExpensiveUnitsTravelAlone(t *testing.T) {
	var heavy []engine.Scenario
	for i := 0; i < 8; i++ {
		heavy = append(heavy, heavyScenario(i))
	}
	var widest, arrived atomic.Int64
	url := recordingWorker(t, 4, func(body []byte) {
		n := int64(len(bodyUnits(body)))
		for p := widest.Load(); n > p && !widest.CompareAndSwap(p, n); p = widest.Load() {
		}
		deadline := time.Now().Add(10 * time.Second)
		for group := (arrived.Add(1) + 3) / 4 * 4; arrived.Load() < group; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("a dispatch waited 10 s for four to be in flight")
				return
			}
		}
	})
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{url}})
	if err != nil {
		t.Fatal(err)
	}
	runner := coord.Runner(context.Background(), engine.Explicit{})
	for pass := 1; pass <= 2; pass++ {
		if _, sum := runner.Run(context.Background(), heavy); sum.Total != len(heavy) || sum.Errors != 0 {
			t.Fatalf("pass %d: summary %+v", pass, sum)
		}
		if st := coord.Stats(); st.Dispatches != uint64(pass*len(heavy)) || st.Completed != st.Dispatches || st.LocalFallbacks != 0 {
			t.Fatalf("pass %d: stats %+v, want one dispatch per expensive unit", pass, st)
		}
	}
	if widest.Load() != 1 {
		t.Fatalf("widest body %d units: want 1 unit each", widest.Load())
	}
}

// TestCarrierReturnsWithItsUnit: a unit's caller gets its outcome as
// soon as the dispatch that carried it answers, not once its lane is
// empty. The first unit travels alone while four more queue behind it;
// its caller has its result while the dispatch carrying the other four
// is still held on the worker.
func TestCarrierReturnsWithItsUnit(t *testing.T) {
	cells := decodeGrid(t, 3, "mca").Scenarios()[:5]
	var requests atomic.Int64
	first, queued := make(chan struct{}), make(chan struct{})
	held, release := make(chan struct{}), make(chan struct{})
	url := recordingWorker(t, 1, func([]byte) {
		switch requests.Add(1) {
		case 1:
			close(first)
			<-queued
		case 2:
			close(held)
			<-release
		}
	})
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{url}})
	if err != nil {
		t.Fatal(err)
	}
	remote, waiting := fleet.RemoteEngine(coord, cheap, 1)
	ctx := context.Background()
	own := make(chan engine.Result, 1)
	go func() { own <- remote.Verify(ctx, cells[0]) }()
	<-first
	var wg sync.WaitGroup
	for _, s := range cells[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := remote.Verify(ctx, s); res.Err != nil {
				t.Error(res.Err)
			}
		}()
	}
	defer wg.Wait()
	defer close(release)
	for waiting() < len(cells)-1 {
		time.Sleep(time.Millisecond)
	}
	close(queued)
	<-held
	select {
	case res := <-own:
		if res.Err != nil || res.Scenario != cells[0].Name {
			t.Fatalf("the first unit came back as %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first unit's caller waited for the rest of its lane")
	}
}

// TestSlowBatchKeepsEachUnitsDeadline: a dispatch's deadline is
// UnitTimeout for each unit it carries. Units the worker reports as
// cheap but answers 30 ms apiece, behind a 100 ms UnitTimeout, travel
// eleven to a dispatch after the first: that dispatch outlasts one
// UnitTimeout, yet none times out, the worker's health is untouched,
// nothing is retried and nothing runs locally.
func TestSlowBatchKeepsEachUnitsDeadline(t *testing.T) {
	const perUnit = 30 * time.Millisecond
	cells := decodeGrid(t, 4, "mca").Scenarios()
	var widest atomic.Int64
	url := recordingWorker(t, 1, func(body []byte) {
		n := int64(len(bodyUnits(body)))
		for p := widest.Load(); n > p && !widest.CompareAndSwap(p, n); p = widest.Load() {
		}
		time.Sleep(time.Duration(n) * perUnit)
	})
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{url}, UnitTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	results, sum := coord.Run(context.Background(), cheap, cells)
	for i, res := range results {
		if res.Err != nil || res.Status == engine.StatusInconclusive {
			t.Fatalf("cell %d: %+v", i, res)
		}
	}
	st := coord.Stats()
	if time.Duration(widest.Load())*perUnit <= 100*time.Millisecond {
		t.Fatalf("widest dispatch %d units: no dispatch outlasted one UnitTimeout", widest.Load())
	}
	if w := st.Workers[0]; sum.Total != len(cells) || st.Retries != 0 || st.LocalFallbacks != 0 || w.Failures != 0 || w.Breaker != "closed" {
		t.Fatalf("stats %+v, summary %+v: want every unit answered by the worker on its first attempt", st, sum)
	}
}

// TestQueuedUnitsStopOnce: the coordinator stops — Quiesce, or the
// batch's context ends — while one dispatch is held on the worker and
// the rest of a 40-cell batch is queued or being queued. Every cell
// comes back exactly once: the held dispatch's units as the stop leaves
// them, every other unit inconclusive without ever reaching the worker,
// none verified twice, none lost. Run it with -race -count=20: the stop
// lands at different points of the queue's life, including a unit
// queued as the last carrier gives its token back.
func TestQueuedUnitsStopOnce(t *testing.T) {
	cells := decodeGrid(t, 14, "mca").Scenarios()[:40]
	for _, stop := range []string{"quiesce", "cancel"} {
		for hold := int64(1); hold <= 3; hold++ {
			t.Run(fmt.Sprintf("%s/dispatch-%d", stop, hold), func(t *testing.T) {
				var mu sync.Mutex
				received := map[string]int{}
				var requests atomic.Int64
				held, release := make(chan struct{}), make(chan struct{})
				url := recordingWorker(t, 1, func(body []byte) {
					units, err := fleet.DecodeWorkBody(body)
					if err != nil {
						t.Error(err)
					}
					mu.Lock()
					for _, u := range units {
						received[u.Scenario.Name]++
					}
					mu.Unlock()
					if requests.Add(1) == hold {
						close(held)
						<-release
					}
				})
				coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{url}})
				if err != nil {
					t.Fatal(err)
				}
				fleet.UseFakeClock(coord)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go func() {
					<-held
					if stop == "quiesce" {
						coord.Quiesce()
					} else {
						cancel()
					}
					close(release)
				}()
				results, sum := coord.Run(ctx, cheap, cells)

				st := coord.Stats()
				mu.Lock()
				defer mu.Unlock()
				for name, n := range received {
					if n != 1 {
						t.Fatalf("%q reached the worker %d times", name, n)
					}
				}
				stopped := 0
				for i, res := range results {
					if res.Scenario != cells[i].Name {
						t.Fatalf("result %d is %q, want %q", i, res.Scenario, cells[i].Name)
					}
					if res.Status != engine.StatusInconclusive {
						continue
					}
					if res.Err == nil || !strings.Contains(res.Err.Error(), map[string]string{"quiesce": "draining", "cancel": "canceled"}[stop]) {
						t.Fatalf("result %d: inconclusive with %v", i, res.Err)
					}
					if received[res.Scenario] == 0 {
						stopped++
					}
				}
				if stopped+len(received) != len(cells) || sum.Total != len(cells) || st.LocalFallbacks != 0 || st.Retries != 0 {
					t.Fatalf("stats %+v, summary %+v: %d units reached the worker, %d stopped before it, want %d in all",
						st, sum, len(received), stopped, len(cells))
				}
				if stop == "quiesce" && st.Drained != uint64(stopped) {
					t.Fatalf("stats %+v: %d drained, want the %d stopped units", st, st.Drained, stopped)
				}
			})
		}
	}
}

// indexMember is a result line's unit index.
var indexMember = regexp.MustCompile(`"index":-?\d+`)

// reseal answers with reply and a checksum that holds for it.
func reseal(w http.ResponseWriter, reply []byte) {
	w.Header().Set("X-Fleet-Checksum", engine.Digest(reply))
	w.Write(reply)
}

// relay answers w with the reply rec recorded, stating work as its
// X-Fleet-Work-Ns: no header when work is empty.
func relay(w http.ResponseWriter, rec *httptest.ResponseRecorder, work ...string) {
	maps.Copy(w.Header(), rec.Header())
	w.Header()["X-Fleet-Work-Ns"] = work
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// queuedSweep streams sw with cheap through a coordinator of one
// one-slot worker, and returns the lines and the coordinator's stats.
// answer sends each /fleet/work reply, given the request's unit count,
// its number and what the worker recorded. The first request is held
// until every other cell waits behind it, so the share rule alone sizes
// the next dispatch.
func queuedSweep(t *testing.T, sw *engine.Sweep, answer func(w http.ResponseWriter, units, n int64, rec *httptest.ResponseRecorder)) ([]string, fleet.Stats) {
	t.Helper()
	var requests atomic.Int64
	var queued func() int
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 1}).Handler()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/work" {
			inner.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		n := requests.Add(1)
		for deadline := time.Now().Add(10 * time.Second); n == 1 && queued() < sw.Len()-1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the other cells did not queue behind the first")
				break
			}
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		answer(w, int64(len(bodyUnits(body))), n, rec)
	}))
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{"http://" + srv.Listener.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	fleet.UseFakeClock(coord)
	remote, waiting := fleet.RemoteEngine(coord, cheap, 1)
	queued = waiting
	srv.Start()
	t.Cleanup(srv.Close)
	return sweepLines(t, engine.NewRunner(engine.RunnerOptions{Workers: 2 * fleet.MaxBatch, Engine: remote}), sw), coord.Stats()
}

// TestBatchFaultsRetryEachUnit: a dispatch answered with a 500, a 429, a
// bad checksum, too few lines or a result for another unit fails as a
// whole, and each of its units is retried on its own. Faulting the
// first batch only, the retries finish the sweep on the worker; faulting
// every dispatch after the first, each other unit spends its three
// attempts and is verified locally. Either way the lines are a
// standalone Runner's. The worker states every unit it answers free,
// however long it took, so batches form.
func TestBatchFaultsRetryEachUnit(t *testing.T) {
	sw := decodeGrid(t, 4, "mca")
	want := sweepLines(t, engine.NewRunner(engine.RunnerOptions{Workers: 2, Engine: cheap}), sw)
	faults := map[string]func(w http.ResponseWriter, reply []byte){
		"500": func(w http.ResponseWriter, _ []byte) { http.Error(w, "sick", http.StatusInternalServerError) },
		"429": func(w http.ResponseWriter, _ []byte) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "at capacity", http.StatusTooManyRequests)
		},
		"checksum": func(w http.ResponseWriter, reply []byte) {
			w.Header().Set("X-Fleet-Checksum", engine.Digest([]byte("other")))
			w.Write(reply)
		},
		"too-few-lines": func(w http.ResponseWriter, reply []byte) {
			lines := bytes.SplitAfter(reply, []byte("\n"))
			reseal(w, bytes.Join(lines[:len(lines)-2], nil))
		},
		"wrong-index": func(w http.ResponseWriter, reply []byte) {
			lines := bytes.SplitAfter(reply, []byte("\n"))
			if len(lines) > 2 {
				lines[0], lines[1] = lines[1], lines[0]
			} else {
				lines[0] = indexMember.ReplaceAll(lines[0], []byte(`"index":999999`))
			}
			reseal(w, bytes.Join(lines, nil))
		},
	}
	for name, fault := range faults {
		for _, always := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/always=%v", name, always), func(t *testing.T) {
				var faulted atomic.Int64
				got, st := queuedSweep(t, sw, func(w http.ResponseWriter, units, n int64, rec *httptest.ResponseRecorder) {
					if always && n == 1 || !always && (units == 1 || !faulted.CompareAndSwap(0, units)) {
						relay(w, rec, "0")
						return
					}
					fault(w, rec.Body.Bytes())
				})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cell %d:\n got %s\nwant %s", i, got[i], want[i])
					}
				}
				cells := uint64(sw.Len())
				if always {
					if st.Completed != 1 || st.LocalFallbacks != cells-1 || st.Retries != 2*(cells-1) {
						t.Fatalf("stats %+v: want the first unit completed, and each other retried twice, then verified locally", st)
					}
					return
				}
				if k := uint64(faulted.Load()); k < 2 || st.Retries != k || st.Completed != cells || st.LocalFallbacks != 0 {
					t.Fatalf("stats %+v: want each of the %d units of the faulted batch retried once, and every cell completed remotely", st, k)
				}
			})
		}
	}
}

// TestWorkHeaderOnlySizesBatches: the checksum does not cover
// X-Fleet-Work-Ns, so the coordinator reads it as a hint. A missing,
// empty, non-numeric, negative or overflowing value is an unknown cost:
// every dispatch carries one unit, and none fails, is retried or changes
// a line. A stated cost of 0 batches the same sweep.
func TestWorkHeaderOnlySizesBatches(t *testing.T) {
	sw := decodeGrid(t, 4, "mca")
	want := sweepLines(t, engine.NewRunner(engine.RunnerOptions{Workers: 2, Engine: cheap}), sw)
	for name, work := range map[string][]string{
		"absent": nil, "empty": {""}, "non-numeric": {"1ms"}, "negative": {"-1"},
		"overflowing": {"9223372036854775808"}, "free": {"0"},
	} {
		got, st := queuedSweep(t, sw, func(w http.ResponseWriter, _, _ int64, rec *httptest.ResponseRecorder) { relay(w, rec, work...) })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: lines\n%q\nwant\n%q", name, got, want)
		}
		if st.Completed != uint64(sw.Len()) || st.Retries+st.LocalFallbacks+st.Workers[0].Failures != 0 ||
			(st.Dispatches < st.Completed) != (name == "free") {
			t.Fatalf("%s: stats %+v: want every cell answered on its first attempt, one to a dispatch unless free", name, st)
		}
	}
}
