package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// workload is one named traffic shape. Every workload is a closed loop
// with one client: callers of this service each wait for their reply.
type workload struct {
	name string
	why  string
	// units names what units_per_s counts on this workload.
	units string
	// fleet runs a coordinator with two worker peers instead of one
	// standalone server.
	fleet bool
	// sweep posts to /sweep, whose reply is an NDJSON stream ending in a
	// summary line. Otherwise the request is /verify on the named engine
	// (explicit or sat) with that many per-engine workers (0: serial).
	sweep   bool
	engine  string
	workers int
	// family keys the known answer of a /verify workload.
	family string
	// body draws the next fresh request; scales is how many scale
	// factors a grid carries (gridScales outside the smoke test).
	body func(src *source, scales int) []byte
	// replay, when positive, is how many bodies set-up posts once (to
	// fill the cache) and the timed loop then replays round-robin.
	replay int
}

func freshRing3(s *source, _ int) []byte { return ring3(s.scale()) }
func freshSAT(s *source, _ int) []byte   { return satCheck(s.fresh()) }
func freshGrid(s *source, n int) []byte  { return grid(s.scales(n)) }

var workloads = []*workload{
	{
		name:  "deep-serial",
		why:   "one hard configuration on the serial DFS: explore with netsim and mca is nearly all the work, HTTP, codec and cache under 1 %",
		units: "states", engine: "explicit", family: "ring3-flat",
		body: freshRing3,
	},
	{
		name:  "deep-sharded",
		why:   "the same requests on the 2-shard pipelined frontier: a frontier gain that costs the DFS, or the reverse, shows here",
		units: "states", engine: "explicit", workers: 2, family: "ring3-flat",
		body: freshRing3,
	},
	{
		name:  "sat-check",
		why:   "the paper's own method: mcamodel build and relalg translation are about 90 % of the work, sat about 10 %, explore none",
		units: "verdicts", engine: "sat", family: "sat-consensus",
		body: freshSAT,
	},
	{
		name:  "sweep-cold",
		why:   "600 small never-seen cells per request: sweep expansion, the Runner fold, CacheKey, cache miss and Put, netsim and NDJSON encoding dominate",
		units: "cells", sweep: true,
		body: freshGrid,
	},
	{
		name:  "sweep-warm",
		why:   "three pre-filled 600-cell grids replayed: the same code as sweep-cold reading where that one writes, every engine bypassed",
		units: "cells", sweep: true,
		body: freshGrid, replay: 3,
	},
	{
		name:  "fleet-sweep",
		why:   "the sweep-cold grid through a coordinator and two workers: work-unit encode, HTTP dispatch, worker admission, checksum verify and retry",
		units: "cells", sweep: true, fleet: true,
		body: freshGrid,
	},
}

// path is the request path and query.
func (w *workload) path() string {
	if w.sweep {
		return "/sweep"
	}
	p := "/verify?engine=" + w.engine
	if w.workers > 0 {
		p += "&workers=" + strconv.Itoa(w.workers)
	}
	return p
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- known answers ----

//go:embed expected.json
var expectedJSON []byte

// verdict is the part of a result document a known answer pins.
type verdict struct {
	Status    string `json:"status"`
	Violation string `json:"violation,omitempty"`
	SATStatus string `json:"sat_status,omitempty"`
	States    int    `json:"states,omitempty"`
}

// tally is the part of a sweep summary a known answer pins, for one
// scale factor's six cells; a grid of n scales must total n times it.
type tally struct {
	Total      int            `json:"total"`
	Holds      int            `json:"holds"`
	Violated   int            `json:"violated"`
	Violations map[string]int `json:"violations"`
}

func (t tally) times(n int) tally {
	out := tally{Total: t.Total * n, Holds: t.Holds * n, Violated: t.Violated * n, Violations: map[string]int{}}
	for k, v := range t.Violations {
		out.Violations[k] = v * n
	}
	return out
}

// expected holds the known answers, keyed by scenario family and never
// by scaled copy.
var expected = func() (e struct {
	Verify map[string]verdict `json:"verify"`
	Grid   struct {
		Cells    map[string]verdict `json:"cells"`
		PerScale tally              `json:"per_scale"`
	} `json:"grid"`
}) {
	dec := json.NewDecoder(bytes.NewReader(expectedJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		panic("bench/expected.json: " + err.Error())
	}
	return e
}()

// resultDoc is what the checker reads from a result document.
type resultDoc struct {
	Scenario  string `json:"scenario"`
	Status    string `json:"status"`
	Violation string `json:"violation"`
	SATStatus string `json:"sat_status"`
	Error     string `json:"error"`
	Stats     struct {
		States      int   `json:"states"`
		WallNS      int64 `json:"wall_ns"`
		TranslateNS int64 `json:"translate_ns"`
		SolveNS     int64 `json:"solve_ns"`
	} `json:"stats"`
}

func (r *resultDoc) verdict(withStates bool) verdict {
	v := verdict{Status: r.Status, Violation: r.Violation, SATStatus: r.SATStatus}
	if withStates {
		v.States = r.Stats.States
	}
	return v
}

// summaryDoc is what the checker reads from a sweep's summary line.
type summaryDoc struct {
	Summary *struct {
		tally
		Inconclusive int   `json:"inconclusive"`
		Errors       int   `json:"errors"`
		CacheHits    int   `json:"cache_hits"`
		WallNS       int64 `json:"wall_ns"`
	} `json:"summary"`
}

// outcome is one checked operation.
type outcome struct {
	err        error // non-nil: the operation failed, and why
	latency    time.Duration
	firstLine  time.Duration
	serverWall time.Duration // the reply's own wall_ns
	units      int           // states, cells or verdicts
	bytes      int
}

// checkVerify compares one /verify reply against its family's known
// answer: status, violation kind, SAT status and exact state count.
func checkVerify(rep reply, family string) outcome {
	out := outcome{latency: rep.latency, firstLine: rep.firstLine, bytes: len(rep.body)}
	if rep.status != 200 {
		out.err = fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
		return out
	}
	var res resultDoc
	if err := json.Unmarshal(rep.body, &res); err != nil {
		out.err = fmt.Errorf("bad result document: %v", err)
		return out
	}
	want := expected.Verify[family]
	if got := res.verdict(want.States != 0); got != want {
		out.err = fmt.Errorf("%s: got %+v (error %q), want %+v", res.Scenario, got, res.Error, want)
		return out
	}
	out.serverWall = time.Duration(res.Stats.WallNS)
	out.units = 1
	if want.States != 0 {
		out.units = res.Stats.States
	}
	return out
}

// checkSweep compares one /sweep reply against the grid's known
// answers: every cell's verdict, the cell count, the summary totals and
// how many cells the cache served. A stream without a summary line was
// truncated and fails.
func checkSweep(rep reply, scales int, wantHits int) outcome {
	out := outcome{latency: rep.latency, firstLine: rep.firstLine, bytes: len(rep.body)}
	if rep.status != 200 {
		out.err = fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
		return out
	}
	lines := bytes.Split(bytes.TrimSuffix(rep.body, []byte("\n")), []byte("\n"))
	var sum summaryDoc
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum.Summary == nil {
		out.err = fmt.Errorf("stream truncated: no summary line after %d lines", len(lines))
		return out
	}
	want := expected.Grid.PerScale.times(scales)
	got := sum.Summary.tally
	if got.Violations == nil {
		got.Violations = map[string]int{}
	}
	if !reflect.DeepEqual(got, want) || sum.Summary.Inconclusive != 0 || sum.Summary.Errors != 0 {
		out.err = fmt.Errorf("summary %s, want totals %+v and nothing inconclusive or in error", lines[len(lines)-1], want)
		return out
	}
	if sum.Summary.CacheHits != wantHits {
		out.err = fmt.Errorf("summary reports %d cache hits, want %d", sum.Summary.CacheHits, wantHits)
		return out
	}
	cells := lines[:len(lines)-1]
	if len(cells) != want.Total {
		out.err = fmt.Errorf("%d result lines, want %d", len(cells), want.Total)
		return out
	}
	for _, line := range cells {
		var res resultDoc
		if err := json.Unmarshal(line, &res); err != nil {
			out.err = fmt.Errorf("bad result line: %v", err)
			return out
		}
		// "mca/<utility>-x<scale>/<network>" -> "<utility>/<network>"
		parts := strings.Split(res.Scenario, "/")
		if len(parts) != 3 {
			out.err = fmt.Errorf("unexpected cell name %q", res.Scenario)
			return out
		}
		utility, _, _ := strings.Cut(parts[1], "-x")
		cell, ok := expected.Grid.Cells[utility+"/"+parts[2]]
		if got := res.verdict(false); !ok || got != cell {
			out.err = fmt.Errorf("%s: got %+v (error %q), want %+v", res.Scenario, got, res.Error, cell)
			return out
		}
	}
	out.serverWall = time.Duration(sum.Summary.WallNS)
	out.units = want.Total
	return out
}

// ---- one set-up of one workload ----

// instance is a workload set up and ready to take timed requests: its
// fresh children, its input source and, for a replaying workload, the
// bodies whose results the cache already holds.
type instance struct {
	w        *workload
	scales   int // scale factors per grid; gridScales outside the smoke test
	children []*child
	front    *child // the child the client talks to
	src      *source
	bodies   [][]byte
	next     int
	bringUp  time.Duration // first child start to last child ready
}

// warmUps is how many untimed requests of the workload's own family
// precede timing.
const warmUps = 2

// setUp starts the workload's children, generates its inputs, pre-fills
// the cache where the workload replays, and warms up. Its duration is
// one setup_s sample: everything a caller would wait for before the
// first timed request, and nothing of compiling mcaserved.
func (r *rig) setUp(w *workload, src *source, scales int) (*instance, error) {
	in := &instance{w: w, src: src, scales: scales}
	begin := time.Now()
	start := func(role string, extra ...string) error {
		c, err := r.start(role, extra...)
		if err == nil {
			in.children = append(in.children, c)
			in.front = c // the last one started takes the requests
		}
		return err
	}
	var err error
	if w.fleet {
		for i := 0; i < 2 && err == nil; i++ {
			err = start("worker")
		}
		if err == nil {
			err = start("coordinator", "-peers", in.children[0].url+","+in.children[1].url)
		}
	} else {
		err = start("standalone")
	}
	if err != nil {
		return nil, err
	}
	in.bringUp = time.Since(begin)

	for i := 0; i < w.replay; i++ {
		body := in.freshBody()
		if out := in.send(body, 0); out.err != nil {
			return nil, fmt.Errorf("%s: pre-fill: %v", w.name, out.err)
		}
		in.bodies = append(in.bodies, body)
	}
	for i := 0; i < warmUps; i++ {
		if out := in.op(); out.err != nil {
			return nil, fmt.Errorf("%s: warm-up: %v", w.name, out.err)
		}
	}
	return in, nil
}

func (in *instance) freshBody() []byte { return in.w.body(in.src, in.scales) }

// send posts one body and checks the reply; wantHits is how many cells
// of a sweep the cache must have served.
func (in *instance) send(body []byte, wantHits int) outcome {
	rep, err := post(in.front.url+in.w.path(), body)
	if err != nil {
		return outcome{err: err}
	}
	if in.w.sweep {
		return checkSweep(rep, in.scales, wantHits)
	}
	return checkVerify(rep, in.w.family)
}

// op is one operation of the workload: the next replayed body where the
// workload replays, a fresh one otherwise. Generating the body is not
// part of the operation's latency.
func (in *instance) op() outcome {
	if len(in.bodies) > 0 {
		body := in.bodies[in.next%len(in.bodies)]
		in.next++
		return in.send(body, expected.Grid.PerScale.Total*in.scales)
	}
	return in.send(in.freshBody(), 0)
}
