package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"repro/internal/explore"
	"repro/internal/sat"
)

// The reflective result encoder the hand writer (appendResult)
// replaced — json.Marshal of mirror structs — kept as the oracle: the
// writer must produce its bytes, and fail where it fails.

type resultJSON struct {
	Version   int                   `json:"version"`
	Scenario  string                `json:"scenario,omitempty"`
	Engine    string                `json:"engine,omitempty"`
	Index     int                   `json:"index"`
	Status    Status                `json:"status"`
	Violation explore.ViolationKind `json:"violation,omitempty"`
	SATStatus sat.Status            `json:"sat_status,omitempty"`
	Cached    bool                  `json:"cached,omitempty"`
	Stats     *statsJSON            `json:"stats,omitempty"`
	Trace     *traceJSON            `json:"trace,omitempty"`
	Err       string                `json:"error,omitempty"`
}

type statsJSON struct {
	States      int     `json:"states,omitempty"`
	MaxDepth    int     `json:"max_depth,omitempty"`
	Exhausted   bool    `json:"exhausted,omitempty"`
	Capped      bool    `json:"capped,omitempty"`
	MissProb    float64 `json:"miss_prob,omitempty"`
	PrimaryVars int     `json:"primary_vars,omitempty"`
	AuxVars     int     `json:"aux_vars,omitempty"`
	Clauses     int     `json:"clauses,omitempty"`
	Conflicts   int64   `json:"conflicts,omitempty"`
	Props       int64   `json:"propagations,omitempty"`
	LearntCl    int64   `json:"learnt_clauses,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	Converged   int     `json:"converged,omitempty"`
	Deliveries  int     `json:"deliveries,omitempty"`
	Dropped     int     `json:"dropped,omitempty"`
	Duplicated  int     `json:"duplicated,omitempty"`
}

type traceJSON struct {
	ItemNames []string        `json:"item_names,omitempty"`
	Steps     []traceStepJSON `json:"steps,omitempty"`
}

type traceStepJSON struct {
	Label  string           `json:"label,omitempty"`
	Agents []traceAgentJSON `json:"agents,omitempty"`
}

type traceAgentJSON struct {
	ID     int     `json:"id"`
	Bids   []int64 `json:"bids,omitempty"`
	Winner []int   `json:"winner,omitempty"`
	Bundle []int   `json:"bundle,omitempty"`
}

// marshalResult is the encoding of r as json.Marshal writes the mirror
// structs, every string first made valid UTF-8.
func marshalResult(r *Result) ([]byte, error) {
	w := resultJSON{
		Version:   SchemaVersion,
		Scenario:  validUTF8(r.Scenario),
		Engine:    validUTF8(r.Engine),
		Index:     r.Index,
		Status:    r.Status,
		Violation: r.Violation,
		SATStatus: r.SATStatus,
		Cached:    r.Cached,
	}
	if st := (statsJSON{
		States:      r.Stats.States,
		MaxDepth:    r.Stats.MaxDepth,
		Exhausted:   r.Stats.Exhausted,
		Capped:      r.Stats.Capped,
		MissProb:    r.Stats.MissProb,
		PrimaryVars: r.Stats.PrimaryVars,
		AuxVars:     r.Stats.AuxVars,
		Clauses:     r.Stats.Clauses,
		Conflicts:   r.Stats.Conflicts,
		Props:       r.Stats.Propagations,
		LearntCl:    r.Stats.LearntClauses,
		Runs:        r.Stats.Runs,
		Converged:   r.Stats.Converged,
		Deliveries:  r.Stats.Deliveries,
		Dropped:     r.Stats.Dropped,
		Duplicated:  r.Stats.Duplicated,
	}); st != (statsJSON{}) {
		w.Stats = &st
	}
	if r.Trace != nil {
		tw := &traceJSON{}
		for _, name := range r.Trace.ItemNames {
			tw.ItemNames = append(tw.ItemNames, validUTF8(name))
		}
		for _, step := range r.Trace.Steps() {
			sw := traceStepJSON{Label: validUTF8(step.Label)}
			for _, a := range step.Agents {
				sw.Agents = append(sw.Agents, traceAgentJSON{ID: a.ID, Bids: a.Bids, Winner: a.Winner, Bundle: a.Bundle})
			}
			tw.Steps = append(tw.Steps, sw)
		}
		w.Trace = tw
	}
	w.Err = validUTF8(errText(r.Err))
	return json.Marshal(w)
}

// validUTF8 is s with each byte that is not part of valid UTF-8
// replaced by U+FFFD, which json.Marshal writes as itself where it
// would write such a byte as the escape \ufffd.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// raceEnabled reports a race-detector build (race_test.go).
var raceEnabled bool

// checkMarshal holds EncodeResult of r to marshalResult: the same bytes,
// or an error from both.
func checkMarshal(t testing.TB, r Result) {
	t.Helper()
	got, err := EncodeResult(&r)
	want, refErr := marshalResult(&r)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("EncodeResult says %v, json.Marshal %v, of %+v", err, refErr, r)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeResult\n%q\njson.Marshal\n%q", got, want)
	}
}

// TestEncodeResultMatchesMarshal: the writer is json.Marshal of the
// mirror structs, byte for byte, on every shape of verdict under every
// awkward name, index and cached flag — written whole and spliced into
// a kept line — on miss_prob at encoding/json's format boundaries and
// on every cell of the benchmark-shaped grid; and it fails where
// json.Marshal fails.
func TestEncodeResultMatchesMarshal(t *testing.T) {
	for _, stored := range hitShapes() {
		hit := withLine(stored)
		for _, name := range awkwardNames {
			for _, index := range []int{-1, 0, 7, 123456} {
				for _, cached := range []bool{true, false} {
					r := stored
					r.Scenario, r.Index, r.Cached = name, index, cached
					checkMarshal(t, r)
					hit.Scenario, hit.Index, hit.Cached = name, index, cached
					checkMarshal(t, hit)
				}
			}
		}
	}
	for _, p := range []float64{1e-7, 1e-6, 1e20, 1e21, 5e-324, -2.5e-8} {
		checkMarshal(t, Result{Engine: "explicit", Status: StatusHolds, Stats: Stats{States: 9, MissProb: p}})
	}
	sw, err := DecodeSweep(benchShapedGrid(60))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range drainSweep(t, NewRunner(RunnerOptions{Workers: 2}), sw) {
		want, err := marshalResult(&line.Result)
		if err != nil || !bytes.Equal(line.Data, want) {
			t.Fatalf("cell %d: %v\n got %s\nwant %s", line.Result.Index, err, line.Data, want)
		}
	}
	unencodable := map[string]Result{
		"nan":       {Status: StatusHolds, Stats: Stats{MissProb: math.NaN()}},
		"+inf":      {Status: StatusHolds, Stats: Stats{MissProb: math.Inf(1)}},
		"-inf":      {Status: StatusHolds, Stats: Stats{MissProb: math.Inf(-1)}},
		"status":    {Status: Status(9)},
		"violation": {Status: StatusViolated, Violation: explore.ViolationKind(99)},
		"sat":       {Status: StatusHolds, SATStatus: sat.Status(7)},
	}
	for name, r := range unencodable {
		if _, err := EncodeResult(&r); err == nil {
			t.Fatalf("%s: encoded", name)
		}
		checkMarshal(t, r)
		checkMarshal(t, withLine(r))
	}
}

// TestColdLineAllocations pins what a cold line costs in allocations:
// the cached verdict's encodedLine, its kept bytes, and the spliced
// copy the first hit returns. The writer appends into a pooled buffer
// and records its spans as it writes, so no shape pays for reflection,
// a string copy or a read of its own bytes.
func TestColdLineAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	for shape, stored := range hitShapes() {
		if n := testing.AllocsPerRun(200, func() {
			hit := withLine(stored)
			hit.Scenario, hit.Index, hit.Cached = "cell", 3, true
			if _, err := EncodeResult(&hit); err != nil {
				t.Fatal(err)
			}
		}); n > 3 {
			t.Errorf("%s: a cold line made %v allocations, want at most 3", shape, n)
		}
	}
}

// encodeSink keeps BenchmarkEncodeResult's lines live.
var encodeSink []byte

// BenchmarkEncodeResult times EncodeResult of each shape of verdict
// cold — a fresh cached verdict's first hit, which writes its line — and
// as a spliced hit of a line already kept.
func BenchmarkEncodeResult(b *testing.B) {
	for _, shape := range []string{"bare", "sat-stats", "trace"} {
		stored := hitShapes()[shape]
		b.Run(shape+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hit := withLine(stored)
				hit.Scenario, hit.Index, hit.Cached = "cell", i, true
				var err error
				if encodeSink, err = EncodeResult(&hit); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape+"/hit", func(b *testing.B) {
			b.ReportAllocs()
			hit := withLine(stored)
			for i := 0; i < b.N; i++ {
				hit.Scenario, hit.Index, hit.Cached = "cell", i, true
				var err error
				if encodeSink, err = EncodeResult(&hit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
