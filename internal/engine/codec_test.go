package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
	"repro/internal/sat"
	"repro/internal/trace"
)

func specs(n, items int, pol mca.Policy) []mca.Config {
	out := make([]mca.Config, n)
	for i := 0; i < n; i++ {
		base := make([]int64, items)
		for j := range base {
			base[j] = int64(10 + 5*((i+j)%items))
		}
		out[i] = mca.Config{ID: mca.AgentID(i), Items: items, Base: base, Policy: pol}
	}
	return out
}

func submodPolicy(items int) mca.Policy {
	return mca.Policy{Target: items, Utility: mca.SubmodularResidual{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange}
}

// smallModel builds an mca-model encoding at a small scope, asserting
// consensus on state k (0 is the final state).
func smallModel(encoding string, k int) *mcamodel.Encoding {
	m, err := mcamodel.Encodings[encoding](mcamodel.Scope{PNodes: 2, VNodes: 1, Values: 2, States: 3, Msgs: 1, IntBitwidth: 2})
	if err == nil && k != 0 {
		m, err = m.WithAssertState(k)
	}
	if err != nil {
		panic(err)
	}
	return m
}

// codecScenarios is the table the round-trip tests sweep: it varies
// utilities, rebid modes, fault models, bounds, and solver options.
func codecScenarios() map[string]Scenario {
	weighted := graph.New(3)
	weighted.AddEdge(0, 1)
	weighted.AddWeightedEdge(1, 2, 2.5)
	// An explicit weight of 0 must survive the round trip distinct from
	// the default weight 1.
	weighted.AddWeightedEdge(0, 2, 0)
	return map[string]Scenario{
		"minimal": {Name: "minimal"},
		"plain-explicit": {
			Name:       "plain",
			AgentSpecs: specs(2, 2, submodPolicy(2)),
			Graph:      graph.Complete(2),
		},
		"weighted-graph-bounds": {
			Name:       "bounds",
			AgentSpecs: specs(3, 2, submodPolicy(2)),
			Graph:      weighted,
			Explore: explore.Options{
				Bound: 17, BoundSlack: 2, HardLimitFactor: 3, MaxStates: 1234,
				QueueDepth: -1, DisableVisitedSet: true, DuplicateDeliveries: true,
			},
		},
		"all-utilities": {
			Name: "utilities",
			AgentSpecs: []mca.Config{
				{ID: 0, Items: 2, Base: []int64{10, 20},
					Policy: mca.Policy{Target: 2, Utility: mca.SubmodularResidual{Decay: 7}, Rebid: mca.RebidOnChange}},
				{ID: 1, Items: 2, Base: []int64{20, 10}, Demands: []int64{1, 2}, Capacity: 3,
					Policy: mca.Policy{Target: 1, Utility: mca.NonSubmodularSynergy{SynergyNum: 2, SynergyDen: 3}, ReleaseOutbid: true, Rebid: mca.RebidNever, BidsPerRound: 1}},
				{ID: 2, Items: 2, Base: []int64{5, 5},
					Policy: mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidAlways}},
				{ID: 3, Items: 2, Base: []int64{1, 1},
					Policy: mca.Policy{Target: 2, Utility: mca.EscalatingUtility{Step: 2, Cap: 99}, Rebid: mca.RebidAlways}},
			},
			Graph: graph.Ring(4),
		},
		"probabilistic-faults": {
			Name:       "faults",
			AgentSpecs: specs(3, 2, submodPolicy(2)),
			Graph:      graph.Complete(3),
			Faults: netsim.Faults{
				Drop: 0.25,
				DropEdge: map[netsim.Edge]float64{
					{From: 1, To: 0}: 0.5,
					{From: 0, To: 1}: 0, // explicit never-drop override
				},
				Delay: 2,
				DelayEdge: map[netsim.Edge]int{
					{From: 2, To: 1}: 4,
				},
				Duplicate:  0.125,
				Reorder:    3,
				Partitions: [][]int{{2, 0}, {1}},
				HealAfter:  9,
			},
		},
		"dup-reorder-only": {
			Name:       "dup-reorder",
			AgentSpecs: specs(3, 2, submodPolicy(2)),
			Graph:      graph.Ring(3),
			Faults:     netsim.Faults{Duplicate: 0.5, Reorder: 1},
		},
		"static-partition": {
			Name:       "partition",
			AgentSpecs: specs(4, 2, submodPolicy(2)),
			Graph:      graph.Complete(4),
			Faults:     netsim.Faults{Partitions: [][]int{{0, 1}, {2, 3}}},
		},
		"solver-options": {
			Name:       "solver",
			AgentSpecs: specs(2, 2, submodPolicy(2)),
			Graph:      graph.Complete(2),
			Solver: sat.Options{
				DisableVSIDS: true, DisableRestarts: true, DisablePhaseSaving: true,
				MaxConflicts: 1000, InvertPhase: true, RestartBase: 50,
				RandSeed: 7, RandomPolarityFreq: 0.02,
			},
		},
		"relational-model": {Name: "model", Model: smallModel("optimized", 2)},
	}
}

// TestScenarioRoundTrip checks the codec's central contract on every
// table entry: decode(encode(s)) re-encodes byte-identically, and the
// decoded scenario is semantically the same value.
func TestScenarioRoundTrip(t *testing.T) {
	for name, s := range codecScenarios() {
		s := s
		t.Run(name, func(t *testing.T) {
			enc1, err := EncodeScenario(&s)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			s2, err := DecodeScenario(enc1)
			if err != nil {
				t.Fatalf("decode: %v\n%s", err, enc1)
			}
			enc2, err := EncodeScenario(&s2)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("canonical re-encode differs:\n first: %s\nsecond: %s", enc1, enc2)
			}

			if s2.Name != s.Name {
				t.Fatalf("name = %q, want %q", s2.Name, s.Name)
			}
			if !reflect.DeepEqual(s2.AgentSpecs, s.AgentSpecs) {
				t.Fatalf("agent specs differ:\n got %+v\nwant %+v", s2.AgentSpecs, s.AgentSpecs)
			}
			if (s2.Graph == nil) != (s.Graph == nil) {
				t.Fatalf("graph nilness differs")
			}
			if s.Graph != nil && !reflect.DeepEqual(s2.Graph.Edges(), s.Graph.Edges()) {
				t.Fatalf("graph edges differ: got %v want %v", s2.Graph.Edges(), s.Graph.Edges())
			}
			if !reflect.DeepEqual(s2.Explore, s.Explore) {
				t.Fatalf("explore options differ: got %+v want %+v", s2.Explore, s.Explore)
			}
			// Encode canonicalizes partition blocks, so compare the
			// fault models through the normalizing wire conversion.
			if fw1, fw2 := faultsToWire(s.Faults), faultsToWire(s2.Faults); !reflect.DeepEqual(fw1, fw2) {
				t.Fatalf("faults differ: got %+v want %+v", fw2, fw1)
			}
			if s2.Solver != s.Solver {
				t.Fatalf("solver options differ: got %+v want %+v", s2.Solver, s.Solver)
			}
			if (s2.Model == nil) != (s.Model == nil) || s.Model != nil && (s2.Model.Name != s.Model.Name ||
				s2.Model.Scope != s.Model.Scope || s2.Model.AssertState != s.Model.AssertState) {
				t.Fatalf("models differ: got %+v want %+v", s2.Model, s.Model)
			}
		})
	}
}

// TestScenarioRoundTripVerdict runs a decoded scenario through the
// explicit engine and demands the same verdict as the original — the
// serialization is faithful where it matters.
func TestScenarioRoundTripVerdict(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  mca.Policy
		want Status
	}{
		{"converging", submodPolicy(2), StatusHolds},
		{"oscillating", mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange}, StatusViolated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Scenario{
				Name:       tc.name,
				AgentSpecs: specs(2, 2, tc.pol),
				Graph:      graph.Complete(2),
			}
			before := Explicit{}.Verify(context.Background(), s)
			data, err := EncodeScenario(&s)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			s2, err := DecodeScenario(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			after := Explicit{}.Verify(context.Background(), s2)
			if before.Status != tc.want || after.Status != tc.want {
				t.Fatalf("verdicts: before=%v after=%v want %v", before.Status, after.Status, tc.want)
			}
			if before.Violation != after.Violation || before.Stats.States != after.Stats.States {
				t.Fatalf("decoded scenario explored differently: before %v/%d states, after %v/%d states",
					before.Violation, before.Stats.States, after.Violation, after.Stats.States)
			}
		})
	}
}

// TestEncodeCanonicalization checks that encode normalizes set-valued
// fields: the same fault model written with different orderings encodes
// to identical bytes.
func TestEncodeCanonicalization(t *testing.T) {
	mk := func(partitions [][]int) Scenario {
		return Scenario{
			Name:       "canon",
			AgentSpecs: specs(3, 2, submodPolicy(2)),
			Graph:      graph.Complete(3),
			Faults:     netsim.Faults{Partitions: partitions},
		}
	}
	a := mk([][]int{{2, 0}, {1}})
	b := mk([][]int{{1}, {0, 2}})
	ea, err := EncodeScenario(&a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EncodeScenario(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("equivalent fault models encode differently:\n%s\n%s", ea, eb)
	}
}

func TestDecodeScenarioStrict(t *testing.T) {
	valid, err := EncodeScenario(&Scenario{Name: "x", AgentSpecs: specs(2, 2, submodPolicy(2)), Graph: graph.Complete(2)})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(string) string{
		"unknown-field": func(s string) string {
			return strings.Replace(s, `"name":"x"`, `"name":"x","surprise":1`, 1)
		},
		"wrong-version": func(s string) string {
			return strings.Replace(s, `"version":1`, `"version":99`, 1)
		},
		"missing-version": func(s string) string {
			return strings.Replace(s, `"version":1,`, ``, 1)
		},
		"bad-rebid": func(s string) string {
			return strings.Replace(s, `"rebid":"on-change"`, `"rebid":"sometimes"`, 1)
		},
		"bad-utility": func(s string) string {
			return strings.Replace(s, `"kind":"submodular-residual"`, `"kind":"mystery"`, 1)
		},
		"trailing-garbage": func(s string) string { return s + `{"more":true}` },
		"trailing-brace":   func(s string) string { return s + `}` },
		"bad-edge": func(s string) string {
			return strings.Replace(s, `{"u":0,"v":1}`, `{"u":0,"v":7}`, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			doc := mutate(string(valid))
			if doc == string(valid) {
				t.Fatalf("mutation did not apply to %s", valid)
			}
			if _, err := DecodeScenario([]byte(doc)); err == nil {
				t.Fatalf("decode accepted %s", doc)
			}
		})
	}
}

func TestEncodeScenarioErrors(t *testing.T) {
	for name, s := range map[string]Scenario{
		"custom-resolver": {Name: "x", Graph: graph.Complete(2), AgentSpecs: []mca.Config{{
			ID: 0, Items: 2, Base: []int64{1, 2}, Resolver: mca.Resolve,
			Policy: submodPolicy(2),
		}}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := EncodeScenario(&s); err == nil {
				t.Fatalf("encode accepted unserializable scenario %q", name)
			}
		})
	}
}

func TestResultRoundTrip(t *testing.T) {
	rec := trace.NewRecorder()
	rec.ItemNames = []string{"A", "B"}
	rec.Record(trace.Step{
		Label: "deliver 1->0",
		Agents: []trace.AgentSnapshot{
			{ID: 0, Bids: []int64{10, 0}, Winner: []int{0, -1}, Bundle: []int{0}},
			{ID: 1, Bids: []int64{10, 5}, Winner: []int{0, 1}, Bundle: []int{1}},
		},
	})
	results := map[string]Result{
		"violated-with-trace": {
			Index: 3, Scenario: "s", Engine: "explicit",
			Status: StatusViolated, Violation: explore.ViolationOscillation,
			Trace: rec,
			Stats: Stats{States: 42, MaxDepth: 7, Exhausted: true, Wall: 1500 * time.Microsecond},
		},
		"holds-sat": {
			Index: -1, Scenario: "m", Engine: "sat-portfolio(4)",
			Status: StatusHolds, SATStatus: sat.StatusUnsat,
			Stats: Stats{PrimaryVars: 10, AuxVars: 20, Clauses: 99, TranslateTime: time.Millisecond, SolveTime: 2 * time.Millisecond},
		},
		"inconclusive-err": {
			Index: 0, Scenario: "t", Engine: "simulation",
			Status: StatusInconclusive, Err: errors.New("context deadline exceeded"),
			Stats: Stats{Runs: 3, Converged: 2, Deliveries: 100, Dropped: 4},
		},
		"cached": {
			Index: 1, Scenario: "c", Engine: "explicit", Status: StatusHolds, Cached: true,
		},
		"sim-coverage": {
			Index: 2, Scenario: "f", Engine: "simulation", Status: StatusHolds,
			Stats: Stats{Runs: 8, Converged: 8, Deliveries: 420, Dropped: 3, Duplicated: 17},
		},
	}
	for name, r := range results {
		r := r
		t.Run(name, func(t *testing.T) {
			enc1, err := EncodeResult(&r)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			r2, err := DecodeResult(enc1)
			if err != nil {
				t.Fatalf("decode: %v\n%s", err, enc1)
			}
			enc2, err := EncodeResult(&r2)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("canonical re-encode differs:\n first: %s\nsecond: %s", enc1, enc2)
			}
			if r2.Status != r.Status || r2.Violation != r.Violation || r2.SATStatus != r.SATStatus ||
				r2.Scenario != r.Scenario || r2.Engine != r.Engine || r2.Index != r.Index || r2.Cached != r.Cached {
				t.Fatalf("fields differ: got %+v want %+v", r2, r)
			}
			want := r.Stats // less the times, which measure a run, not its verdict
			want.TranslateTime, want.SolveTime, want.Wall = 0, 0, 0
			if r2.Stats != want {
				t.Fatalf("stats differ: got %+v want %+v", r2.Stats, want)
			}
			if (r2.Err == nil) != (r.Err == nil) {
				t.Fatalf("err nilness differs")
			}
			if r.Err != nil && r2.Err.Error() != r.Err.Error() {
				t.Fatalf("err = %q want %q", r2.Err, r.Err)
			}
			if (r2.Trace == nil) != (r.Trace == nil) {
				t.Fatalf("trace nilness differs")
			}
			if r.Trace != nil && r2.Trace.String() != r.Trace.String() {
				t.Fatalf("trace renders differently:\n%s\nvs\n%s", r2.Trace, r.Trace)
			}
		})
	}
}

// TestDecodeResultRefusesDerivedMembers: a result document states only
// what its fields carry. The members older documents carried for facts
// derivable from the rest ("explicit", the coverage signature) are
// unknown members, refused like damaged bytes, while the same document
// without them decodes.
func TestDecodeResultRefusesDerivedMembers(t *testing.T) {
	const (
		explicit = `{"version":1,"engine":"explicit","index":-1,"status":"holds",%s"stats":{"states":5,"max_depth":2,"exhausted":true}}`
		sim      = `{"version":1,"engine":"simulation","index":-1,"status":"holds","stats":{"runs":1,"converged":1,"deliveries":4%s}}`
	)
	if _, err := DecodeResult([]byte(fmt.Sprintf(explicit, ""))); err != nil {
		t.Fatalf("explicit document without the member: %v", err)
	}
	if _, err := DecodeResult([]byte(fmt.Sprintf(sim, ""))); err != nil {
		t.Fatalf("simulation document without the members: %v", err)
	}
	for _, doc := range []string{
		fmt.Sprintf(explicit, `"explicit":true,`),
		fmt.Sprintf(sim, `,"cov_occupancy":3`),
		fmt.Sprintf(sim, `,"cov_depth":1`),
		fmt.Sprintf(sim, `,"cov_shape":1`),
	} {
		if _, err := DecodeResult([]byte(doc)); err == nil {
			t.Errorf("decoded %s", doc)
		}
	}
}

// readSummary reads a summary document as EncodeSummary writes it.
func readSummary(t testing.TB, data []byte) Summary {
	t.Helper()
	var w summaryJSON
	if err := StrictUnmarshal(data, &w); err != nil || w.Version != SchemaVersion {
		t.Fatalf("summary of version %d: %v\n%s", w.Version, err, data)
	}
	s := Summary{Total: w.Total, Holds: w.Holds, Violated: w.Violated, Inconclusive: w.Inconclusive, Errors: w.Errors,
		Capped: w.Capped, CacheHits: w.CacheHits, Violations: w.Violations, Scenarios: w.Scenarios, Wall: time.Duration(w.WallNS)}
	if s.Violations == nil {
		s.Violations = map[explore.ViolationKind]int{}
	}
	return s
}

func TestSummaryRoundTrip(t *testing.T) {
	s := Summary{
		Total: 10, Holds: 5, Violated: 3, Inconclusive: 1, Errors: 1, CacheHits: 4,
		Violations: map[explore.ViolationKind]int{explore.ViolationOscillation: 2, explore.ViolationConflict: 1},
		Scenarios:  []string{"a", "b", "c"},
		Wall:       3 * time.Second,
	}
	data, err := EncodeSummary(&s)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := readSummary(t, data); !reflect.DeepEqual(s, s2) {
		t.Fatalf("summary differs: got %+v want %+v", s2, s)
	}
}

func TestCacheKey(t *testing.T) {
	base := Scenario{Name: "one", AgentSpecs: specs(2, 2, submodPolicy(2)), Graph: graph.Complete(2)}
	renamed := base
	renamed.Name = "completely-different-label"
	other := base
	other.Explore.MaxStates = 77

	k1, err := CacheKey(&base, Explicit{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey(&renamed, Explicit{})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("cache key depends on the display name: %s vs %s", k1, k2)
	}
	k4, err := CacheKey(&other, Explicit{})
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatalf("cache key ignores scenario content")
	}
	// Engine fields that never show up in Name() must still split the
	// address: a 4-run and a 1024-run simulation are different evidence.
	s4, err := CacheKey(&base, Simulation{Runs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1024, err := CacheKey(&base, Simulation{Runs: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sSeed, err := CacheKey(&base, Simulation{Runs: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s4 == s1024 || s4 == sSeed {
		t.Fatalf("cache key ignores engine configuration beyond the name")
	}
	// Defaults are normalized: the zero Simulation runs 16 seeded
	// executions, so it shares the explicit Runs:16 address.
	sZero, err := CacheKey(&base, Simulation{})
	if err != nil {
		t.Fatal(err)
	}
	s16, err := CacheKey(&base, Simulation{Runs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sZero != s16 {
		t.Fatalf("defaulted Simulation{} and Simulation{Runs:16} get distinct keys")
	}
	// Auto resolves to its delegate, so auto-scheduled work shares
	// entries with direct engine calls; nil means Auto.
	kAuto, err := CacheKey(&base, Auto{})
	if err != nil {
		t.Fatal(err)
	}
	kNil, err := CacheKey(&base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kAuto != k1 || kNil != k1 {
		t.Fatalf("Auto/nil keys differ from the delegate's: auto=%s nil=%s explicit=%s", kAuto, kNil, k1)
	}
	if _, err := CacheKey(&Scenario{AgentSpecs: []mca.Config{{Resolver: mca.Resolve}}}, Explicit{}); err == nil {
		t.Fatalf("cache key for an unencodable scenario should error")
	}
	// An engine that only decides where another runs (Unwrap) is
	// addressed as that engine, however deep the wrapping: the fleet's
	// remote executor must not move a content address.
	for _, e := range []Engine{Auto{}, Explicit{Workers: 2}, SAT{Workers: 2}, Simulation{Runs: 4, Seed: 1}} {
		want, err := CacheKey(&base, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CacheKey(&base, placed{placed{e}})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: wrapped key %s != bare key %s", e.Name(), got, want)
		}
	}
}

// TestContentAddressIsSpecAndScenario rebuilds the content address of
// every adapter kind from the two documents it names — the engine spec
// and the canonical scenario with its name blanked — hashed here after
// the epoch prefix, and holds CacheKey to it. Nothing else may reach
// the address: not a session pool, not Explicit's workers, not the
// wrapper a fleet dispatches through. A user engine has no spec, so no
// address.
func TestContentAddressIsSpecAndScenario(t *testing.T) {
	var cells []Scenario
	for _, doc := range [][]byte{[]byte(sweepDoc), sweepCorpus()["model-spec-merge"]} {
		sw, err := DecodeSweep(doc)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, sw.Scenarios()...)
	}
	kinds := map[string]bool{}
	for i := range cells {
		s := &cells[i]
		unnamed := *s
		unnamed.Name = ""
		canonical, err := EncodeScenario(&unnamed)
		if err != nil {
			t.Fatal(err)
		}
		// What Auto resolves to, with Simulation's defaults spelled out.
		auto := Auto{}.EngineFor(*s)
		if _, ok := auto.(Simulation); ok {
			auto = Simulation{Runs: 16, BudgetFactor: 8}
		}
		for _, tc := range []struct{ eng, named Engine }{
			{Auto{}, auto},
			{nil, auto},
			{placed{placed{Auto{}}}, auto},
			{Explicit{}, Explicit{}},
			{Explicit{Workers: 2}, Explicit{}},
			{Explicit{Workers: MaxWorkers + 1}, Explicit{Workers: MaxWorkers + 1}},
			{Simulation{}, Simulation{Runs: 16, BudgetFactor: 8}},
			{Simulation{Runs: 4, Seed: 1}, Simulation{Runs: 4, Seed: 1, BudgetFactor: 8}},
			{Simulation{MaxDeliveries: 9, BudgetFactor: 3}, Simulation{Runs: 16, MaxDeliveries: 9}},
			{SAT{}, SAT{}},
			{SAT{Workers: 2}, SAT{Workers: 2}},
			{SAT{Sessions: NewSessionPool()}, SAT{}},
		} {
			spec, err := EncodeEngineSpec(tc.named)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(slices.Concat(fmt.Appendf(nil, "epoch%d\n", CacheEpoch), spec, canonical))
			want := hex.EncodeToString(sum[:])
			if got, err := CacheKey(s, tc.eng); err != nil || got != want {
				t.Fatalf("cell %q, %T%+v: CacheKey %s (%v), want %s over %s", s.Name, tc.eng, tc.eng, got, err, want, spec)
			}
			kinds[fmt.Sprintf("%T", tc.named)] = true
		}
		for _, e := range []Engine{sliceEngine{}, placed{anyEngine{}}} {
			if key, err := CacheKey(s, e); err == nil {
				t.Fatalf("cell %q: user engine %T has address %s", s.Name, e, key)
			}
		}
	}
	for _, kind := range []string{"engine.Explicit", "engine.Simulation", "engine.SAT"} {
		if !kinds[kind] {
			t.Fatalf("no address named %s: %v", kind, kinds)
		}
	}
}

// placed wraps an engine the way fleet's remote executor does.
type placed struct{ Engine }

func (p placed) Unwrap() Engine { return p.Engine }

// TestDecodeFaultsValidation: fault models that would be silently inert
// or meaningless at run time are decode errors.
func TestDecodeFaultsValidation(t *testing.T) {
	const prefix = `{"version":1,"graph":{"nodes":3,"edges":[{"u":0,"v":1},{"u":1,"v":2}]},"faults":`
	for name, faults := range map[string]string{
		"drop-above-one":        `{"drop":1.5}`,
		"negative-drop":         `{"drop":-0.1}`,
		"negative-delay":        `{"delay":-2}`,
		"negative-heal":         `{"partitions":[[0],[1]],"heal_after":-1}`,
		"drop-edge-bad-prob":    `{"drop_edge":[{"from":0,"to":1,"drop":2}]}`,
		"drop-edge-bad-node":    `{"drop_edge":[{"from":9,"to":0,"drop":0.5}]}`,
		"delay-edge-bad-node":   `{"delay_edge":[{"from":0,"to":7,"delay":1}]}`,
		"delay-edge-negative":   `{"delay_edge":[{"from":0,"to":1,"delay":-1}]}`,
		"partition-bad-node":    `{"partitions":[[0,99]]}`,
		"partition-negative-id": `{"partitions":[[-1]]}`,
		"duplicate-above-one":   `{"duplicate":1.01}`,
		"negative-duplicate":    `{"duplicate":-0.5}`,
		"negative-reorder":      `{"reorder":-1}`,
		// A fault model the decoder does not know must be rejected, not
		// silently ignored — an inert adversary would upgrade a lossy
		// verdict to a reliable one.
		"unknown-fault-field": `{"duplicate":0.5,"mangle":0.5}`,
	} {
		t.Run(name, func(t *testing.T) {
			doc := prefix + faults + `}`
			if _, err := DecodeScenario([]byte(doc)); err == nil {
				t.Fatalf("accepted %s", doc)
			}
		})
	}
	// Valid boundary values still decode.
	ok := prefix + `{"drop":1,"drop_edge":[{"from":2,"to":0}],"delay_edge":[{"from":0,"to":2,"delay":3}],"duplicate":1,"reorder":5,"partitions":[[0],[1,2]],"heal_after":4}}`
	if _, err := DecodeScenario([]byte(ok)); err != nil {
		t.Fatalf("rejected valid faults: %v", err)
	}
}

// TestCacheKeySplitsOnNewFaults: duplication and reordering change the
// verdict a simulation can return, so scenarios differing only in those
// knobs must land on distinct cache addresses — while the zero settings
// encode exactly as the fields' pre-existence bytes and keep old
// addresses valid.
// TestExplicitWorkersShareOneAddress: Explicit.Workers runs nothing,
// so one explicit verification has one content address — at every
// worker count, and through Auto — and one work-unit engine spec. Only
// a count past MaxWorkers, an error result, keeps its own.
func TestExplicitWorkersShareOneAddress(t *testing.T) {
	s := Scenario{Name: "one", AgentSpecs: specs(2, 2, submodPolicy(2)), Graph: graph.Complete(2)}
	want, err := CacheKey(&s, Explicit{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{Explicit{Workers: 0}, Explicit{Workers: 1}, Explicit{Workers: 2}, Explicit{Workers: -1}, Auto{Workers: 2}} {
		if got, err := CacheKey(&s, eng); err != nil || got != want {
			t.Errorf("%#v: cache key %s (%v), want Explicit{}'s %s", eng, got, err, want)
		}
		if spec, err := EncodeEngineSpec(resolveEngine(eng, &s)); err != nil || string(spec) != `{"version":1,"kind":"explicit"}` {
			t.Errorf("%#v: engine spec %s (%v)", eng, spec, err)
		}
	}
	if over, _ := CacheKey(&s, Explicit{Workers: MaxWorkers + 1}); over == want {
		t.Error("a worker count past MaxWorkers shares the runnable check's address")
	}
}

func TestCacheKeySplitsOnNewFaults(t *testing.T) {
	base := Scenario{
		Name:       "split",
		AgentSpecs: specs(3, 2, submodPolicy(2)),
		Graph:      graph.Complete(3),
		Faults:     netsim.Faults{Drop: 0.1},
	}
	dup := base
	dup.Faults.Duplicate = 0.25
	reord := base
	reord.Faults.Reorder = 2
	dup2 := base
	dup2.Faults.Duplicate = 0.5

	keys := map[string]string{}
	for name, s := range map[string]*Scenario{"base": &base, "dup": &dup, "reorder": &reord, "dup2": &dup2} {
		k, err := CacheKey(s, Simulation{Runs: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		keys[name] = k
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dupKey := seen[k]; dupKey {
			t.Fatalf("scenarios %q and %q share a cache key despite differing fault fields", prev, name)
		}
		seen[k] = name
	}

	// The zero-valued new fields are invisible on the wire: the encoding
	// of a scenario that does not use them must not mention them, which
	// is what keeps pre-existing cache entries addressable.
	enc, err := EncodeScenario(&base)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"duplicate", "reorder"} {
		if strings.Contains(string(enc), field) {
			t.Fatalf("zero %s field leaked into the canonical encoding: %s", field, enc)
		}
	}
}
