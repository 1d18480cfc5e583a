package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/explore"
)

// The reflective strict decode the wire reader replaced — encoding/json
// into the same wire structs through StrictUnmarshal — kept as the
// oracle: the differential fuzz targets require the reader to accept
// and reject what it does, and to read the same value.

// readScenarioWire is DecodeScenario's read, before any check.
func readScenarioWire(data []byte) (scenarioJSON, error) {
	var w scenarioJSON
	r := newReader(data)
	r.scenario(&w, nil)
	return w, r.end()
}

// decodeScenarioReflect is DecodeScenario on the reflective decode.
func decodeScenarioReflect(data []byte) (Scenario, error) {
	var w scenarioJSON
	if err := StrictUnmarshal(data, &w); err != nil {
		return Scenario{}, err
	}
	if w.Version != SchemaVersion {
		return Scenario{}, fmt.Errorf("unsupported schema version %d", w.Version)
	}
	return scenarioFromWire(&w)
}

// checkScenarioWire holds the reader to the reflective decode on one
// scenario document, and the writer to json.Marshal on what it reads.
func checkScenarioWire(t *testing.T, doc []byte) {
	t.Helper()
	got, err := readScenarioWire(doc)
	var want scenarioJSON
	refErr := StrictUnmarshal(doc, &want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("reader says %v, the reflective decode %v", err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reader reads\n %#v\nthe reflective decode\n %#v", got, want)
	}
	checkWriter(t, &got)
}

// checkWriter holds appendScenario to json.Marshal on one wire value.
func checkWriter(t *testing.T, w *scenarioJSON) {
	t.Helper()
	got, err := appendScenario(nil, w)
	want, jerr := json.Marshal(w)
	if (err == nil) != (jerr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("writer writes %s (%v), json.Marshal %s (%v)", got, err, want, jerr)
	}
}

// checkEncodeScenario holds EncodeScenario to json.Marshal of the
// scenario's wire struct.
func checkEncodeScenario(t *testing.T, s *Scenario) {
	t.Helper()
	var w scenarioJSON
	if err := scenarioToWire(s, &w); err != nil {
		if _, err := EncodeScenario(s); err == nil {
			t.Fatalf("EncodeScenario encodes what scenarioToWire refuses")
		}
		return
	}
	got, err := EncodeScenario(s)
	want, jerr := json.Marshal(&w)
	if (err == nil) != (jerr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("EncodeScenario writes %s (%v), json.Marshal %s (%v)", got, err, want, jerr)
	}
}

// checkSpecWire holds DecodeEngineSpec's read to the reflective decode,
// and encodeSpec to json.Marshal.
func checkSpecWire(t *testing.T, doc []byte) {
	t.Helper()
	var got, want EngineSpec
	r := newReader(doc)
	r.spec(&got)
	err := r.end()
	refErr := StrictUnmarshal(doc, &want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("reader says %v, the reflective decode %v", err, refErr)
	}
	if err != nil {
		return
	}
	if got != want {
		t.Fatalf("reader reads %#v, the reflective decode %#v", got, want)
	}
	if data, jdata := encodeSpec(&got), mustMarshal(t, &got); !bytes.Equal(data, jdata) {
		t.Fatalf("encodeSpec writes %s, json.Marshal %s", data, jdata)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeCheckpointReflect is DecodeCheckpoint with the scenario read by
// the reflective decode.
func decodeCheckpointReflect(data []byte) (*Checkpoint, error) {
	payload, err := Unseal(checkpointMagic, data)
	if err != nil {
		return nil, err
	}
	var w checkpointJSON
	if err := StrictUnmarshal(payload, &w); err != nil {
		return nil, err
	}
	if w.Version != SchemaVersion || w.Workers != 0 {
		return nil, errors.New("version or workers")
	}
	s, err := decodeScenarioReflect(w.Scenario)
	if err != nil {
		return nil, err
	}
	if _, err := explore.DecodeDFSState(w.RunState); err != nil {
		return nil, err
	}
	return &Checkpoint{Scenario: s, State: w.RunState}, nil
}

// reflectSweepFile is a sweep document as the reflective decode read
// it: every source decodes itself from its own bytes (reflectSource).
type reflectSweepFile struct {
	Version int           `json:"version"`
	Name    string        `json:"name,omitempty"`
	Base    reflectSource `json:"base"`
	Axes    []struct {
		Axis     string `json:"axis"`
		Variants []struct {
			Name     string        `json:"name"`
			Scenario reflectSource `json:"scenario"`
		} `json:"variants"`
	} `json:"axes,omitempty"`
}

type reflectSource sweepSource

// UnmarshalJSON strict-decodes the source on its own, keeping its error
// rather than returning it. Each section field of d is pointed at the
// source's own value: null sets the field itself to nil, a value decodes
// through it, and an absent member leaves both alone.
func (src *reflectSource) UnmarshalJSON(data []byte) error {
	*src = reflectSource{opens: data[0]}
	w := &src.wire
	d := struct {
		Version int           `json:"version"`
		Name    string        `json:"name"`
		Agents  *[]agentJSON  `json:"agents"`
		Graph   **graphJSON   `json:"graph"`
		Explore **exploreJSON `json:"explore"`
		Faults  **faultsJSON  `json:"faults"`
		Model   **modelJSON   `json:"model"`
		Solver  **solverJSON  `json:"solver"`
	}{Agents: &w.Agents, Graph: &w.Graph, Explore: &w.Explore, Faults: &w.Faults, Model: &w.Model, Solver: &w.Solver}
	if src.err = StrictUnmarshal(data, &d); src.err != nil {
		return nil
	}
	w.Version, w.Name = d.Version, d.Name
	w.Agents, w.Graph, w.Explore = deref(d.Agents), deref(d.Graph), deref(d.Explore)
	w.Faults, w.Model, w.Solver = deref(d.Faults), deref(d.Model), deref(d.Solver)
	src.null = [numSections]bool{d.Agents == nil, d.Graph == nil, d.Explore == nil, d.Faults == nil, d.Model == nil, d.Solver == nil}
	src.set = [numSections]bool{w.Agents != nil, w.Graph != nil, w.Explore != nil, w.Faults != nil, w.Model != nil, w.Solver != nil}
	// Each section's last member as written, for a merge.
	var split struct {
		Graph   json.RawMessage `json:"graph"`
		Explore json.RawMessage `json:"explore"`
		Faults  json.RawMessage `json:"faults"`
		Model   json.RawMessage `json:"model"`
		Solver  json.RawMessage `json:"solver"`
	}
	if err := json.Unmarshal(data, &split); err != nil {
		src.err = err
		return nil
	}
	src.raw = [numSections][]byte{secGraph: split.Graph, secExplore: split.Explore, secFaults: split.Faults, secModel: split.Model, secSolver: split.Solver}
	return nil
}

func deref[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

// decodeSweepReflect is DecodeSweep on the reflective decode: the same
// expansion of a document read by encoding/json.
func decodeSweepReflect(data []byte) (*Sweep, error) {
	var doc reflectSweepFile
	if err := StrictUnmarshal(data, &doc); err != nil {
		return nil, err
	}
	w := sweepFileJSON{Version: doc.Version, Name: doc.Name, Base: sweepSource(doc.Base)}
	for _, ax := range doc.Axes {
		a := axisJSON{Axis: ax.Axis}
		for _, v := range ax.Variants {
			a.Variants = append(a.Variants, variantJSON{Name: v.Name, Scenario: sweepSource(v.Scenario)})
		}
		w.Axes = append(w.Axes, a)
	}
	return expandSweep(&w, len(data))
}

// checkSweepAgainstReflect holds DecodeSweep to the reflective decode on
// one document: reject where it rejects; where it accepts, the same
// cells, names, encodings and carried bytes, each encoding json.Marshal's.
func checkSweepAgainstReflect(t *testing.T, doc []byte) {
	t.Helper()
	sw, err := DecodeSweep(doc)
	ref, refErr := decodeSweepReflect(doc)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeSweep says %v, the reflective decode %v", err, refErr)
	}
	if err != nil {
		return
	}
	if sw.Len() != ref.Len() {
		t.Fatalf("%d cells, the reflective decode %d", sw.Len(), ref.Len())
	}
	for i := range sw.cells {
		got, want := &sw.cells[i], &ref.cells[i]
		gotDoc, gotErr := EncodeScenario(&got.scenario)
		wantDoc, wantErr := EncodeScenario(&want.scenario)
		if got.scenario.Name != want.scenario.Name || (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotDoc, wantDoc) || !bytes.Equal(got.canonical, want.canonical) {
			t.Fatalf("cell %d: %q %s, the reflective decode %q %s", i, got.scenario.Name, gotDoc, want.scenario.Name, wantDoc)
		}
		checkEncodeScenario(t, &got.scenario)
	}
}

// readingRuleDocs are scenario documents, one or more per reading rule,
// for the reader to read exactly as the reflective decode does.
var readingRuleDocs = []string{
	// Names: exact, case-folded, escaped, a Kelvin sign for k, invalid
	// UTF-8.
	`{"version":1,"Agents":[{"id":0,"items":1,"base":[3],"policy":{"target":1}}]}`,
	`{"version":1,"AGENTS":[{"id":0,"items":1,"base":[3],"policy":{"target":1}}]}`,
	`{"version":1,"agents":[{"id":0,"items":1,"base":[3],"policy":{"target":1}}]}`,
	`{"version":1,"agents":[{"id":0,"items":1,"base":[3],"policy":{"target":1,"utility":{"Kind":"flat"}}}]}`,
	"{\"version\":1,\"agents\":[{\"id\":0,\"items\":1,\"base\":[3],\"policy\":{\"target\":1,\"utility\":{\"\xe2\x84\xaaind\":\"flat\"}}}]}",
	"{\"version\":1,\"na\xffme\":\"x\"}",
	"{\"version\":1,\"name\":\"a\xffb\xed\xa0\x80\"}",
	`{"version":1,"name":"\ud800A\udc00😀"}`,
	// Repeated members: an object merges, a list decodes into what is
	// there, and a shorter list, then a longer one, finds the elements
	// the first left past its length.
	`{"version":1,"explore":{"max_states":5},"explore":{"bound":2}}`,
	`{"version":1,"agents":[{"id":0,"items":2,"base":[4,5],"policy":{"target":1,"utility":{"kind":"flat"}}},{"id":1,"items":2,"base":[6,7],"policy":{"target":1}}],"agents":[{"id":0,"base":[9]}]}`,
	`{"version":1,"agents":[{"id":0,"items":2,"base":[4,5],"policy":{"target":1}},{"id":1,"items":2,"base":[6,7],"policy":{"target":2,"rebid":"never"}}],"agents":[{"id":0}],"agents":[{"id":0},{"items":3}]}`,
	`{"version":1,"agents":[{"id":0,"items":1,"base":[1],"policy":{"target":1}}],"agents":[]}`,
	`{"version":1,"faults":{"partitions":[[0,1],[2]]},"faults":{"partitions":[[3]]},"faults":{"partitions":[[],null,[4]]}}`,
	// null: clears a section, a list, a pointer; leaves a scalar alone.
	`{"version":1,"agents":null,"graph":null,"explore":null,"faults":null,"model":null,"solver":null}`,
	`{"version":1,"name":"x","name":null,"graph":{"nodes":2,"edges":[{"u":0,"v":1,"w":2}]},"graph":{"edges":null}}`,
	`{"version":1,"graph":{"nodes":2,"edges":[{"u":0,"v":1,"w":2},{"u":0,"v":1,"w":null}]},"solver":{"rand_seed":3,"rand_seed":null,"max_conflicts":null}}`,
	`{"version":1,"agents":[{"id":0,"items":1,"policy":{"target":1,"rebid":"never","rebid":null,"utility":{"kind":"flat"},"utility":null}}]}`,
	`{"version":1,"explore":{"store":"bitstate","store":null}}`,
	`null`,
	`{"version":null}`,
	// Integers: fractions, exponents, overflow, a sign.
	`{"version":1,"graph":{"nodes":1e2}}`,
	`{"version":1,"graph":{"nodes":1.0}}`,
	`{"version":1,"graph":{"nodes":-0}}`,
	`{"version":1,"solver":{"rand_seed":18446744073709551615}}`,
	`{"version":1,"solver":{"rand_seed":18446744073709551616}}`,
	`{"version":1,"solver":{"rand_seed":-1}}`,
	`{"version":1,"solver":{"rand_seed":-0}}`,
	`{"version":1,"explore":{"max_states":9223372036854775807}}`,
	`{"version":1,"explore":{"max_states":9223372036854775808}}`,
	`{"version":1,"explore":{"max_states":-9223372036854775808}}`,
	`{"version":1,"explore":{"max_states":123456789012345678}}`,
	`{"version":1,"faults":{"drop":1e-400,"duplicate":-0.0}}`,
	`{"version":1,"faults":{"drop":1e400}}`,
	`{"version":1,"graph":{"nodes":2,"edges":[{"u":0,"v":1,"w":-0}]}}`,
	// Kinds: a value of the wrong kind anywhere.
	`{"version":"1"}`,
	`{"version":1,"agents":{}}`,
	`{"version":1,"graph":[]}`,
	`{"version":1,"explore":{"disable_visited_set":1}}`,
	`{"version":1,"explore":{"store":7}}`,
	`{"version":1,"explore":{"store":"nope"}}`,
	`{"version":1,"agents":[5]}`,
	`{"version":1,"agents":[{"id":0,"items":1,"base":["1"],"policy":{"target":1}}]}`,
	`[]`,
	`"x"`,
	// White space, unknown members, trailing bytes, syntax.
	" \t\r\n{ \"version\" : 1 , \"name\" : \"x\" } \n",
	"{\"version\":1}\f",
	"{\"version\":1}\v",
	"{\"version\":1} ",
	"\f{\"version\":1}",
	`{"version":1}}`,
	`{"version":1} {}`,
	`{"version":1,"nope":{"deep":[1,{"x":null}]}}`,
	`{"version":1,}`,
	`{"version":1 "name":"x"}`,
	`{"version":01}`,
	`{"version":1.}`,
	`{"version":-}`,
	`{"version":1,"name":"\x"}`,
	`{"version":1,"name":"\u12"}`,
	"{\"version\":1,\"name\":\"a\tb\"}",
	`{"version":tru}`,
	`{"version":1`,
	``,
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"version":1,"nope":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"version":1,"nope":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// TestReaderMatchesReflectiveDecode runs the scenario differential over
// readingRuleDocs, and checks that they cover both answers.
func TestReaderMatchesReflectiveDecode(t *testing.T) {
	accepted := 0
	for _, doc := range readingRuleDocs {
		checkScenarioWire(t, []byte(doc))
		if _, err := readScenarioWire([]byte(doc)); err == nil {
			accepted++
		}
	}
	if accepted < 20 || accepted > len(readingRuleDocs)-20 {
		t.Fatalf("%d of %d documents read", accepted, len(readingRuleDocs))
	}
}

// TestMemberListsAreTheWireTags: each member list names its wire
// struct's members, in field order, as the json tags spell them.
func TestMemberListsAreTheWireTags(t *testing.T) {
	for _, c := range []struct {
		v     any
		names []string
	}{
		{scenarioJSON{}, scenarioMembers}, {agentJSON{}, agentMembers}, {policyJSON{}, policyMembers},
		{utilityJSON{}, utilityMembers}, {graphJSON{}, graphMembers}, {edgeJSON{}, edgeMembers},
		{exploreJSON{}, exploreMembers}, {faultsJSON{}, faultsMembers}, {edgeFaultJSON{}, edgeFaultMembers},
		{modelJSON{}, modelMembers}, {modelSpecJSON{}, modelSpecMembers}, {scopeJSON{}, scopeMembers},
		{solverJSON{}, solverMembers}, {EngineSpec{}, specMembers}, {unitJSON{}, unitMembers},
		{sweepFileJSON{}, sweepMembers}, {axisJSON{}, axisMembers}, {variantJSON{}, variantMembers},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				tags = append(tags, strings.Split(f.Tag.Get("json"), ",")[0])
			}
		}
		if !reflect.DeepEqual(tags, c.names) {
			t.Errorf("%s: members %q, json tags %q", typ, c.names, tags)
		}
	}
	if firstSection+numSections != len(scenarioMembers) || scenarioMembers[firstSection] != "agents" {
		t.Errorf("sections start at %d of %q", firstSection, scenarioMembers)
	}
}

// TestWriterMatchesMarshalOnStrings: every string spelling, the escapes
// json.Marshal writes and invalid UTF-8 included.
func TestWriterMatchesMarshalOnStrings(t *testing.T) {
	for _, s := range []string{"", "plain", "q\"b\\s", "<a&b>", "\x00\x07\b\f\n\r\t\x1f\x7f", "ünï  ĉode", "a\xffb\xed\xa0\x80", "\xf0\x9f\x98"} {
		if got, want := appendString(nil, s, false), mustMarshal(t, s); !bytes.Equal(got, want) {
			t.Errorf("%q: appendString %s, json.Marshal %s", s, got, want)
		}
	}
}
