package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mcamodel"
)

// benchShapedGrid is a sweep document of the shape bench/gen.go posts:
// n agent-list variants on the first axis, three networks on the
// second, graph and explore in the base only.
func benchShapedGrid(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"version":1,"name":"grid","base":{"name":"mca","graph":{"nodes":2,"edges":[{"u":0,"v":1}]},"explore":{"max_states":100000}},"axes":[{"axis":"agents","variants":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		kind, scale := "submodular-residual", int64(4*(1+i/2))*1000003
		if i%2 == 1 {
			kind = "non-submodular-synergy"
		}
		fmt.Fprintf(&b, `{"name":"%s-x%d","scenario":{"agents":[`, kind, scale)
		for id, base := range [][2]int64{{10, 15}, {15, 10}} {
			if id > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"id":%d,"items":2,"base":[%d,%d],"policy":{"target":2,"utility":{"kind":"%s"},"release_outbid":true,"rebid":"on-change"}}`,
				id, base[0]*scale, base[1]*scale, kind)
		}
		b.WriteString(`]}}`)
	}
	b.WriteString(`]},{"axis":"network","variants":[{"name":"reliable","scenario":{}},{"name":"drop25","scenario":{"faults":{"drop":0.25}}},{"name":"delay3","scenario":{"faults":{"delay":3}}}]}]}`)
	return []byte(b.String())
}

// sweepCorpus is the differential corpus: every document of
// sweepfile_test.go, a bench-shaped grid, and documents that exercise
// each way a section value is put together.
func sweepCorpus() map[string][]byte {
	corpus := map[string][]byte{
		"three-axis": []byte(sweepDoc),
		"leak":       []byte(sweepLeakDoc),
		"null":       []byte(sweepNullDoc),
		"no-axes":    []byte(sweepNoAxesDoc),
		"bench-grid": benchShapedGrid(200),
		// Object sections patched on two axes: each distinct value is a
		// merge of up to three objects.
		"two-axis-objects": []byte(`{"version":1,"name":"objs",
			"base":{"graph":{"nodes":3,"edges":[{"u":0,"v":1}]},"explore":{"max_states":500,"queue_depth":2},"faults":{"drop":0.1},"solver":{"rand_seed":7}},
			"axes":[
			 {"axis":"a","variants":[{"name":"a0","scenario":{}},{"name":"a1","scenario":{"explore":{"bound":9},"faults":{"delay":2,"drop_edge":[{"from":0,"to":1,"drop":0.5}]},"graph":{"edges":[{"u":1,"v":2,"w":2.5}]}}}]},
			 {"axis":"b","variants":[{"name":"b0","scenario":{"explore":{"max_states":7,"store":"bitstate","store_bits":10}}},{"name":"b1","scenario":{"faults":{"drop":0.3,"partitions":[[2,0],[1]]},"solver":{"max_conflicts":100}}},{"name":"b2","scenario":{}}]}]}`),
		// null at section level (delete, then set again on a later axis)
		// and at field level (inside a merged object, and inside an object
		// with nothing under it, where the null is simply inert).
		"null-levels": []byte(`{"version":1,"name":"nulls",
			"base":{"name":"b","faults":{"drop":0.5,"delay":1},"explore":{"max_states":99,"queue_depth":3},"agents":null,"solver":null},
			"axes":[
			 {"axis":"a","variants":[{"name":"del","scenario":{"faults":null,"explore":{"queue_depth":null}}},{"name":"keep","scenario":{"graph":{"nodes":2,"edges":null}}}]},
			 {"axis":"b","variants":[{"name":"set","scenario":{"faults":{"delay":4,"drop":null}}},{"name":"nop","scenario":{"solver":{"rand_seed":null}}},{"name":"gone","scenario":{"explore":null,"graph":null}}]}]}`),
		// Patches merge into model.spec and model.spec.scope recursively
		// (a null deletes a scope field, which then takes its default),
		// and the model is built per cell.
		"model-spec-merge": []byte(`{"version":1,"name":"spec",
			"base":{"model":{"kind":"mca-model","spec":{"encoding":"naive","scope":{"pnodes":2,"vnodes":1,"values":2,"states":2,"msgs":1,"int_bitwidth":2}}}},
			"axes":[
			 {"axis":"a","variants":[{"name":"a0","scenario":{}},{"name":"a1","scenario":{"model":{"spec":{"scope":{"states":3}}}}},{"name":"a2","scenario":{"model":{"spec":{"scope":{"int_bitwidth":null},"encoding":"optimized"}}}}]},
			 {"axis":"b","variants":[{"name":"b0","scenario":{}},{"name":"b1","scenario":{"model":{"spec":{"assert_state":2}}}},{"name":"b2","scenario":{"model":null}}]}]}`),
		// An early axis's value that every cell overrides is never
		// converted, so its bad utility kind is no error.
		"overridden": []byte(`{"version":1,"name":"over","base":{},
			"axes":[
			 {"axis":"a","variants":[{"name":"bad","scenario":{"agents":[{"id":0,"items":1,"base":[1],"policy":{"target":1,"utility":{"kind":"nope"}}}]}}]},
			 {"axis":"b","variants":[{"name":"good","scenario":{"agents":[{"id":0,"items":1,"base":[1],"policy":{"target":1,"utility":{"kind":"flat"},"rebid":"never"}}]}}]}]}`),
	}
	for name, doc := range sweepErrorDocs {
		corpus["error/"+name] = []byte(doc)
	}
	return corpus
}

// nonObjectPatch reports whether some variant's patch is present and
// not a JSON object: the one kind of document the reference accepts
// (when the patch is null) and DecodeSweep rejects.
func nonObjectPatch(doc []byte) bool {
	var w sweepJSON
	if StrictUnmarshal(doc, &w) != nil {
		return false
	}
	for _, ax := range w.Axes {
		for _, v := range ax.Variants {
			if len(v.Scenario) > 0 && v.Scenario[0] != '{' {
				return true
			}
		}
	}
	return false
}

// ambiguousKeys reports whether any object in doc has a member name
// that is not plain lower case, or the same name twice. On those the
// reference's answer is an artefact of its round trip through a generic
// tree: the tree keeps a repeated member's last copy, and
// re-marshalling sorts the members, so which of "Agents" and "agents"
// wins depends on their spelling. DecodeSweep reads a section that no
// other source merges into as DecodeScenario reads a standalone
// document (names match ignoring case, a repeated member decodes over
// the earlier copy), and an object merged with an object from each
// source's last member of the name; TestSweepReadsRepeatedMembers pins
// both. The fuzz oracle does not compare them.
func ambiguousKeys(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	var stack []map[string]bool // one per open object; nil for an array
	key := false                // the next token is a member name
	for {
		tok, err := dec.Token()
		if err != nil {
			return false // end of input, or malformed: both sides reject that
		}
		switch tok := tok.(type) {
		case json.Delim:
			switch tok {
			case '{':
				stack, key = append(stack, map[string]bool{}), true
				continue
			case '[':
				stack, key = append(stack, nil), false
				continue
			}
			stack = stack[:len(stack)-1]
		case string:
			if key {
				seen := stack[len(stack)-1]
				if seen[tok] || strings.IndexFunc(tok, func(r rune) bool { return (r < 'a' || r > 'z') && r != '_' }) >= 0 {
					return true
				}
				seen[tok], key = true, false
				continue
			}
		}
		// A value just ended; inside an object a member name comes next.
		key = len(stack) > 0 && stack[len(stack)-1] != nil
	}
}

// checkAgainstReference holds DecodeSweep to expandSweepReference on
// one document: reject where it rejects; where it accepts, the same
// cells under the same names with byte-equal encodings, carried
// canonical bytes equal to the unnamed encoding, and content addresses
// from carried bytes equal to the public CacheKey's.
func checkAgainstReference(t *testing.T, doc []byte) {
	t.Helper()
	want, refErr := expandSweepReference(doc)
	sw, err := DecodeSweep(doc)
	if refErr != nil {
		if err == nil {
			t.Fatalf("reference rejects (%v), DecodeSweep accepts", refErr)
		}
		return
	}
	if err != nil {
		if nonObjectPatch(doc) {
			return
		}
		t.Fatalf("reference accepts, DecodeSweep rejects: %v", err)
	}
	got := sw.Scenarios()
	if len(got) != len(want) {
		t.Fatalf("%d cells, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("cell %d named %q, reference %q", i, got[i].Name, want[i].Name)
		}
		wantDoc, wantErr := EncodeScenario(&want[i])
		gotDoc, gotErr := EncodeScenario(&got[i])
		if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(gotDoc, wantDoc) {
			t.Fatalf("cell %q encodes differently:\n got %s (%v)\nwant %s (%v)", want[i].Name, gotDoc, gotErr, wantDoc, wantErr)
		}
		unnamed, _ := encodeUnnamed(&want[i])
		carried := sw.cells[i].canonical
		if carried == nil || !bytes.Equal(carried, unnamed) {
			t.Fatalf("cell %q carries\n     %s\nwant %s", want[i].Name, carried, unnamed)
		}
		for _, eng := range []Engine{Auto{}, Simulation{Runs: 3, Seed: 9}} {
			key, err := CacheKey(&want[i], eng)
			if err != nil {
				t.Fatal(err)
			}
			if fromCarried, _ := contentAddress(carried, &got[i], eng); fromCarried != key {
				t.Fatalf("cell %q under %s: address %s from carried bytes, CacheKey %s", want[i].Name, eng.Name(), fromCarried, key)
			}
		}
	}
}

// TestDecodeSweepMatchesReference runs the differential over the corpus
// and checks the corpus covers what it says: both accepted and rejected
// documents, and no skipped comparison but the null patch's.
func TestDecodeSweepMatchesReference(t *testing.T) {
	accepted := 0
	for name, doc := range sweepCorpus() {
		t.Run(name, func(t *testing.T) {
			if ambiguousKeys(doc) {
				t.Fatal("corpus document has ambiguous member names; the fuzz oracle would skip it")
			}
			checkAgainstReference(t, doc)
			_, err := DecodeSweep(doc)
			if rejected := strings.HasPrefix(name, "error/"); rejected != (err != nil) {
				t.Fatalf("DecodeSweep error = %v", err)
			}
			if err == nil {
				accepted++
			}
		})
	}
	if accepted < 9 {
		t.Fatalf("only %d accepted documents compared", accepted)
	}
}

// TestSweepCellsShareSections pins the memo rule on the bench-shaped
// grid: 600 cells, 200 agent lists, one graph.
func TestSweepCellsShareSections(t *testing.T) {
	scenarios, err := ExpandSweep(benchShapedGrid(200))
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 600 {
		t.Fatalf("%d cells", len(scenarios))
	}
	for i, s := range scenarios {
		if s.Graph != scenarios[0].Graph {
			t.Fatalf("cell %d has its own graph", i)
		}
		if first := scenarios[i-i%3]; &s.AgentSpecs[0] != &first.AgentSpecs[0] {
			t.Fatalf("cell %d does not share its row's agent specs", i)
		}
	}
	if &scenarios[0].AgentSpecs[0] == &scenarios[3].AgentSpecs[0] {
		t.Fatal("different variants share agent specs")
	}
}

// TestSweepModelsAreDecodedPerCell: cells never share a model value,
// and each cell's model is the merge of its picks.
func TestSweepModelsAreDecodedPerCell(t *testing.T) {
	scenarios, err := ExpandSweep(sweepCorpus()["model-spec-merge"])
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*mcamodel.Encoding]string{}
	for _, s := range scenarios {
		if s.Model == nil {
			continue
		}
		if other, dup := seen[s.Model]; dup {
			t.Fatalf("cells %q and %q share one model value", other, s.Name)
		}
		seen[s.Model] = s.Name
	}
	if len(seen) != 6 {
		t.Fatalf("%d cells carry a model, want 6", len(seen))
	}
	want := map[string]string{
		"spec/a0/b0": "naive 2p/1v/2val/2st/1msg bw2 assert0",
		"spec/a1/b1": "naive 2p/1v/2val/3st/1msg bw2 assert2",
		"spec/a2/b0": "optimized 2p/1v/2val/2st/1msg bw4 assert0",
	}
	for _, s := range scenarios {
		if w, ok := want[s.Name]; ok {
			m := s.Model
			if got := fmt.Sprintf("%s %s bw%d assert%d", m.Name, m.Scope, m.Scope.IntBitwidth, m.AssertState); got != w {
				t.Errorf("%s: model %s, want %s", s.Name, got, w)
			}
		}
	}
}

// TestNullPatchIsRejectedWithItsVariant: the error names the axis and
// the variant, like every other patch error.
func TestNullPatchIsRejectedWithItsVariant(t *testing.T) {
	_, err := ExpandSweep([]byte(sweepErrorDocs["null-patch"]))
	if err == nil || !strings.Contains(err.Error(), `axis "a" variant "v"`) || !strings.Contains(err.Error(), "JSON object") {
		t.Fatalf("error = %v", err)
	}
	// The reference shows what the rejection prevents: the base erased.
	cells, refErr := expandSweepReference([]byte(sweepErrorDocs["null-patch"]))
	if refErr != nil || cells[0].Explore.MaxStates != 0 || cells[0].Faults.Drop != 0 {
		t.Fatalf("reference: %+v, %v", cells, refErr)
	}
}

// TestSourceErrorsNameTheirSource: a source that does not decode is
// reported under its own name, whether it is the base or a variant's
// patch, and the first bad source in document order is the one named.
func TestSourceErrorsNameTheirSource(t *testing.T) {
	const (
		basePrefix    = `engine: sweep "s": base scenario`
		variantPrefix = `engine: sweep "s": axis "a" variant "v": `
	)
	for _, row := range []struct {
		name, source string
		// inBase and inVariant are what the error says after the prefix;
		// "" means the document is accepted.
		inBase, inVariant string
	}{
		{"unknown-member", `{"nope":1}`, `: json: unknown field "nope"`, `json: unknown field "nope"`},
		{"unknown-in-section", `{"explore":{"nope":1}}`, `: json: unknown field "nope"`, `json: unknown field "nope"`},
		{"unknown-in-agent", `{"agents":[{"id":0,"items":1,"policy":{"target":1,"nope":1}}]}`, `: json: unknown field "nope"`, `json: unknown field "nope"`},
		{"type-mismatch", `{"explore":{"max_states":"many"}}`, `: json: cannot unmarshal string`, `json: cannot unmarshal string`},
		{"version", `{"version":1}`, ` must not carry its own version`, `patch must not set version`},
		{"name", `{"name":"x"}`, ``, `patch must not set name`},
		{"name-mismatch", `{"name":7}`, `: json: cannot unmarshal number`, `json: cannot unmarshal number`},
		{"non-object", `[]`, `: json: cannot unmarshal array`, `patch must be a JSON object`},
		{"string", `"x"`, `: json: cannot unmarshal string`, `patch must be a JSON object`},
		// A null base is the empty base, as the reference reads it; a null
		// patch would erase the base, so it is refused.
		{"null", `null`, ``, `patch must be a JSON object`},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, c := range []struct{ doc, prefix, want string }{
				{`{"version":1,"name":"s","base":` + row.source + `,"axes":[{"axis":"a","variants":[{"name":"v","scenario":{}}]}]}`, basePrefix, row.inBase},
				{`{"version":1,"name":"s","base":{},"axes":[{"axis":"a","variants":[{"name":"v","scenario":` + row.source + `}]}]}`, variantPrefix, row.inVariant},
			} {
				_, err := DecodeSweep([]byte(c.doc))
				switch {
				case c.want == "" && err != nil:
					t.Errorf("%s: %v", c.doc, err)
				case c.want == "":
				case err == nil || !strings.HasPrefix(err.Error(), c.prefix+c.want):
					t.Errorf("%s:\n got %v\nwant %s%s…", c.doc, err, c.prefix, c.want)
				}
			}
			if row.inBase == "" {
				return
			}
			// Bad in the base and in two variants: the base is named; bad
			// in two variants only: the first in document order is.
			twice := `{"version":1,"name":"s","base":%s,"axes":[{"axis":"a","variants":[{"name":"ok","scenario":{}},{"name":"v","scenario":%s}]},{"axis":"b","variants":[{"name":"w","scenario":%[2]s}]}]}`
			if _, err := DecodeSweep([]byte(fmt.Sprintf(twice, row.source, row.source))); err == nil || !strings.HasPrefix(err.Error(), basePrefix) {
				t.Errorf("bad base and variants: %v", err)
			}
			if _, err := DecodeSweep([]byte(fmt.Sprintf(twice, "{}", row.source))); err == nil || !strings.HasPrefix(err.Error(), variantPrefix) {
				t.Errorf("bad variants: %v", err)
			}
		})
	}
}

// TestSweepReadsRepeatedMembers pins the two readings of a section
// member given twice, or under another spelling. A section that no
// other source merges into reads as DecodeScenario reads the same
// members: names match ignoring case, and a repeated member decodes
// over the earlier copy. An object merged with an object reads each
// source's last member of the name, as written.
func TestSweepReadsRepeatedMembers(t *testing.T) {
	for _, members := range []string{
		`"explore":{"max_states":5},"explore":{"bound":2}`,
		`"Explore":{"max_states":5}`,
		`"explore":{"max_states":5},"Explore":{"bound":2}`,
		`"explore":null,"explore":{"bound":2}`,
		`"explore":{"bound":2},"explore":null`,
		`"faults":{"drop":0.5},"FAULTS":{"delay":2,"drop_edge":[{"from":0,"to":1,"drop":1}]},"faults":{"delay":3}`,
		`"agents":[{"id":0,"items":1,"base":[4],"policy":{"target":1,"utility":{"kind":"flat"}}}],"agents":[{"id":0,"items":1,"policy":{"target":1,"rebid":"never"}}]`,
	} {
		want, err := DecodeScenario([]byte(`{"version":1,"name":"s",` + members + `}`))
		if err != nil {
			t.Fatal(err)
		}
		wantDoc, _ := EncodeScenario(&want)
		// As the base, and as a patch onto a base that lacks the section.
		for _, doc := range []string{
			`{"version":1,"base":{"name":"s",` + members + `}}`,
			`{"version":1,"base":{"name":"s"},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{` + members + `}}]}]}`,
		} {
			cells, err := ExpandSweep([]byte(doc))
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			got := cells[0]
			got.Name = want.Name
			if gotDoc, _ := EncodeScenario(&got); !bytes.Equal(gotDoc, wantDoc) {
				t.Errorf("%s:\n got %s\nwant %s", doc, gotDoc, wantDoc)
			}
		}
	}

	// The explore fields the merge cases set: max_states, bound, queue_depth.
	merged := func(base, patch string) [3]int {
		t.Helper()
		cells, err := ExpandSweep([]byte(`{"version":1,"base":{` + base + `},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{` + patch + `}}]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		e := cells[0].Explore
		return [3]int{e.MaxStates, e.Bound, e.QueueDepth}
	}
	for _, c := range []struct {
		base, patch string
		want        [3]int
	}{
		{`"explore":{"max_states":5},"explore":{"bound":2}`, `"explore":{"queue_depth":3}`, [3]int{0, 2, 3}},
		{`"explore":{"max_states":5}`, `"explore":{"bound":2},"explore":{"queue_depth":3}`, [3]int{5, 0, 3}},
		{`"Explore":{"max_states":5}`, `"explore":{"bound":2}`, [3]int{5, 2, 0}},
		{`"explore":{"max_states":5}`, `"EXPLORE":{"bound":2}`, [3]int{5, 2, 0}},
	} {
		if got := merged(c.base, c.patch); got != c.want {
			t.Errorf("base {%s} patched with {%s}: max_states, bound, queue_depth = %v, want %v", c.base, c.patch, got, c.want)
		}
	}
}

// TestSweepErrorNamesFirstCell: a value shared by several cells is
// validated once, and the error names the first cell, in grid order,
// that uses it — here the fault model that fits the three-node graph
// and not the two-node one.
func TestSweepErrorNamesFirstCell(t *testing.T) {
	_, err := DecodeSweep([]byte(sweepErrorDocs["fault-fits-one-graph"]))
	if err == nil || !strings.Contains(err.Error(), `cell "/g2/cut"`) || !strings.Contains(err.Error(), "2-node graph") {
		t.Fatalf("error = %v", err)
	}
}

// sweepDocKeys are the content addresses of sweepDoc's twelve cells
// under Auto{}. Expansion must never move them: a persistent cache
// filled by an older build keeps answering. They last moved with
// CacheEpoch 3, when the address began hashing the engine spec instead
// of the engine's Go value; before that with CacheEpoch 2, when the
// simulator's generator changed and every sampled verdict became a new
// sample.
var sweepDocKeys = []string{
	"e55529716992567bf22ff1559093dc77e22285c163a76ab757d4bdda7290d16a", // base/n2/reliable/default
	"4a8076a91c6b33aa7696e91d67b90042b8f38def0a44e78f2628522a3adc9340", // base/n2/reliable/dup
	"1c744f2337ebcfb22153261c3c72e7ffadd2dcea30bd9bb394157bf7cdb0bc83", // base/n2/drop20/default
	"c41caca3ab4e33c89a367d39d0ca01c0f0ac541caf56981e7ce5069562911075", // base/n2/drop20/dup
	"d5df7fadc196e463c1dd9768d1932025701226af8e215fd4ab0fd97109256497", // base/n2/delay2/default
	"5a53174bbae2c2a847ba8dddfcc649b3aa25bf159c0156343b63c8cc27e7604f", // base/n2/delay2/dup
	"a2bf22e182d9a1013a9f7f01d7fb2dfe5d594fc3cabf35e8990c65bbc5a7fe45", // base/n3/reliable/default
	"bec80c7b2a25f62abcaa3c2966a2e1bef8663dd9ef1bd0230ed914d45115d1b1", // base/n3/reliable/dup
	"7d78ac0e2cc80b04b0f122fe4ff8a4e393bdeb5396a1ffbae6eb29888e704b7b", // base/n3/drop20/default
	"192c2c33042eec18db3baf10c5c2f768dc18a7b9425a24c10a89130845ccc770", // base/n3/drop20/dup
	"40456a1bf1d0372daf327c0978eb2133f89aa6bd3008e59cf1f973f25c384b7c", // base/n3/delay2/default
	"144273e3e415dd6436ad724470cd558bc834378a1b102f22e8145e518826c04a", // base/n3/delay2/dup
}

func TestSweepContentAddressesAreGolden(t *testing.T) {
	sw, err := DecodeSweep([]byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != len(sweepDocKeys) {
		t.Fatalf("%d cells", sw.Len())
	}
	for i, want := range sweepDocKeys {
		c := &sw.cells[i]
		if key, err := CacheKey(&c.scenario, Auto{}); err != nil || key != want {
			t.Errorf("cell %q: CacheKey %s (%v), want %s", c.scenario.Name, key, err, want)
		}
		if key, _ := contentAddress(c.canonical, &c.scenario, Auto{}); key != want {
			t.Errorf("cell %q: address from carried bytes %s, want %s", c.scenario.Name, key, want)
		}
	}
}

// TestCanonicalHead: the frame fragment cuts away is the one
// the encoder writes.
func TestCanonicalHead(t *testing.T) {
	data, err := EncodeScenario(&Scenario{})
	if err != nil || string(data) != canonicalHead+"}" {
		t.Fatalf("empty scenario encodes as %s (%v)", data, err)
	}
}

func FuzzExpandSweep(f *testing.F) {
	for _, doc := range sweepCorpus() {
		f.Add(doc)
	}
	for _, doc := range []string{
		// A null base is the empty one, on both sides.
		`{"version":1,"name":"n","base":null,"axes":[{"axis":"a","variants":[{"name":"v","scenario":{"explore":{"bound":2}}}]}]}`,
		// A base and a patch that are not objects.
		`{"version":1,"base":[1],"axes":[{"axis":"a","variants":[{"name":"v","scenario":{}}]}]}`,
		`{"version":1,"base":{},"axes":[{"axis":"a","variants":[{"name":"v","scenario":5}]}]}`,
		// A repeated and a mixed-case section member, read alone and merged.
		`{"version":1,"base":{"explore":{"max_states":5},"explore":{"bound":2}},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{}},{"name":"w","scenario":{"explore":{"queue_depth":3}}}]}]}`,
		`{"version":1,"base":{"Explore":{"max_states":5}},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{}},{"name":"w","scenario":{"EXPLORE":{"bound":2}}}]}]}`,
		// An unknown member inside a variant's section: only the source's
		// own strict decode sees it.
		`{"version":1,"base":{},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{"explore":{"nope":1}}}]}]}`,
		// The reading rules inside sources and around them: folded and
		// escaped names, repeated lists and sources, nulls, integers, and
		// a byte after the document that is not JSON white space.
		`{"version":1,"base":{"AGENTS":[{"id":0,"items":1,"base":[2],"policy":{"target":1}}]},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{"\u0061gents":[{"id":0,"items":1,"base":[3],"policy":{"target":1}}]}}]}]}`,
		`{"version":1,"base":{"agents":[{"id":0,"items":2,"base":[2,3],"policy":{"target":1}},{"id":1,"items":2,"base":[4,5],"policy":{"target":1}}],"agents":[{"id":0}]},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{}}]}]}`,
		`{"version":1,"base":{"explore":{"max_states":5}},"base":{"faults":{"drop":0.5}},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{}},{"name":"w","scenario":{"faults":{"delay":1}}}]}],"axes":[{"axis":"b","variants":[{"name":"x","scenario":{"explore":{"bound":1e2}}}]}]}`,
		`{"version":1,"base":{"graph":null,"solver":{"rand_seed":18446744073709551616}},"axes":[{"axis":"a","variants":[{"name":"v","scenario":{"solver":{"rand_seed":-1}}}]}]}`,
		"{\"version\":1,\"base\":{\"\xe2\x84\xaaxplore\":{}},\"axes\":[{\"axis\":\"a\",\"variants\":[{\"name\":\"v\xff\",\"scenario\":{}}]}]}\f",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkSweepAgainstReflect(t, doc)
		if ambiguousKeys(doc) {
			return
		}
		checkAgainstReference(t, doc)
	})
}

func FuzzDecodeScenario(f *testing.F) {
	f.Add([]byte(`{"version":1,"graph":{"nodes":20000000},"explore":{"store":"bitstate","store_bits":62}}`))
	f.Add([]byte(`{"version":1,"name":"x","agents":[{"id":0,"items":2,"base":[10,15],"demands":[1,2],"capacity":3,"policy":{"target":2,"utility":{"kind":"escalating-attack","step":2,"cap":64},"release_outbid":true,"rebid":"always","bids_per_round":1}}],"graph":{"nodes":2,"edges":[{"u":0,"v":1,"w":0}]},"explore":{"bound":5,"max_states":10,"store":"hash-compact","store_bits":12},"faults":{"drop":0.5,"drop_edge":[{"from":0,"to":1,"drop":1}],"delay_edge":[{"from":1,"to":0,"delay":2}],"duplicate":0.1,"reorder":2,"partitions":[[1],[0]],"heal_after":3},"model":{"kind":"mca-model","spec":{"encoding":"optimized","scope":{"pnodes":2,"vnodes":1,"values":2,"states":3,"msgs":1},"assert_state":2}},"solver":{"rand_seed":7,"random_polarity_freq":0.25}}`))
	if sw, err := DecodeSweep([]byte(sweepDoc)); err == nil {
		for i := range sw.cells {
			doc, _ := EncodeScenario(&sw.cells[i].scenario)
			f.Add(doc)
		}
	}
	// The second seed as a well-formed scenario (an agent per node), the
	// sample file, and the shapes of testdata/malformed.json.
	f.Add([]byte(`{"version":1,"name":"x","agents":[{"id":0,"items":2,"base":[10,15],"demands":[1,2],"capacity":3,"policy":{"target":2,"utility":{"kind":"escalating-attack","step":2,"cap":64},"release_outbid":true,"rebid":"always","bids_per_round":1}},{"id":1,"items":2,"base":[7,3],"policy":{"target":1,"utility":{"kind":"flat"},"rebid":"never"}}],"graph":{"nodes":2,"edges":[{"u":0,"v":1,"w":0}]},"explore":{"bound":5,"max_states":10,"store":"hash-compact","store_bits":12},"faults":{"partitions":[[1],[0]]}}`))
	valid, rows := malformedDocs(f)
	f.Add([]byte(valid))
	for _, row := range rows {
		f.Add([]byte(row.New))
	}
	for _, doc := range readingRuleDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkScenarioWire(t, doc)
		s, err := DecodeScenario(doc)
		if _, refErr := decodeScenarioReflect(doc); (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeScenario says %v, the reflective decode %v", err, refErr)
		}
		if err != nil {
			return
		}
		checkEncodeScenario(t, &s)
		first, err := EncodeScenario(&s)
		if err != nil {
			t.Fatalf("decoded scenario does not encode: %v", err)
		}
		again, err := DecodeScenario(first)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, first)
		}
		if second, err := EncodeScenario(&again); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("round trip moved the bytes (%v):\n%s\n%s", err, first, second)
		}
		// What decodes verifies: an engine may refuse the scenario or run
		// out of budget, but a panic — here, or re-raised from a shard —
		// fails the target. Small scenarios only, on a small budget.
		if len(s.AgentSpecs) > 6 || (len(s.AgentSpecs) > 0 && s.AgentSpecs[0].Items > 3) {
			return
		}
		if s.Explore.MaxStates <= 0 || s.Explore.MaxStates > 2000 {
			s.Explore.MaxStates = 2000
		}
		if s.Explore.StoreBits == 0 || s.Explore.StoreBits > 12 {
			s.Explore.StoreBits = 12 // the lossy stores' default sizes are 8 and 16 MiB
		}
		for _, eng := range []Engine{Explicit{}, Explicit{Workers: 2}} {
			if res := eng.Verify(context.Background(), s); res.Status == StatusError && Applicable(eng, &s) == nil {
				t.Fatalf("%s: error result for an applicable scenario: %v\n%s", eng.Name(), res.Err, first)
			}
		}
	})
}

// TestDecodeScenarioBounds: sizes a document states are bounded before
// anything is allocated from them.
func TestDecodeScenarioBounds(t *testing.T) {
	for name, doc := range map[string]string{
		"graph-nodes":       `{"version":1,"graph":{"nodes":20000000}}`,
		"graph-nodes-max+1": fmt.Sprintf(`{"version":1,"graph":{"nodes":%d}}`, MaxGraphNodes+1),
		"bitstate-62":       `{"version":1,"explore":{"store":"bitstate","store_bits":62}}`,
		"bitstate-40":       `{"version":1,"explore":{"store":"bitstate","store_bits":40}}`,
		"hash-compact-30":   `{"version":1,"explore":{"store":"hash-compact","store_bits":30}}`,
		"negative-bits":     `{"version":1,"explore":{"store":"bitstate","store_bits":-1}}`,
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeScenario([]byte(doc))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted %s", doc)
			}
			// The parent allocated 1,068 MB for the first document.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("rejecting %s allocated %d bytes", doc, grew)
			}
		})
	}
	for _, doc := range []string{
		fmt.Sprintf(`{"version":1,"graph":{"nodes":%d}}`, 1024),
		`{"version":1,"explore":{"store":"bitstate","store_bits":34}}`,
		`{"version":1,"explore":{"store":"hash-compact","store_bits":29}}`,
	} {
		if _, err := DecodeScenario([]byte(doc)); err != nil {
			t.Fatalf("rejected %s: %v", doc, err)
		}
	}
}

// objectMergeGrid is benchShapedGrid(n) with every agents variant also
// patching the base's explore object: each of its n values is a tree
// merge, marshalled and read back.
func objectMergeGrid(n int) []byte {
	doc := strings.Replace(string(benchShapedGrid(n)), `"explore":{"max_states":100000}`, `"explore":{"max_states":100000,"queue_depth":2}`, 1)
	parts := strings.Split(doc, `,"scenario":{"agents":[`)
	var b strings.Builder
	b.WriteString(parts[0])
	for i, p := range parts[1:] {
		fmt.Fprintf(&b, `,"scenario":{"explore":{"max_states":%d},"agents":[%s`, 1000*(1+i%5), p)
	}
	return []byte(b.String())
}

// BenchmarkDecodeSweep decodes the 600-cell bench grid, and the grid
// whose 200 agent variants each merge an object into the base's.
//
//	go test ./internal/engine -run '^$' -bench 'DecodeSweep$' -benchmem -cpu 2
func BenchmarkDecodeSweep(b *testing.B) {
	for _, c := range []struct {
		name string
		doc  []byte
	}{{"bench-grid", benchShapedGrid(200)}, {"object-merge", objectMergeGrid(200)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeSweep(c.doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExpandSweepReference(b *testing.B) {
	doc := benchShapedGrid(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expandSweepReference(doc); err != nil {
			b.Fatal(err)
		}
	}
}
