package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
)

// resumableScenario is the checkpoint-test fixture: 503 states, depth
// 12, property holds — cappable at interesting budgets, cheap to run
// uninterrupted.
func resumableScenario(budget int) Scenario {
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	return Scenario{
		Name: "resumable",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 2, Base: []int64{10, 0}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{0, 20}, Policy: pol},
			{ID: 2, Items: 2, Base: []int64{5, 5}, Policy: pol},
		},
		Graph:   graph.Line(3),
		Explore: explore.Options{MaxStates: budget},
	}
}

// resultBytes encodes a result with wall-clock (the one legitimately
// non-deterministic field) zeroed, for byte-identity comparison.
func resultBytes(t *testing.T, res Result) []byte {
	t.Helper()
	res.Stats.Wall = 0
	data, err := EncodeResult(&res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// oscScenario oscillates: two agents, non-submodular synergy with
// release, 12 states to the violation.
func oscScenario(budget int) Scenario {
	pol := mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange}
	return Scenario{
		Name: "oscillating",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
		},
		Graph:   graph.Complete(2),
		Explore: explore.Options{MaxStates: budget},
	}
}

// checkpointRoundTrip sends a checkpoint through its document codec, as
// mcacheck and mcaserved do.
func checkpointRoundTrip(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// The engine-level acceptance pin: capping a run, serializing the
// checkpoint through its codec, and resuming with a raised budget
// yields a result byte-identical (via the result codec, wall-time
// aside) to the same verification executed uninterrupted — and, where
// that run caps too, the same checkpoint. The cuts cover line-3 that
// holds, an oscillation found after the cut, and line-3 with duplicate
// deliveries (its first 3,000 states), cut inside a branch that leaves
// a message in flight. Explicit{Workers: n} is the same DFS.
func TestVerifyResumableByteIdenticalToUninterrupted(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	dup := func(budget int) Scenario {
		s := resumableScenario(budget)
		s.Explore.DuplicateDeliveries = true
		return s
	}
	for _, tc := range []struct {
		name     string
		scenario func(int) Scenario
		full     int
		cuts     []int
	}{
		{"line-3", resumableScenario, 0, []int{1, 50, 200, 400, 502}},
		{"oscillation", oscScenario, 0, []int{3, 6, 11}},
		{"line-3 duplicates", dup, 3000, []int{40, 700, 1500, 2999}},
	} {
		full, fullCp := Explicit{}.VerifyResumable(ctx, tc.scenario(tc.full), nil)
		fullBytes := resultBytes(t, full)
		if tc.name == "oscillation" && full.Violation != explore.ViolationOscillation {
			t.Fatalf("%s: reference run: %+v", tc.name, full)
		}
		inFlight := false
		for i, cut := range tc.cuts {
			eng := Explicit{Workers: i % 3} // 0, 1, 2: the same run
			res, cp := eng.VerifyResumable(ctx, tc.scenario(cut), nil)
			if res.Status != StatusInconclusive || !res.Stats.Capped || cp == nil {
				t.Fatalf("%s cut at %d: status=%v capped=%v checkpoint=%v", tc.name, cut, res.Status, res.Stats.Capped, cp != nil)
			}
			cp = checkpointRoundTrip(t, cp)
			st, err := explore.DecodeDFSState(cp.State)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range st.Path {
				inFlight = inFlight || !step.Consume
			}
			resumed, next := Explicit{}.VerifyResumable(ctx, tc.scenario(tc.full), cp)
			if got := resultBytes(t, resumed); !bytes.Equal(got, fullBytes) {
				t.Fatalf("%s cut at %d: resumed result diverged:\n%s\nvs uninterrupted:\n%s", tc.name, cut, got, fullBytes)
			}
			if (next == nil) != (fullCp == nil) || next != nil && !bytes.Equal(next.State, fullCp.State) {
				t.Fatalf("%s cut at %d: the resumed run's checkpoint differs from the uninterrupted run's", tc.name, cut)
			}
		}
		if tc.scenario(0).Explore.DuplicateDeliveries && !inFlight {
			t.Fatalf("%s: no cut fell inside a duplicate-delivery branch", tc.name)
		}
	}
}

// Two resumes in a row are one uninterrupted run.
func TestVerifyResumableChain(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	full := resultBytes(t, Explicit{}.Verify(ctx, resumableScenario(0)))
	_, cp := Explicit{}.VerifyResumable(ctx, resumableScenario(100), nil)
	mid, cp2 := Explicit{}.VerifyResumable(ctx, resumableScenario(300), checkpointRoundTrip(t, cp))
	if !mid.Stats.Capped || mid.Stats.States != 300 || cp2 == nil {
		t.Fatalf("first resume: %+v, checkpoint %v", mid.Stats, cp2 != nil)
	}
	last, cp3 := Explicit{}.VerifyResumable(ctx, resumableScenario(0), checkpointRoundTrip(t, cp2))
	if got := resultBytes(t, last); cp3 != nil || !bytes.Equal(got, full) {
		t.Fatalf("second resume (checkpoint %v):\n%s\nvs uninterrupted:\n%s", cp3 != nil, got, full)
	}
}

func TestCheckpointCodecRejectsCorruption(t *testing.T) {
	t.Parallel()
	_, cp := Explicit{Workers: 2}.VerifyResumable(context.Background(), resumableScenario(100), nil)
	if cp == nil {
		t.Fatal("no checkpoint")
	}
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeCheckpoint(Seal(checkpointMagic, []byte(`{"version":999}`))); err == nil {
		t.Fatal("wrong version decoded")
	}
	if _, err := DecodeCheckpoint([]byte(`not json`)); err == nil {
		t.Fatal("non-JSON decoded")
	}
	// The envelope is not optional: the same valid document with its
	// header stripped must not decode on structural validation alone.
	bare := enc[bytes.IndexByte(enc, '\n')+1:]
	if _, err := DecodeCheckpoint(Seal(checkpointMagic, bare)); err != nil {
		t.Fatalf("re-wrapped payload: %v", err)
	}
	if _, err := DecodeCheckpoint(bare); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("checkpoint without its checksum header: err = %v, want ErrCorruptCheckpoint", err)
	}
	// Corrupt the base64 run state payload: the decoder must validate
	// the embedded binary document, not just carry it.
	bad := strings.Replace(string(enc), `"run_state":"`, `"run_state":"AAAA`, 1)
	if _, err := DecodeCheckpoint([]byte(bad)); err == nil {
		t.Fatal("corrupt run state decoded")
	}
}

// TestCorruptCheckpointErrorIsTyped: bytes-caused decode failures wrap
// ErrCorruptCheckpoint — and never panic — so mcacheck -resume can
// match the class and tell the user to delete the file and re-verify.
// A version mismatch is deliberately NOT corruption: it is a correct
// document from a different schema, and the distinction matters for
// what the operator should do next.
func TestCorruptCheckpointErrorIsTyped(t *testing.T) {
	t.Parallel()
	_, cp := Explicit{Workers: 2}.VerifyResumable(context.Background(), resumableScenario(100), nil)
	if cp == nil {
		t.Fatal("no checkpoint")
	}
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	// A checkpoint of the sharded frontier (run-state magic MCARS3, and
	// the worker count only such a checkpoint carries): sound envelope,
	// a format that no longer resumes.
	old := *cp
	old.State = append([]byte("MCARS3\n"), cp.State[len("MCARS4\n"):]...)
	oldEnc, err := EncodeCheckpoint(&old)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := EncodeScenario(&cp.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := json.Marshal(checkpointJSON{Version: SchemaVersion, Scenario: sc, Workers: 2, RunState: cp.State})
	if err != nil {
		t.Fatal(err)
	}

	docs := map[string][]byte{
		"not-json":   []byte("not json"),
		"truncate":   enc[:len(enc)/2],
		"runstate":   []byte(strings.Replace(string(enc), `"run_state":"`, `"run_state":"AAAA`, 1)),
		"old-binary": oldEnc,
		"frontier":   Seal(checkpointMagic, frontier),
	}
	for name, doc := range docs {
		_, err := DecodeCheckpoint(doc)
		if err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: error %v does not wrap ErrCorruptCheckpoint", name, err)
		}
		if (name == "old-binary" || name == "frontier") && !strings.Contains(err.Error(), "sharded-frontier") {
			t.Fatalf("%s: error %v does not name the format", name, err)
		}
	}
	// Bit flips anywhere in the document: typed error or (rarely) a
	// clean decode — never a panic, which this loop would surface.
	for i := 0; i < len(enc); i += 61 {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x08
		if _, err := DecodeCheckpoint(bad); err != nil &&
			!errors.Is(err, ErrCorruptCheckpoint) && !strings.Contains(err.Error(), "schema version") {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
	}
	if _, err := DecodeCheckpoint(Seal(checkpointMagic, []byte(`{"version":999}`))); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("version mismatch misclassified: %v", err)
	}
}

// FuzzDecodeCheckpoint: a checkpoint file is untrusted bytes, and its
// checksum envelope is no secret, so the target decodes each input both
// as written and as the payload of a valid envelope. Either is an
// ErrCorruptCheckpoint (or, deliberately not corruption, a schema
// version mismatch), or a checkpoint whose encoding decodes and
// re-encodes byte-identically — never a panic. Allocation is bounded by
// the input plus what the embedded scenario's ceilings allow (a graph
// of MaxGraphNodes nodes, a model at the mcamodel scope ceilings).
func FuzzDecodeCheckpoint(f *testing.F) {
	// DFS checkpoints: star-4 capped at its first state, and line-3 a
	// hundred states in.
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	star4 := Scenario{Name: "star4", Graph: graph.Star(4), Explore: explore.Options{MaxStates: 1}}
	for i, base := range [][]int64{{12, 8}, {8, 12}, {4, 8}, {6, 6}} {
		star4.AgentSpecs = append(star4.AgentSpecs, mca.Config{ID: mca.AgentID(i), Items: 2, Base: base, Policy: pol})
	}
	for _, s := range []Scenario{star4, resumableScenario(100)} {
		_, cp := Explicit{}.VerifyResumable(context.Background(), s, nil)
		if cp == nil {
			f.Fatalf("%s seed run did not cap", s.Name)
		}
		enc, err := EncodeCheckpoint(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[bytes.IndexByte(enc, '\n')+1:]) // the payload
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, doc := range [][]byte{data, Seal(checkpointMagic, data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cp, err := DecodeCheckpoint(doc)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 128<<20+64*uint64(len(doc)) {
				t.Fatalf("decoding %d bytes allocated %d", len(doc), grew)
			}
			if err != nil {
				if !errors.Is(err, ErrCorruptCheckpoint) && !strings.Contains(err.Error(), "unsupported schema version") {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			first, err := EncodeCheckpoint(cp)
			if err != nil {
				t.Fatalf("decoded checkpoint does not encode: %v", err)
			}
			again, err := DecodeCheckpoint(first)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			if second, err := EncodeCheckpoint(again); err != nil || !bytes.Equal(first, second) {
				t.Fatalf("round trip moved the bytes (%v):\n%s\n%s", err, first, second)
			}
		}
	})
}

// Matches: renaming and raising the budget are the two legal deltas on
// resume; any semantic difference is an error surfaced as StatusError.
func TestCheckpointScenarioMatching(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	_, cp := Explicit{Workers: 2}.VerifyResumable(ctx, resumableScenario(100), nil)
	if cp == nil {
		t.Fatal("no checkpoint")
	}

	renamed := resumableScenario(0)
	renamed.Name = "renamed-but-same"
	res, _ := (Explicit{Workers: 2}).VerifyResumable(ctx, renamed, cp)
	if res.Status != StatusHolds {
		t.Fatalf("rename + raised budget should resume fine: %+v status=%v err=%v", res.Stats, res.Status, res.Err)
	}

	tampered := resumableScenario(0)
	tampered.AgentSpecs[2].Base = []int64{6, 5}
	res, _ = (Explicit{Workers: 2}).VerifyResumable(ctx, tampered, cp)
	if res.Status != StatusError || res.Err == nil {
		t.Fatalf("different scenario accepted on resume: status=%v err=%v", res.Status, res.Err)
	}
	if !strings.Contains(res.Err.Error(), "different scenario") {
		t.Fatalf("unhelpful mismatch error: %v", res.Err)
	}
}

// Lossy stores are serial-only, and so is every explicit check: a
// lossy store runs at any worker count, on the serial DFS, but cannot
// checkpoint, since its seen-set keeps no keys.
func TestLossyStoreSerialOnly(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	s := resumableScenario(0)
	s.Explore.Store = explore.StoreBitstate
	s.Explore.StoreBits = 16

	serial := Explicit{Workers: 0}.Verify(ctx, s)
	if serial.Status != StatusHolds {
		t.Fatalf("serial bitstate run: status=%v err=%v", serial.Status, serial.Err)
	}
	if serial.Stats.MissProb <= 0 {
		t.Fatalf("serial bitstate run reported MissProb %v, want > 0", serial.Stats.MissProb)
	}
	par := Explicit{Workers: 2}.Verify(ctx, s)
	if !bytes.Equal(resultBytes(t, par), resultBytes(t, serial)) {
		t.Fatalf("workers=2 bitstate run: status=%v err=%v, want the serial result", par.Status, par.Err)
	}
	res, cp := Explicit{}.VerifyResumable(ctx, s, nil)
	if res.Status != StatusError || cp != nil || !strings.Contains(res.Err.Error(), "bitstate") {
		t.Fatalf("checkpointed bitstate run: status=%v err=%v checkpoint=%v, want an error naming the store", res.Status, res.Err, cp != nil)
	}
}

// The result codec carries MissProb, and the scenario codec carries
// the store selection — both round-trip, and the store field is
// verdict-affecting so it must split cache keys.
func TestStoreFieldsRoundTrip(t *testing.T) {
	t.Parallel()
	s := resumableScenario(0)
	s.Explore.Store = explore.StoreHashCompact
	s.Explore.StoreBits = 18

	enc, err := EncodeScenario(&s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeScenario(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Explore.Store != explore.StoreHashCompact || dec.Explore.StoreBits != 18 {
		t.Fatalf("store fields lost: %+v", dec.Explore)
	}

	exact := resumableScenario(0)
	keyLossy, err := CacheKey(&s, Explicit{})
	if err != nil {
		t.Fatal(err)
	}
	keyExact, err := CacheKey(&exact, Explicit{})
	if err != nil {
		t.Fatal(err)
	}
	if keyLossy == keyExact {
		t.Fatal("lossy and exact scenarios share a cache key")
	}

	res := Explicit{Workers: 0}.Verify(context.Background(), s)
	data, err := EncodeResult(&res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats.MissProb != res.Stats.MissProb {
		t.Fatalf("MissProb lost in result codec: %v vs %v", back.Stats.MissProb, res.Stats.MissProb)
	}
}

// Summarize counts capped runs, and the summary codec carries the
// counter.
func TestSummaryCountsCapped(t *testing.T) {
	t.Parallel()
	res := Explicit{Workers: 2}.Verify(context.Background(), resumableScenario(100))
	if !res.Stats.Capped {
		t.Fatalf("fixture not capped: %+v", res.Stats)
	}
	sum := Summarize([]Result{res, {Status: StatusHolds}})
	if sum.Capped != 1 || sum.Inconclusive != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	enc, err := EncodeSummary(&sum)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSummary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Capped != 1 {
		t.Fatalf("capped count lost in summary codec: %+v", dec)
	}
}
