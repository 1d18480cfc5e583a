package engine

import (
	"bytes"
	"context"
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

// The engine-level acceptance pin: capping a run, serializing the
// checkpoint through its codec, and resuming with a raised budget
// yields a result byte-identical (via the result codec, wall-time
// aside) to the same verification executed uninterrupted — across
// capping/resuming worker-count combinations.
func TestVerifyResumableByteIdenticalToUninterrupted(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, pair := range [][2]int{{1, 1}, {2, 2}, {1, 8}, {8, 2}} {
		capW, resW := pair[0], pair[1]
		// The reference runs at the resuming worker count so even the
		// engine label ("explicit-parallel(N)") matches byte-for-byte;
		// the verdict itself is identical at any worker count.
		full := resultBytes(t, Explicit{Workers: resW}.Verify(ctx, resumableScenario(0)))
		res, cp := Explicit{Workers: capW}.VerifyResumable(ctx, resumableScenario(100), nil)
		if res.Status != StatusInconclusive || !res.Stats.Capped {
			t.Fatalf("%d workers: capped run: status=%v capped=%v", capW, res.Status, res.Stats.Capped)
		}
		if cp == nil {
			t.Fatalf("%d workers: capped run returned no checkpoint", capW)
		}

		// Round-trip the checkpoint document, as mcacheck/mcaserved do.
		enc, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatal(err)
		}

		resumed, next := Explicit{Workers: resW}.VerifyResumable(ctx, resumableScenario(0), dec)
		if next != nil {
			t.Fatalf("%d->%d workers: completed resume still returned a checkpoint", capW, resW)
		}
		if got := resultBytes(t, resumed); !bytes.Equal(got, full) {
			t.Fatalf("%d->%d workers: resumed result diverged:\n%s\nvs uninterrupted:\n%s", capW, resW, got, full)
		}
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

	// A checkpoint written before the canonical key function changed
	// (run-state magic MCARS2): sound envelope, foreign key space.
	old := *cp
	old.State = append([]byte("MCARS2\n"), cp.State[len("MCARS3\n"):]...)
	oldEnc, err := EncodeCheckpoint(&old)
	if err != nil {
		t.Fatal(err)
	}

	docs := map[string][]byte{
		"not-json":   []byte("not json"),
		"truncate":   enc[:len(enc)/2],
		"runstate":   []byte(strings.Replace(string(enc), `"run_state":"`, `"run_state":"AAAA`, 1)),
		"old-binary": oldEnc,
	}
	for name, doc := range docs {
		_, err := DecodeCheckpoint(doc)
		if err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: error %v does not wrap ErrCorruptCheckpoint", name, err)
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
	// Star-4 capped after its first level, on two shards.
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	star4 := Scenario{Name: "star4", Graph: graph.Star(4), Explore: explore.Options{MaxStates: 1}}
	for i, base := range [][]int64{{12, 8}, {8, 12}, {4, 8}, {6, 6}} {
		star4.AgentSpecs = append(star4.AgentSpecs, mca.Config{ID: mca.AgentID(i), Items: 2, Base: base, Policy: pol})
	}
	_, cp := Explicit{Workers: 2}.VerifyResumable(context.Background(), star4, nil)
	if cp == nil {
		f.Fatal("star-4 seed run did not cap")
	}
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[bytes.IndexByte(enc, '\n')+1:]) // the payload
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

// The serial DFS has no checkpointable cut; asking for one is an
// error, not a silent fallback.
func TestVerifyResumableRejectsSerial(t *testing.T) {
	t.Parallel()
	res, cp := Explicit{Workers: 0}.VerifyResumable(context.Background(), resumableScenario(100), nil)
	if res.Status != StatusError || cp != nil {
		t.Fatalf("serial checkpoint request: status=%v cp=%v", res.Status, cp != nil)
	}
	if !strings.Contains(res.Err.Error(), "parallel frontier") {
		t.Fatalf("unhelpful error: %v", res.Err)
	}
}

// Lossy stores are serial-only: the sharded frontier partitions the
// state space by its exact seen-set, so the engine gates the combining
// of the two rather than producing an undefined hybrid.
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
	if par.Status != StatusError || !strings.Contains(par.Err.Error(), "serial-only") {
		t.Fatalf("parallel lossy run not gated: status=%v err=%v", par.Status, par.Err)
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
