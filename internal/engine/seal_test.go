package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/trace"
)

// TestSealIsGolden pins the envelope bytes of both on-disk formats: a
// disk cache entry or a checkpoint the previous binary wrote still
// opens, and one this binary writes still opens in it.
func TestSealIsGolden(t *testing.T) {
	const xDigest = "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881" // SHA-256("x")
	for _, magic := range []string{"MCACHK1 ", checkpointMagic} {
		want := magic + xDigest + "\nx"
		if got := string(Seal(magic, []byte("x"))); got != want {
			t.Fatalf("Seal(%q, x) = %q, want %q", magic, got, want)
		}
		payload, err := Unseal(magic, []byte(want))
		if err != nil || string(payload) != "x" {
			t.Fatalf("Unseal(%q) = %q, %v", magic, payload, err)
		}
	}
	if got := Digest([]byte("x")); got != xDigest {
		t.Fatalf("Digest(x) = %s", got)
	}
}

// TestUnsealFailsClosed: bytes the seal does not vouch for never come
// back as a payload — no magic, another magic, a short or damaged
// header, any flipped bit.
func TestUnsealFailsClosed(t *testing.T) {
	payload := []byte(`{"version":1}`)
	sealed := Seal(checkpointMagic, payload)
	header := len(checkpointMagic) + 64
	for name, data := range map[string][]byte{
		"bare payload":   payload,
		"other magic":    Seal("MCACHK1 ", payload),
		"short header":   []byte(checkpointMagic + "2d71"),
		"no newline":     append(append([]byte(nil), sealed[:header]...), 'x'),
		"header only":    sealed[:header],
		"empty":          nil,
		"upper-case hex": []byte(checkpointMagic + string(bytes.ToUpper(sealed[len(checkpointMagic):header])) + "\n" + string(payload)),
	} {
		if _, err := Unseal(checkpointMagic, data); err == nil {
			t.Fatalf("%s: unsealed", name)
		}
	}
	for bit := 0; bit < len(sealed)*8; bit++ {
		bad := append([]byte(nil), sealed...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := Unseal(checkpointMagic, bad); err == nil {
			t.Fatalf("flip of bit %d went undetected", bit)
		}
	}
}

// TestCheckDigestFailsClosed: a body-digest header that is missing is
// refused like one that does not match.
func TestCheckDigestFailsClosed(t *testing.T) {
	body := []byte("result")
	if err := CheckDigest(Digest(body), body); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"missing": "", "other body": Digest([]byte("other"))} {
		if err := CheckDigest(want, body); err == nil {
			t.Fatalf("%s digest accepted", name)
		}
	}
}

// FuzzDecodeResult: DecodeResult reads bytes from the network (worker
// replies, peer cache PUT bodies and GET replies) and from disk. Each
// input decodes to an error, or to a value whose full encoding is the
// input itself; never a panic, and allocation in proportion to the
// input. The other way round, a Result whose strings and miss_prob come
// from the input encodes to a document that reads back to itself. On
// both halves the writer is held to json.Marshal of the mirror structs
// (marshalResult).
func FuzzDecodeResult(f *testing.F) {
	pol := mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange}
	osc := Explicit{}.Verify(context.Background(), Scenario{Name: "osc", AgentSpecs: specs(2, 2, pol), Graph: graph.Complete(2)})
	if osc.Status != StatusViolated || osc.Trace == nil {
		f.Fatalf("oscillation seed: status %v, trace %v", osc.Status, osc.Trace != nil)
	}
	for _, r := range []Result{osc, {Index: 3, Scenario: "m", Engine: "sat", Status: StatusHolds, Cached: true}} {
		data, err := EncodeResult(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"status":"error","error":"boom"}`))
	for _, r := range hitShapes() {
		for _, name := range awkwardNames {
			r.Scenario, r.Index = name, 5
			data, err := EncodeResult(&r)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	// miss_prob at encoding/json's format boundaries, and error text of
	// invalid UTF-8: as the encoder writes it, and raw.
	for _, p := range []float64{1e-7, 1e-6, 0.25, 1e20, 1e21} {
		f.Add(fullEncode(f, Result{Engine: "explicit", Status: StatusHolds, Stats: Stats{States: 9, MissProb: p}}))
	}
	f.Add(fullEncode(f, Result{Status: StatusError, Err: errors.New("bad\xffutf8")}))
	f.Add([]byte("{\"version\":1,\"index\":0,\"status\":\"error\",\"error\":\"bad\xffutf8\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := DecodeResult(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err == nil {
			if got := fullEncode(t, res); !bytes.Equal(got, bytes.TrimSuffix(data, []byte("\n"))) {
				t.Fatalf("read\n%q\nwhich encodes as\n%q", data, got)
			}
			checkMarshal(t, res)
		}
		s := string(data)
		rec := trace.NewRecorder()
		rec.ItemNames = []string{s}
		rec.Record(trace.Step{Label: s})
		var bits [8]byte
		copy(bits[:], data)
		r := Result{Scenario: s, Engine: s, Index: len(data) - 4, Status: StatusHolds, Trace: rec, Err: errors.New(s),
			Stats: Stats{MissProb: math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))}}
		checkMarshal(t, r)
		first, err := EncodeResult(&r)
		if err != nil {
			return // a NaN or infinite miss_prob has no JSON spelling
		}
		again, err := DecodeResult(first)
		if err != nil {
			t.Fatalf("%v, reading what EncodeResult wrote:\n%q", err, first)
		}
		if second := fullEncode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("round trip moved the bytes:\n%q\n%q", first, second)
		}
	})
}
