package cache

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
)

// TestDiskEnvelopeRoundTrip pins the disk tier's envelope: wrapped
// payloads open back to themselves, and any flipped bit — magic, header
// or payload — is detected.
func TestDiskEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"version":1,"status":"holds"}`)
	enveloped := engine.Seal(diskMagic, payload)
	got, err := engine.Unseal(diskMagic, enveloped)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round trip: %q", got)
	}
	for bit := 0; bit < len(enveloped)*8; bit += 37 {
		bad := append([]byte(nil), enveloped...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := engine.Unseal(diskMagic, bad); err == nil {
			t.Fatalf("bit %d flip went undetected", bit)
		}
	}
	if _, err := engine.Unseal(diskMagic, []byte(diskMagic+"short")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestBareDiskEntryIsQuarantined: a file without the checksum envelope
// — even a perfectly decodable result document — cannot be validated,
// so it is corrupt like any other damaged entry: a miss, deleted,
// counted.
func TestBareDiskEntryIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	bare := res("bare")
	payload, err := engine.EncodeResult(&bare)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "old.json")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Capacity: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("old"); ok {
		t.Fatalf("envelope-less entry served: %+v", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("envelope-less file not quarantined: %v", err)
	}
	if st := c.Stats(); st.DiskHits != 0 || st.CorruptEntries != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFlippedBitOnDiskIsQuarantined corrupts a stored envelope the way
// a decaying disk would and requires the full degradation chain: miss,
// file deleted, counters up, and a recompute-and-rewrite restoring the
// entry.
func TestFlippedBitOnDiskIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Capacity: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("victim", res("good"))

	path := filepath.Join(dir, "victim.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(Options{Capacity: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get("victim"); ok {
		t.Fatal("flipped-bit entry served as a hit")
	}
	if st := fresh.Stats(); st.CorruptEntries != 1 || st.DiskErrors != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not deleted: %v", err)
	}
	// The recompute path rewrites a valid entry.
	fresh.Put("victim", res("recomputed"))
	if got, ok := fresh.Get("victim"); !ok || got.Scenario != "recomputed" {
		t.Fatalf("rewrite after quarantine: ok=%v res=%+v", ok, got)
	}
}

// TestChaosDiskWritesDegradeToRecompute is the cache half of the chaos
// acceptance: with every disk write mangled (flip=1), a restarted cache
// over the same directory must quarantine everything — misses and
// corruption counters, never a wrong or torn verdict.
func TestChaosDiskWritesDegradeToRecompute(t *testing.T) {
	dir := t.TempDir()
	in := chaos.New(chaos.Config{Seed: 11, Flip: 1})
	writer, err := New(Options{Capacity: 8, Dir: dir, Chaos: in})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"aaaa", "bbbb", "cccc", "dddd"}
	for _, k := range keys {
		writer.Put(k, res(k))
	}
	if in.Counts()["cache.disk/flip"] != uint64(len(keys)) {
		t.Fatalf("chaos counts %v, want %d disk flips", in.Counts(), len(keys))
	}

	// A clean restart over the poisoned directory: every Get must be a
	// quarantining miss. (The writer's own memory tier still hits — the
	// mangle is below it — which is also correct.)
	clean, err := New(Options{Capacity: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got, ok := clean.Get(k); ok {
			t.Fatalf("mangled entry %q served: %+v", k, got)
		}
	}
	st := clean.Stats()
	if st.CorruptEntries != uint64(len(keys)) || st.Misses != uint64(len(keys)) {
		t.Fatalf("stats %+v, want %d quarantines", st, len(keys))
	}
	// Recompute refills the tier with valid entries.
	for _, k := range keys {
		clean.Put(k, res(k))
	}
	refilled, err := New(Options{Capacity: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got, ok := refilled.Get(k); !ok || got.Scenario != k {
			t.Fatalf("refilled entry %q: ok=%v res=%+v", k, ok, got)
		}
	}
}

// TestDiskEntryOfAnInconclusiveVerdictIsQuarantined: a sealed entry
// whose status the cache never stores — written by a foreign or older
// build — is quarantined like a corrupt one, not served.
func TestDiskEntryOfAnInconclusiveVerdictIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	for i, status := range []engine.Status{engine.StatusError, engine.StatusInconclusive} {
		stored := engine.Result{Index: -1, Engine: "explicit", Status: status}
		payload, err := engine.EncodeResult(&stored)
		if err != nil {
			t.Fatal(err)
		}
		key := peerKey(byte(i))
		path := filepath.Join(dir, key+".json")
		if err := os.WriteFile(path, engine.Seal(diskMagic, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Capacity: 4, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); ok {
			t.Fatalf("%s entry served: %+v", status, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s entry not quarantined: %v", status, err)
		}
		if st := c.Stats(); st.DiskHits != 0 || st.CorruptEntries != 1 || st.DiskErrors != 1 || st.Misses != 1 {
			t.Fatalf("%s entry: stats %+v", status, st)
		}
	}
}
