package chaos_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// fullSpec sets every key of the spec grammar.
const fullSpec = "seed=7,crash=0.1,hang=0.02,slow=0.2,slowmax=40ms,truncate=0.05,corrupt=0.06,storm=0.03,stormlen=4,partial=0.25,flip=1"

// badSpecs are specs ParseSpec must refuse.
var badSpecs = []string{
	"crush=0.1",       // unknown key
	"crash=1.5",       // probability > 1
	"crash=-0.1",      // probability < 0
	"crash=NaN",       // not a probability at all
	"crash",           // not key=value
	"stormlen=0",      // burst length < 1
	"slowmax=-5ms",    // negative duration
	"seed=notanumber", // unparsable value
}

// TestParseSpecRoundTrip pins the spec grammar: every key parses into
// its Config field.
func TestParseSpecRoundTrip(t *testing.T) {
	t.Parallel()
	cfg, err := chaos.ParseSpec(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := chaos.Config{
		Seed: 7, Crash: 0.1, Hang: 0.02, Slow: 0.2, SlowMax: 40 * time.Millisecond,
		Truncate: 0.05, Corrupt: 0.06, Storm: 0.03, StormLen: 4, Partial: 0.25, Flip: 1,
	}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if !cfg.Armed() {
		t.Fatal("full spec not armed")
	}
	empty, err := chaos.ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Armed() {
		t.Fatal("empty spec armed")
	}
}

// TestParseSpecRejectsBadInput: typos and out-of-range values must be
// loud, never a silently-disarmed fault model.
func TestParseSpecRejectsBadInput(t *testing.T) {
	t.Parallel()
	for _, spec := range badSpecs {
		if _, err := chaos.ParseSpec(spec); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
	}
}

// FuzzParseSpec: whatever the spec, ParseSpec does not panic, and every
// probability of a Config it accepts is in [0, 1] — a value outside,
// NaN included, would arm or disarm a fault model behind the operator's
// back.
func FuzzParseSpec(f *testing.F) {
	f.Add(fullSpec)
	f.Add("")
	for _, spec := range badSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := chaos.ParseSpec(spec)
		if err != nil {
			return
		}
		for _, p := range []float64{cfg.Crash, cfg.Hang, cfg.Slow, cfg.Truncate, cfg.Corrupt, cfg.Storm, cfg.Partial, cfg.Flip} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("spec %q accepted with probability %v: %+v", spec, p, cfg)
			}
		}
	})
}

// TestSeededStreamsAreDeterministic: two injectors with the same Config
// draw identical fault schedules at every site, and distinct sites get
// decorrelated streams.
func TestSeededStreamsAreDeterministic(t *testing.T) {
	t.Parallel()
	cfg := chaos.Config{Seed: 42, Partial: 0.5, Flip: 0.5}
	a, b := chaos.New(cfg), chaos.New(cfg)
	payload := bytes.Repeat([]byte("deterministic-chaos"), 32)
	var siteADiffered bool
	for i := 0; i < 64; i++ {
		ma := a.Mangle("site.a", payload)
		mb := b.Mangle("site.a", payload)
		if !bytes.Equal(ma, mb) {
			t.Fatalf("draw %d: same seed, same site, different mangle", i)
		}
		if !bytes.Equal(ma, payload) {
			siteADiffered = true
		}
	}
	if !siteADiffered {
		t.Fatal("0.5/0.5 mangle never fired in 64 draws")
	}
	// A different site must not replay site.a's schedule.
	c := chaos.New(cfg)
	var diverged bool
	for i := 0; i < 64; i++ {
		if !bytes.Equal(a.Mangle("site.a", payload), c.Mangle("site.b", payload)) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("sites a and b drew identical schedules")
	}
}

// TestMangleNeverMutatesInput: corruption happens to a copy; the
// caller's buffer is part of live state.
func TestMangleNeverMutatesInput(t *testing.T) {
	t.Parallel()
	in := chaos.New(chaos.Config{Seed: 1, Flip: 1, Partial: 1})
	payload := []byte("do not touch this buffer please")
	orig := append([]byte(nil), payload...)
	for i := 0; i < 32; i++ {
		in.Mangle("site", payload)
		if !bytes.Equal(payload, orig) {
			t.Fatalf("draw %d mutated the input: %q", i, payload)
		}
	}
	counts := in.Counts()
	if counts["site/partial"] == 0 && counts["site/flip"] == 0 {
		t.Fatalf("probability-1 mangle never counted an injection: %v", counts)
	}
}

// TestNilInjectorIsInert: the nil receiver contract lets call sites
// thread one injector unconditionally.
func TestNilInjectorIsInert(t *testing.T) {
	t.Parallel()
	var in *chaos.Injector
	if got := in.Mangle("site", []byte("x")); string(got) != "x" {
		t.Fatalf("nil Mangle altered data: %q", got)
	}
	if in.Counts() != nil {
		t.Fatal("nil Counts not nil")
	}
	if in.Config() != (chaos.Config{}) {
		t.Fatal("nil Config not zero")
	}
	if rt := in.Transport("site", http.DefaultTransport); rt != http.DefaultTransport {
		t.Fatal("nil Transport wrapped the base")
	}
	// Armed-nothing injector: transport passthrough too.
	if rt := chaos.New(chaos.Config{}).Transport("site", http.DefaultTransport); rt != http.DefaultTransport {
		t.Fatal("disarmed Transport wrapped the base")
	}
}

// chaosClient wires an injector site into a test client.
func chaosClient(in *chaos.Injector, site string) *http.Client {
	return &http.Client{Transport: in.Transport(site, nil)}
}

// TestTransportCrash: probability-1 crash makes every request a
// synthetic connection failure and the server never sees it.
func TestTransportCrash(t *testing.T) {
	t.Parallel()
	served := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { served++ }))
	defer srv.Close()
	in := chaos.New(chaos.Config{Seed: 1, Crash: 1})
	if _, err := chaosClient(in, "t").Get(srv.URL); err == nil {
		t.Fatal("crash=1 request succeeded")
	}
	if served != 0 {
		t.Fatal("crashed request reached the server")
	}
	if in.Counts()["t/crash"] == 0 {
		t.Fatalf("crash not counted: %v", in.Counts())
	}
}

// TestTransportHangHonorsContext: a hang blocks until the request
// context dies — and only until then.
func TestTransportHangHonorsContext(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	in := chaos.New(chaos.Config{Seed: 1, Hang: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := chaosClient(in, "t").Do(req); err == nil {
		t.Fatal("hung request succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang outlived its context")
	}
}

// TestTransportCorruptAndTruncate: response bodies are mangled after
// the real round trip, with lengths kept consistent.
func TestTransportCorruptAndTruncate(t *testing.T) {
	t.Parallel()
	const body = "sixteen byte bod"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer srv.Close()

	in := chaos.New(chaos.Config{Seed: 3, Corrupt: 1})
	resp, err := chaosClient(in, "t").Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) == body {
		t.Fatal("corrupt=1 left the body intact")
	}
	if len(got) != len(body) {
		t.Fatalf("corrupt changed length: %d vs %d", len(got), len(body))
	}

	in = chaos.New(chaos.Config{Seed: 3, Truncate: 1})
	resp, err = chaosClient(in, "t").Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(got) >= len(body) {
		t.Fatalf("truncate=1 kept %d of %d bytes", len(got), len(body))
	}
	if resp.ContentLength != int64(len(got)) {
		t.Fatalf("ContentLength %d for %d mangled bytes", resp.ContentLength, len(got))
	}
}

// TestTransportStormBursts: storm=1 answers every request synthetically
// with 429 (carrying Retry-After) or 503, in bursts, without touching
// the server; the burst schedule replays identically per seed.
func TestTransportStormBursts(t *testing.T) {
	t.Parallel()
	served := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { served++ }))
	defer srv.Close()

	statuses := func(seed int64) []int {
		in := chaos.New(chaos.Config{Seed: seed, Storm: 1, StormLen: 3})
		cl := chaosClient(in, "t")
		var out []int
		for i := 0; i < 12; i++ {
			resp, err := cl.Get(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out = append(out, resp.StatusCode)
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Fatal("storm 429 without Retry-After")
			}
		}
		return out
	}
	a, b := statuses(9), statuses(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("storm schedule diverged at %d: %v vs %v", i, a, b)
		}
		if a[i] != http.StatusTooManyRequests && a[i] != http.StatusServiceUnavailable {
			t.Fatalf("storm=1 let status %d through", a[i])
		}
	}
	if served != 0 {
		t.Fatalf("%d stormed requests reached the server", served)
	}
	seen := strings.Builder{}
	for _, s := range a {
		seen.WriteString(http.StatusText(s))
	}
	if !strings.Contains(seen.String(), http.StatusText(http.StatusTooManyRequests)) ||
		!strings.Contains(seen.String(), http.StatusText(http.StatusServiceUnavailable)) {
		t.Fatalf("12 stormed draws produced only one status class: %v", a)
	}
}

// TestCountKeysSorted: export order is deterministic for /metrics.
func TestCountKeysSorted(t *testing.T) {
	t.Parallel()
	keys := chaos.CountKeys(map[string]uint64{"b/x": 1, "a/y": 2, "a/b": 3})
	want := []string{"a/b", "a/y", "b/x"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys %v, want %v", keys, want)
		}
	}
}
