package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
)

// cappableDoc is the line3 fixture (503 states, holds) with a budget
// knob: small budgets cap, 30000 completes.
func cappableDoc(maxStates int) string {
	return fmt.Sprintf(`{
  "version": 1,
  "name": "served-resumable",
  "agents": [
    {"id": 0, "items": 2, "base": [10, 0],
     "policy": {"target": 2, "utility": {"kind": "flat"}, "rebid": "on-change"}},
    {"id": 1, "items": 2, "base": [0, 20],
     "policy": {"target": 2, "utility": {"kind": "flat"}, "rebid": "on-change"}},
    {"id": 2, "items": 2, "base": [5, 5],
     "policy": {"target": 2, "utility": {"kind": "flat"}, "rebid": "on-change"}}
  ],
  "graph": {"nodes": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}]},
  "explore": {"max_states": %d}
}`, maxStates)
}

type resumeEnvelope struct {
	Resume string          `json:"resume"`
	Result json.RawMessage `json:"result"`
}

func decodeEnvelope(t *testing.T, resp *http.Response) resumeEnvelope {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var env resumeEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env
}

// resultNoWall canonicalizes an encoded result for byte comparison.
func resultNoWall(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	res, err := engine.DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats.Wall = 0
	out, err := engine.EncodeResult(&res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestVerifyCheckpointResumeRoundTrip(t *testing.T) {
	srv, _ := testServer(t)

	// Uninterrupted reference at the full budget: no token comes back.
	full := decodeEnvelope(t, postJSON(t, srv.URL+"/verify?checkpoint=1&workers=2", cappableDoc(30000)))
	if full.Resume != "" {
		t.Fatalf("completed run returned a resume token %q", full.Resume)
	}

	// Capped run: token plus an inconclusive capped result.
	capped := decodeEnvelope(t, postJSON(t, srv.URL+"/verify?checkpoint=1&workers=2", cappableDoc(100)))
	if capped.Resume == "" {
		t.Fatal("capped run returned no resume token")
	}
	cres, err := engine.DecodeResult(capped.Result)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Status != engine.StatusInconclusive || !cres.Stats.Capped {
		t.Fatalf("capped run: status=%v capped=%v", cres.Status, cres.Stats.Capped)
	}

	// Resume with a raised budget: same result as the uninterrupted run.
	resumed := decodeEnvelope(t, postJSON(t, srv.URL+"/verify",
		fmt.Sprintf(`{"resume": %q, "max_states": 30000}`, capped.Resume)))
	if resumed.Resume != "" {
		t.Fatalf("completed resume returned a new token %q", resumed.Resume)
	}
	if got, want := resultNoWall(t, resumed.Result), resultNoWall(t, full.Result); got != want {
		t.Fatalf("resumed result diverged:\n%s\nvs uninterrupted:\n%s", got, want)
	}

	// Tokens are single use: the second attempt is a 404.
	resp := postJSON(t, srv.URL+"/verify", fmt.Sprintf(`{"resume": %q, "max_states": 30000}`, capped.Resume))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("spent token: status %d, want 404", resp.StatusCode)
	}
}

// A malformed ?workers= on a resume request is a 400 like on any other
// /verify, not a silent workers=0 — and it is checked before the
// single-use token is spent, so the corrected request still resumes.
func TestVerifyResumeRejectsBadWorkers(t *testing.T) {
	srv, _ := testServer(t)
	capped := decodeEnvelope(t, postJSON(t, srv.URL+"/verify?checkpoint=1&workers=2", cappableDoc(100)))
	if capped.Resume == "" {
		t.Fatal("capped run returned no resume token")
	}
	body := fmt.Sprintf(`{"resume": %q, "max_states": 30000}`, capped.Resume)
	resp := postJSON(t, srv.URL+"/verify?workers=abc", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers=abc: status %d, want 400", resp.StatusCode)
	}
	resumed := decodeEnvelope(t, postJSON(t, srv.URL+"/verify?workers=2", body))
	res, err := engine.DecodeResult(resumed.Result)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != engine.StatusHolds {
		t.Fatalf("resume after the rejected request: status=%v err=%v", res.Status, res.Err)
	}
}

func TestVerifyResumeUnknownToken(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/verify", `{"resume": "deadbeef", "max_states": 1000}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestVerifyCheckpointRejectsNonExplicitEngine(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/verify?checkpoint=1&engine=simulation", cappableDoc(100))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestVerifyCheckpointIsASwitch: ?checkpoint= is read like every other
// switch. Absent or 0 is a plain verify whose reply is a bare result
// document, 1 or true is checkpoint mode with a resume envelope, and any
// other value is a 400 naming the parameter, not a checkpointed run.
func TestVerifyCheckpointIsASwitch(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/verify?workers=2", "/verify?checkpoint=0&workers=2"} {
		resp := postJSON(t, srv.URL+path, cappableDoc(100))
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if _, err := engine.DecodeResult(bytes.TrimSpace(data)); resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("%s: status %d, %s (%v), want a plain result document", path, resp.StatusCode, data, err)
		}
	}
	for _, path := range []string{"/verify?checkpoint=1&workers=2", "/verify?checkpoint=true&workers=2"} {
		if env := decodeEnvelope(t, postJSON(t, srv.URL+path, cappableDoc(100))); env.Resume == "" {
			t.Errorf("%s: capped run came back without a resume token", path)
		}
	}
	for _, v := range []string{"maybe", "yes", "2"} {
		resp := postJSON(t, srv.URL+"/verify?checkpoint="+v, cappableDoc(100))
		var reply struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, "checkpoint") {
			t.Errorf("checkpoint=%s: status %d %q, want a 400 naming checkpoint", v, resp.StatusCode, reply.Error)
		}
	}
}

// A capped run that is never resumed must not leak table capacity
// forever: the bounded store evicts the oldest token once full.
func TestResumeStoreEvictsOldest(t *testing.T) {
	c, err := cache.New(cache.Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, serverConfig{Cache: c, DefaultTimeout: 30 * time.Second})
	s.resumes = newResumeStore(2)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var tokens []string
	for i := 0; i < 3; i++ {
		env := decodeEnvelope(t, postJSON(t, srv.URL+"/verify?checkpoint=1&workers=2", cappableDoc(100)))
		if env.Resume == "" {
			t.Fatal("no token")
		}
		tokens = append(tokens, env.Resume)
	}
	if n := s.resumes.len(); n != 2 {
		t.Fatalf("store holds %d tokens, want 2", n)
	}
	resp := postJSON(t, srv.URL+"/verify", fmt.Sprintf(`{"resume": %q}`, tokens[0]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted token: status %d, want 404", resp.StatusCode)
	}
	resumed := decodeEnvelope(t, postJSON(t, srv.URL+"/verify",
		fmt.Sprintf(`{"resume": %q, "max_states": 30000}`, tokens[2])))
	res, err := engine.DecodeResult(resumed.Result)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != engine.StatusHolds {
		t.Fatalf("resumed newest token: status=%v", res.Status)
	}
}

// A resume body is read strictly, before the single-use token is
// spent: a misspelt member (which would resume at the old budget) or a
// negative max_states is a 400, and the token then still resumes.
func TestVerifyResumeBodyIsStrict(t *testing.T) {
	srv, _ := testServer(t)
	capped := decodeEnvelope(t, postJSON(t, srv.URL+"/verify?checkpoint=1", cappableDoc(100)))
	if capped.Resume == "" {
		t.Fatal("capped run returned no resume token")
	}
	for _, body := range []string{
		fmt.Sprintf(`{"resume": %q, "maxstates": 500000}`, capped.Resume),
		fmt.Sprintf(`{"resume": %q, "max_states": -1}`, capped.Resume),
		fmt.Sprintf(`{"resume": %q, "max_states": 30000} {}`, capped.Resume),
	} {
		resp := postJSON(t, srv.URL+"/verify", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resumed := decodeEnvelope(t, postJSON(t, srv.URL+"/verify", fmt.Sprintf(`{"resume": %q, "max_states": 30000}`, capped.Resume)))
	if res, err := engine.DecodeResult(resumed.Result); err != nil || res.Status != engine.StatusHolds {
		t.Fatalf("resume after the rejected bodies: %s (%v)", resumed.Result, err)
	}
}

// An explicit check runs on the DFS at every worker count, so it has
// one content address: the same scenario at workers=2 is a cache hit on
// the workers=0 verdict.
func TestExplicitWorkersHitTheSerialVerdict(t *testing.T) {
	srv, _ := testServer(t)
	for i, path := range []string{"/verify?engine=explicit", "/verify?engine=explicit&workers=2", "/verify?workers=2"} {
		resp := postJSON(t, srv.URL+path, scenarioDoc)
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		res, err := engine.DecodeResult(bytes.TrimSpace(data))
		if err != nil || res.Status != engine.StatusHolds {
			t.Fatalf("%s: %s (%v)", path, data, err)
		}
		if res.Cached != (i > 0) {
			t.Fatalf("%s: cached=%v, want %v", path, res.Cached, i > 0)
		}
	}
}
