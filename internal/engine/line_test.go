package engine

import (
	"bytes"
	"strings"
	"testing"
)

// awkwardNames are scenario names that need every kind of escaping
// encoding/json does, and some that need none.
var awkwardNames = []string{"", "grid/submodular-residual-x4000012/reliable", "a<b>&c", `say "hi" \ bye`,
	"line\u2028sep\u2029end", "ñandú/日本", "tab\there\x01\b\f\n\r", "bad\xffutf8", "del\x7f"}

// TestDecodeResultLineKeepsTheLine: every line EncodeResult writes —
// each shape of verdict under every awkward name, index and cached flag,
// every cell of the benchmark-shaped grid, and miss_prob in each of
// encoding/json's float formats — is read, with the newline a stream
// appends, and kept without it. Its full encoding is the line (the trace
// read from it when asked), and a splice of another name, index and
// cached flag is the full encoding of those.
func TestDecodeResultLineKeepsTheLine(t *testing.T) {
	var lines [][]byte
	for _, r := range hitShapes() {
		for _, name := range awkwardNames {
			for _, index := range []int{-1, 0, 7, 123456} {
				for _, cached := range []bool{true, false} {
					r.Scenario, r.Index, r.Cached = name, index, cached
					lines = append(lines, fullEncode(t, r))
				}
			}
		}
	}
	sw, err := DecodeSweep(benchShapedGrid(60))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range drainSweep(t, NewRunner(RunnerOptions{Workers: 2}), sw) {
		lines = append(lines, line.Data)
	}
	// encoding/json writes a float in 'e' notation below 1e-6 and from
	// 1e21 on.
	for _, p := range []float64{1e-7, 1e-6, 0.25, 1e20, 1e21, -3.5e-9, 5e-324} {
		lines = append(lines, fullEncode(t, Result{Status: StatusHolds, Stats: Stats{MissProb: p}}))
	}
	for _, data := range lines {
		r, err := DecodeResult(append(data[:len(data):len(data)], '\n'))
		if err != nil {
			t.Fatalf("%v:\n%s", err, data)
		}
		if !bytes.Equal(r.line.data, data) {
			t.Fatalf("kept\n%q\nof\n%q", r.line.data, data)
		}
		if got := fullEncode(t, r); !bytes.Equal(got, data) {
			t.Fatalf("read as\n%s\nfrom\n%s", got, data)
		}
		for _, name := range awkwardNames {
			hit := r
			hit.Scenario, hit.Index, hit.Cached = name, 42, !r.Cached
			got, err := EncodeResult(&hit)
			if err != nil {
				t.Fatal(err)
			}
			if want := fullEncode(t, hit); !bytes.Equal(got, want) {
				t.Fatalf("splice of %q into\n%s\n got %s\nwant %s", name, data, got, want)
			}
		}
	}
}

// TestDecodeResultRefusesOtherSpellings: a line off the encoder's
// spelling — each edit below of a line it writes — is refused, and the
// error names the byte where it leaves that spelling. The edits include
// the times older encoders wrote: a line says what was decided, not how
// long one run took.
func TestDecodeResultRefusesOtherSpellings(t *testing.T) {
	r := hitShapes()["trace"]
	r.Scenario, r.Index = "cell", 12
	line := string(fullEncode(t, r))
	miss := hitShapes()["miss-prob"]
	missLine := string(fullEncode(t, miss))
	for name, edit := range map[string]func(string) string{
		"space":        func(s string) string { return strings.Replace(s, `,"index"`, `, "index"`, 1) },
		"newline":      func(s string) string { return strings.Replace(s, `,"index"`, ",\n\"index\"", 1) },
		"two-newlines": func(s string) string { return s + "\n\n" },
		"trailing":     func(s string) string { return s + "}" },
		"order": func(s string) string {
			return strings.Replace(s, `"engine":"explicit","index":12`, `"index":12,"engine":"explicit"`, 1)
		},
		"repeated":   func(s string) string { return strings.Replace(s, `"index":12`, `"index":11,"index":12`, 1) },
		"foreign":    func(s string) string { return strings.Replace(s, `,"stats":`, `,"explicit":true,"stats":`, 1) },
		"case":       func(s string) string { return strings.Replace(s, `"status"`, `"Status"`, 1) },
		"zero-count": func(s string) string { return strings.Replace(s, `"states":412`, `"states":0,"max_depth":9`, 1) },
		"false-flag": func(s string) string { return strings.Replace(s, `"exhausted":true`, `"exhausted":false`, 1) },
		"empty-stats": func(s string) string {
			return strings.Replace(s, `"status":"violated"`, `"status":"violated","stats":{}`, 1)
		},
		"no-violation":   func(s string) string { return strings.Replace(s, `"violation":"oscillation"`, `"violation":""`, 1) },
		"empty-list":     func(s string) string { return strings.Replace(s, `"bundle":[0]`, `"bundle":[]`, 1) },
		"leading-zero":   func(s string) string { return strings.Replace(s, `"index":12`, `"index":012`, 1) },
		"minus-zero":     func(s string) string { return strings.Replace(s, `"id":0`, `"id":-0`, 1) },
		"upper-hex":      func(s string) string { return strings.Replace(s, `\u003c`, `\u003C`, 1) },
		"raw-html":       func(s string) string { return strings.Replace(s, `\u003c`, `<`, 1) },
		"slash-escape":   func(s string) string { return strings.Replace(s, `"cell"`, `"c\/ell"`, 1) },
		"escaped-letter": func(s string) string { return strings.Replace(s, `"cell"`, `"c\u0065ll"`, 1) },
		"escaped-fffd":   func(s string) string { return strings.Replace(s, `"cell"`, `"c\ufffdll"`, 1) },
		"invalid-utf8":   func(s string) string { return strings.Replace(s, `"cell"`, "\"c\xffll\"", 1) },
		"long-newline":   func(s string) string { return strings.Replace(s, `"cycle"`, `"cy\u000acle"`, 1) },
		"empty-name":     func(s string) string { return strings.Replace(s, `"cell"`, `""`, 1) },
		"version":        func(s string) string { return strings.Replace(s, `"version":1`, `"version":10`, 1) },
		"status":         func(s string) string { return strings.Replace(s, `"violated"`, `"broken"`, 1) },
		"overflow":       func(s string) string { return strings.Replace(s, `"id":1`, `"id":99999999999999999999`, 1) },
		"truncated":      func(s string) string { return s[:len(s)-1] },
		"null-trace":     func(s string) string { return s[:strings.Index(s, `,"trace"`)] + `,"trace":null}` },
		"exponent-zero":  func(string) string { return strings.Replace(missLine, `1.25e-7`, `1.25e-07`, 1) },
		"float-upper":    func(string) string { return strings.Replace(missLine, `1.25e-7`, `1.25E-7`, 1) },
		"float-fixed":    func(string) string { return strings.Replace(missLine, `1.25e-7`, `0.000000125`, 1) },
		"float-digits":   func(string) string { return strings.Replace(missLine, `1.25e-7`, `1.250e-7`, 1) },
		"float-plus":     func(string) string { return strings.Replace(missLine, `1.25e-7`, `+1.25e-7`, 1) },
		"zero-float":     func(string) string { return strings.Replace(missLine, `1.25e-7`, `0`, 1) },
		"translate-ns":   func(s string) string { return strings.Replace(s, `true}`, `true,"translate_ns":9}`, 1) },
		"solve-ns":       func(s string) string { return strings.Replace(s, `true}`, `true,"solve_ns":9}`, 1) },
		"wall-ns":        func(s string) string { return strings.Replace(s, `true}`, `true,"wall_ns":9}`, 1) },
	} {
		data := []byte(edit(line))
		if string(data) == line || string(data) == missLine {
			t.Fatalf("%s: the edit does not apply", name)
		}
		if _, err := DecodeResult(data); err == nil || !strings.Contains(err.Error(), "byte ") {
			t.Fatalf("%s: %v, reading\n%s", name, err, data)
		}
	}
}
