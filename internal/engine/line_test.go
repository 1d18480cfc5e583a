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

// sameAsDecodeResult fails unless DecodeResultLine and DecodeResult
// agree on data: both refuse it, or both read a Result of one encoding.
func sameAsDecodeResult(t *testing.T, data []byte) (Result, error) {
	t.Helper()
	got, gotErr := DecodeResultLine(data)
	want, wantErr := DecodeResult(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeResultLine says %v, DecodeResult %v, on\n%s", gotErr, wantErr, data)
	}
	if gotErr == nil && !bytes.Equal(fullEncode(t, got), fullEncode(t, want)) {
		t.Fatalf("DecodeResultLine reads\n%s\nDecodeResult\n%s", fullEncode(t, got), fullEncode(t, want))
	}
	return got, gotErr
}

// TestDecodeResultLineKeepsTheLine: every line EncodeResult writes —
// each shape of verdict under every awkward name, index and cached flag,
// and every cell of the benchmark-shaped grid — is read by hand and
// kept. The Result is DecodeResult's, its full encoding is the line
// (the trace read from it when asked), and a splice of another name,
// index and cached flag is the full encoding of those. A miss_prob line,
// and one whose name was invalid UTF-8, are read by DecodeResult
// instead.
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
	for _, data := range lines {
		r, ok := readLine(data)
		decoded, _ := sameAsDecodeResult(t, data)
		// A name of invalid UTF-8 is written with \ufffd, which reads
		// back as the valid rune: such a line is not what EncodeResult
		// writes for what it reads.
		if strings.Contains(string(data), `"miss_prob"`) || !bytes.Equal(fullEncode(t, decoded), data) {
			if ok {
				t.Fatalf("read by hand:\n%s", data)
			}
			continue
		}
		if !ok {
			t.Fatalf("an encoder's line was not read by hand:\n%s", data)
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

// TestDecodeResultLineLeavesOtherSpellings: a line off the encoder's
// spelling — each edit below of a line it writes — is never read by
// hand, and DecodeResultLine then reads or refuses it as DecodeResult
// does.
func TestDecodeResultLineLeavesOtherSpellings(t *testing.T) {
	r := hitShapes()["trace"]
	r.Scenario, r.Index = "cell", 12
	line := string(fullEncode(t, r))
	for name, edit := range map[string]func(string) string{
		"space":    func(s string) string { return strings.Replace(s, `,"index"`, `, "index"`, 1) },
		"newline":  func(s string) string { return s + "\n" },
		"trailing": func(s string) string { return s + "}" },
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
		"long-newline":   func(s string) string { return strings.Replace(s, `"cycle"`, `"cy\u000acle"`, 1) },
		"empty-name":     func(s string) string { return strings.Replace(s, `"cell"`, `""`, 1) },
		"version":        func(s string) string { return strings.Replace(s, `"version":1`, `"version":10`, 1) },
		"status":         func(s string) string { return strings.Replace(s, `"violated"`, `"broken"`, 1) },
		"overflow":       func(s string) string { return strings.Replace(s, `"id":1`, `"id":99999999999999999999`, 1) },
		"truncated":      func(s string) string { return s[:len(s)-1] },
		"null-trace":     func(s string) string { return s[:strings.Index(s, `,"trace"`)] + `,"trace":null}` },
	} {
		data := []byte(edit(line))
		if string(data) == line {
			t.Fatalf("%s: the edit does not apply to\n%s", name, line)
		}
		if _, ok := readLine(data); ok {
			t.Fatalf("%s: read by hand:\n%s", name, data)
		}
		sameAsDecodeResult(t, data)
	}
}
