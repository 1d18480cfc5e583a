package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/trace"
)

// ---- the result document ----
//
// A result document has one spelling, and this file holds its one
// writer (appendResult) and its one reader (DecodeResult), over the same
// members in the same order: no white space, no member that is empty (a
// zero count or float, a false flag, an empty string or list), integers
// without a sign on zero or leading zeros, and numbers and strings as
// encoding/json writes them, but for a byte of invalid UTF-8, written as
// U+FFFD itself. Every document DecodeResult accepts is EncodeResult of
// what it reads, byte for byte, so the bytes become the Result's kept
// encoding (encodedLine): EncodeResult splices a name, index and cached
// flag into them at the spans the writer or the reader recorded, and the
// trace stays encoded until something reads its steps.

// appendResult appends the document of r to dst and returns the spans a
// splice replaces. The error is json.Marshal's for a value that has no
// spelling: an enum without a token, or a NaN or infinite miss_prob.
func appendResult(dst []byte, r *Result) ([]byte, lineSpans, error) {
	var l lineSpans
	w := writer{b: strconv.AppendInt(append(dst, `{"version":`...), SchemaVersion, 10)}
	l.name = len(w.b)
	w.text("scenario", r.Scenario)
	l.nameEnd = len(w.b)
	w.text("engine", r.Engine)
	w.key("index")
	l.index = len(w.b)
	w.b = strconv.AppendInt(w.b, int64(r.Index), 10)
	l.indexEnd = len(w.b)
	writeToken(&w, "status", r.Status, statusTokens[:])
	omitToken(&w, "violation", r.Violation, violationTokens)
	omitToken(&w, "sat_status", r.SATStatus, satTokens)
	l.cached = len(w.b)
	w.omitBool("cached", r.Cached)
	l.cachedEnd = len(w.b)
	s := r.Stats // its times stay in the process that measured them
	if s.TranslateTime, s.SolveTime, s.Wall = 0, 0, 0; s != (Stats{}) {
		w.key("stats")
		w.b = append(w.b, '{')
		for _, m := range statsMembers(&s) {
			switch v := m.field.(type) {
			case *int:
				w.omitInt(m.key, int64(*v))
			case *int64:
				w.omitInt(m.key, *v)
			case *bool:
				w.omitBool(m.key, *v)
			case *float64:
				w.omitFloat(m.key, *v)
			}
		}
		w.b = append(w.b, '}')
	}
	if r.Trace != nil {
		w.trace(r.Trace)
	}
	w.text("error", errText(r.Err))
	return append(w.b, '}'), l, w.err
}

// text writes a string member unless it is empty, as a result line
// writes a string.
func (w *writer) text(name, v string) {
	if v != "" {
		w.key(name)
		w.b = appendString(w.b, v, true)
	}
}

// statsMember is a stats member: its key, and a pointer to the field that
// holds it, an *int, *int64, *bool or *float64.
type statsMember struct {
	key   string
	field any
}

// statsMembers is the stats object's member list, in the document's
// order, over s.
func statsMembers(s *Stats) [16]statsMember {
	return [...]statsMember{{"states", &s.States}, {"max_depth", &s.MaxDepth}, {"exhausted", &s.Exhausted},
		{"capped", &s.Capped}, {"miss_prob", &s.MissProb}, {"primary_vars", &s.PrimaryVars},
		{"aux_vars", &s.AuxVars}, {"clauses", &s.Clauses}, {"conflicts", &s.Conflicts},
		{"propagations", &s.Propagations}, {"learnt_clauses", &s.LearntClauses}, {"runs", &s.Runs},
		{"converged", &s.Converged}, {"deliveries", &s.Deliveries}, {"dropped", &s.Dropped},
		{"duplicated", &s.Duplicated}}
}

// trace writes the trace member: its item names, and every step with
// the agents' snapshots.
func (w *writer) trace(t *trace.Recorder) {
	w.key("trace")
	w.b = append(w.b, '{')
	if w.list("item_names", len(t.ItemNames)) {
		for i, name := range t.ItemNames {
			w.sep(i)
			w.b = appendString(w.b, name, true)
		}
		w.b = append(w.b, ']')
	}
	steps := t.Steps()
	if w.list("steps", len(steps)) {
		for i, st := range steps {
			w.sep(i)
			w.b = append(w.b, '{')
			w.text("label", st.Label)
			if w.list("agents", len(st.Agents)) {
				for j, a := range st.Agents {
					w.sep(j)
					w.b = strconv.AppendInt(append(w.b, `{"id":`...), int64(a.ID), 10)
					omitInts(w, "bids", a.Bids)
					omitInts(w, "winner", a.Winner)
					omitInts(w, "bundle", a.Bundle)
					w.b = append(w.b, '}')
				}
				w.b = append(w.b, ']')
			}
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

// omitInts writes a list of integers unless it is empty.
func omitInts[T int | int64](w *writer, name string, v []T) {
	if len(v) > 0 {
		w.key(name)
		writeInts(w, v)
	}
}

// DecodeResult parses a result document, and at most one newline after
// it, which is not kept. Err comes back as a plain error carrying the
// original message (sentinel identity such as context.Canceled is not
// preserved). Any other spelling is refused with the byte offset where
// it leaves the encoder's. The Result keeps data, so the caller must not
// change it.
func DecodeResult(data []byte) (Result, error) {
	return readLine(bytes.TrimSuffix(data, []byte("\n")))
}

// errSpelling is DecodeResult's reason for a byte off the encoder's
// spelling.
var errSpelling = errors.New("not as EncodeResult writes it")

// lineReader walks a line in the encoder's spelling. ok turns false at
// the first byte off it, where at and why say where and why, and every
// later read is then a no-op.
type lineReader struct {
	b   []byte
	i   int
	ok  bool
	at  int
	why error
	// scratch collects an escaped string's value.
	scratch []byte
}

// readLine reads a line in the encoder's spelling into a Result that
// keeps it.
func readLine(data []byte) (Result, error) {
	var r Result
	var l lineSpans
	p := &lineReader{b: data, ok: true}
	p.need(`{"version":`)
	if at, v := p.i, p.int(false, 64); v != SchemaVersion {
		p.i = at
		p.fail(fmt.Errorf("unsupported schema version %d (want %d)", v, SchemaVersion))
	}
	l.name = p.i
	if p.lit(`,"scenario":`) {
		r.Scenario = p.str(true, true)
	}
	l.nameEnd = p.i
	if p.lit(`,"engine":`) {
		r.Engine = p.str(true, true)
	}
	p.need(`,"index":`)
	l.index = p.i
	r.Index = int(p.int(false, strconv.IntSize))
	l.indexEnd = p.i
	p.need(`,"status":`)
	p.check(r.Status.UnmarshalText(p.token()))
	if p.lit(`,"violation":`) {
		p.check(r.Violation.UnmarshalText(p.token()))
		p.nonzero(r.Violation != 0)
	}
	if p.lit(`,"sat_status":`) {
		p.check(r.SATStatus.UnmarshalText(p.token()))
		p.nonzero(r.SATStatus != 0)
	}
	l.cached = p.i
	r.Cached = p.lit(`,"cached":true`)
	l.cachedEnd = p.i
	if p.lit(`,"stats":`) {
		r.Stats = p.stats()
	}
	if p.lit(`,"trace":`) {
		start := p.i
		names, _ := p.trace(false)
		span := data[start:p.i]
		r.Trace = trace.NewLazyRecorder(names, func() []trace.Step {
			q := &lineReader{b: span, ok: true}
			_, steps := q.trace(true)
			return steps
		})
	}
	if p.lit(`,"error":`) {
		r.Err = errors.New(p.str(true, true))
	}
	p.need("}")
	if p.i != len(data) {
		p.fail(errSpelling)
	}
	if !p.ok {
		return Result{}, fmt.Errorf("engine: result: byte %d: %w", p.at, p.why)
	}
	r = withLine(r)
	r.line.data, r.line.lineSpans = data, l
	return r, nil
}

// fail stops the reader at the current byte, unless it stopped before.
func (p *lineReader) fail(why error) {
	if p.ok {
		p.ok, p.at, p.why = false, p.i, why
	}
}

// lit consumes s when it comes next, and reports whether it did.
func (p *lineReader) lit(s string) bool {
	if p.ok && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// need is lit for what must come next.
func (p *lineReader) need(s string) {
	if !p.lit(s) {
		p.fail(errSpelling)
	}
}

func (p *lineReader) check(err error) {
	if err != nil {
		p.fail(err)
	}
}

// nonzero refuses a value that an omitted-when-empty member never holds.
func (p *lineReader) nonzero(ok bool) {
	if !ok {
		p.fail(errSpelling)
	}
}

// member consumes the key of an optional member, after a comma unless
// it opens its object, as the writer's key writes it.
func (p *lineReader) member(key string) bool {
	j := p.i
	if !(p.opened() || p.lit(",")) || !p.lit(`"`) || !p.lit(key) || !p.lit(`":`) {
		p.i = j
		return false
	}
	return true
}

// opened reports whether the last byte read opened an object.
func (p *lineReader) opened() bool {
	return p.i > 0 && p.b[p.i-1] == '{'
}

// int reads an integer of the given bit size; nonzero refuses 0, which
// an omitted-when-empty member never holds.
func (p *lineReader) int(nonzero bool, bits int) int64 {
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	digits := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	// The encoder writes 0 as itself, never -0, 00 or 01.
	if !p.ok || p.i == digits || p.b[digits] == '0' && (p.i-digits > 1 || digits > start || nonzero) {
		p.i = start
		p.fail(errSpelling)
		return 0
	}
	v, err := strconv.ParseInt(string(p.b[start:p.i]), 10, bits)
	if err != nil {
		p.i = start
		p.fail(err)
	}
	return v
}

// ints reads a list of integers, which the encoder omits when empty;
// the values are returned only when keep is set.
func ints[T int | int64](p *lineReader, keep bool, bits int) (out []T) {
	p.need("[")
	for p.ok {
		v := T(p.int(false, bits))
		if keep {
			out = append(out, v)
		}
		if !p.lit(",") {
			break
		}
	}
	p.need("]")
	return out
}

// float reads a nonzero float64 spelled as encoding/json writes it:
// the shortest form that reads back, in 'e' notation below 1e-6 and from
// 1e21 on, with a one-digit negative exponent written without its zero.
func (p *lineReader) float() float64 {
	start := p.i
	for p.i < len(p.b) && strings.IndexByte("+-.0123456789e", p.b[p.i]) >= 0 {
		p.i++
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	var buf [32]byte
	if err != nil || f == 0 || !bytes.Equal(appendJSONFloat(buf[:0], f), p.b[start:p.i]) {
		p.i = start
		p.fail(errSpelling)
		return 0
	}
	return f
}

// appendJSONFloat appends f as encoding/json writes a float64.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// token reads a string of plain characters, as every enum token is, and
// returns its bytes.
func (p *lineReader) token() []byte {
	p.need(`"`)
	start := p.i
	for p.ok && p.i < len(p.b) && p.b[p.i] != '"' && p.b[p.i] != '\\' {
		p.i++
	}
	raw := p.b[start:p.i]
	p.need(`"`)
	return raw
}

// str reads a string and returns its value when keep is set. nonempty
// refuses "", which an omitted-when-empty member never holds.
func (p *lineReader) str(keep, nonempty bool) string {
	p.need(`"`)
	start, plain := p.i, true
	p.scratch = p.scratch[:0]
	for p.ok && p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			raw := p.b[start:p.i]
			p.i++
			switch {
			case nonempty && len(raw) == 0:
				p.i = start
				p.fail(errSpelling)
			case !keep:
			case plain:
				return string(raw)
			default:
				return string(p.scratch)
			}
			return ""
		case c == '\\':
			r, n := escaped(p.b[p.i:])
			if n == 0 {
				p.fail(errSpelling)
				return ""
			}
			if plain {
				p.scratch, plain = append(p.scratch, p.b[start:p.i]...), false
			}
			p.scratch = utf8.AppendRune(p.scratch, r)
			p.i += n
		case c < utf8.RuneSelf:
			// encoding/json escapes control characters and, for HTML, <, > and &.
			if c < 0x20 || c == '<' || c == '>' || c == '&' {
				p.fail(errSpelling)
				return ""
			}
			if !plain {
				p.scratch = append(p.scratch, c)
			}
			p.i++
		default:
			// The encoder writes invalid UTF-8 as U+FFFD, and U+2028 and
			// U+2029 escaped.
			r, n := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
				p.fail(errSpelling)
				return ""
			}
			if !plain {
				p.scratch = append(p.scratch, p.b[p.i:p.i+n]...)
			}
			p.i += n
		}
	}
	p.fail(errSpelling)
	return ""
}

// escaped reads the escape at the head of b and returns the character
// and its length, or length 0 for an escape encoding/json does not
// write: the short forms it uses, else \u00XX in lower-case hex for the
// other control characters and for <, > and &, and U+2028 and U+2029.
func escaped(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
	default:
		return 0, 0
	}
	if len(b) < 6 {
		return 0, 0
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			r = r<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		default:
			return 0, 0
		}
	}
	switch r {
	case '<', '>', '&', '\u2028', '\u2029':
		return r, 6
	case '\b', '\f', '\n', '\r', '\t':
		return 0, 0
	}
	if r < 0x20 {
		return r, 6
	}
	return 0, 0
}

// stats reads the stats object: at least one member, each non-zero.
func (p *lineReader) stats() (s Stats) {
	p.need("{")
	for _, m := range statsMembers(&s) {
		if !p.member(m.key) {
			continue
		}
		switch v := m.field.(type) {
		case *int:
			*v = int(p.int(true, strconv.IntSize))
		case *int64:
			*v = p.int(true, 64)
		case *bool:
			p.need("true")
			*v = true
		case *float64:
			*v = p.float()
		}
	}
	p.nonzero(!p.opened()) // the encoder omits stats that are all zero
	p.need("}")
	return s
}

// trace reads a trace object. The item names are always returned; the
// steps only when keep is set, else they are only checked.
func (p *lineReader) trace(keep bool) (names []string, steps []trace.Step) {
	p.need("{")
	if p.member("item_names") {
		p.need("[")
		for p.ok {
			names = append(names, p.str(true, false))
			if !p.lit(",") {
				break
			}
		}
		p.need("]")
	}
	if p.member("steps") {
		p.need("[")
		for p.ok {
			st := p.step(keep)
			if keep {
				steps = append(steps, st)
			}
			if !p.lit(",") {
				break
			}
		}
		p.need("]")
	}
	p.need("}")
	return names, steps
}

func (p *lineReader) step(keep bool) (st trace.Step) {
	p.need("{")
	if p.member("label") {
		st.Label = p.str(keep, true)
	}
	if p.member("agents") {
		p.need("[")
		for p.ok {
			var a trace.AgentSnapshot
			p.need(`{"id":`)
			a.ID = int(p.int(false, strconv.IntSize))
			if p.lit(`,"bids":`) {
				a.Bids = ints[int64](p, keep, 64)
			}
			if p.lit(`,"winner":`) {
				a.Winner = ints[int](p, keep, strconv.IntSize)
			}
			if p.lit(`,"bundle":`) {
				a.Bundle = ints[int](p, keep, strconv.IntSize)
			}
			p.need("}")
			if keep {
				st.Agents = append(st.Agents, a)
			}
			if !p.lit(",") {
				break
			}
		}
		p.need("]")
	}
	p.need("}")
	return st
}
