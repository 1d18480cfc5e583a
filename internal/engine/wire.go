package engine

import (
	"bytes"
	"encoding"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/explore"
	"repro/internal/mca"
	"repro/internal/sat"
)

// ---- the wire reader and writer ----
//
// Every scenario-shaped document — a scenario, a sweep with its base
// and each variant's patch, a work unit, an engine spec — is read and
// written here, by hand, over the member lists below. Each list names a
// wire struct's members in field order, which is the canonical
// encoding's order; TestMemberListsAreTheWireTags holds them to the
// structs' json tags.
//
// The writer produces exactly the bytes json.Marshal produces for a
// wire struct, so no content address depends on which of the two wrote
// it.
//
// The reader fills the wire structs in one pass over the bytes, without
// reflection. It accepts exactly what a strict encoding/json decode
// (unknown members refused, nothing but white space after the document)
// accepts into the same structs, and yields the same value — the
// reading rules of docs/SCENARIO_FORMAT.md:
//
//   - only JSON white space (space, tab, newline, carriage return)
//     between tokens and after the document;
//   - a member name matches exactly, or else as bytes.EqualFold matches
//     it (so the Kelvin sign matches k), after unescaping;
//   - a repeated member decodes over the earlier value: an object merges
//     member by member, and a list decodes into the elements it already
//     has — and into those an earlier, longer list left past its length
//     — and is then cut to its own length;
//   - null clears a pointer, a section or a list, and leaves a number, a
//     flag, a string or an object alone;
//   - an integer member refuses fractions, exponents and overflow, and
//     rand_seed a sign;
//   - invalid UTF-8 in a string reads as U+FFFD;
//   - unknown members, a value of the wrong kind, nesting deeper than
//     encoding/json's 10000 levels and trailing bytes are errors.

var (
	scenarioMembers  = []string{"version", "name", "agents", "graph", "explore", "faults", "model", "solver"}
	agentMembers     = []string{"id", "items", "base", "demands", "capacity", "policy"}
	policyMembers    = []string{"target", "utility", "release_outbid", "rebid", "bids_per_round"}
	utilityMembers   = []string{"kind", "decay", "synergy_num", "synergy_den", "step", "cap"}
	graphMembers     = []string{"nodes", "edges"}
	edgeMembers      = []string{"u", "v", "w"}
	exploreMembers   = []string{"bound", "bound_slack", "hard_limit_factor", "max_states", "queue_depth", "disable_visited_set", "duplicate_deliveries", "store", "store_bits"}
	faultsMembers    = []string{"drop", "drop_edge", "delay", "delay_edge", "duplicate", "reorder", "partitions", "heal_after"}
	edgeFaultMembers = []string{"from", "to", "drop", "delay"}
	modelMembers     = []string{"kind", "spec"}
	modelSpecMembers = []string{"encoding", "scope", "assert_state"}
	scopeMembers     = []string{"pnodes", "vnodes", "values", "states", "msgs", "int_bitwidth", "triples", "bid_vectors"}
	solverMembers    = []string{"disable_vsids", "disable_restarts", "disable_phase_saving", "max_conflicts", "invert_phase", "restart_base", "rand_seed", "random_polarity_freq"}
	specMembers      = []string{"version", "kind", "workers", "runs", "seed", "max_deliveries", "budget_factor"}
	unitMembers      = []string{"version", "index", "engine", "scenario"}
	sweepMembers     = []string{"version", "name", "base", "axes"}
	axisMembers      = []string{"axis", "variants"}
	variantMembers   = []string{"name", "scenario"}
)

// firstSection is the index in scenarioMembers of the first section,
// agents; the sections follow in the order of their sec constants.
const firstSection = 2

// Tokens a string member usually holds: the reader hands out these
// strings instead of allocating a copy.
var (
	modelTokens = []string{modelKind, "naive", "optimized"}
	engineKinds = []string{"auto", "explicit", "simulation", "sat"}
)

// maxDepth is encoding/json's bound on nesting.
const maxDepth = 10000

// ---- reading ----

// reader reads one document, or a sequence of them, in b. A syntax
// error stops it: syn is set, and every read after it is a no-op. Any
// other error is recorded — the first one in err, or in *sem while a
// sweep source is read, which keeps its own — and reading goes on, so
// a syntax error later in the document is still found and reported
// first, as encoding/json reports it.
type reader struct {
	b     []byte
	i     int
	depth int
	syn   error
	err   error
	sem   *error
	// key is the name of the member being read, unescaped; it aliases b
	// or scratch until the next string is read. at is the member name it
	// matched, for type errors.
	key     []byte
	at      string
	scratch []byte
}

func newReader(data []byte) *reader { return &reader{b: data} }

// fail records an error that does not stop the reader.
func (r *reader) fail(err error) {
	p := &r.err
	if r.sem != nil {
		p = r.sem
	}
	if *p == nil {
		*p = err
	}
}

// syntax stops the reader at the current byte.
func (r *reader) syntax(context string) {
	switch {
	case r.syn != nil:
	case r.i >= len(r.b):
		r.syn = fmt.Errorf("byte %d: unexpected end of JSON input", r.i)
	default:
		r.syn = fmt.Errorf("byte %d: invalid character %s %s", r.i, quoteChar(r.b[r.i]), context)
	}
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// mismatch records a value of a kind the member does not take.
func (r *reader) mismatch(value, typ string) {
	field := "Go value"
	if r.at != "" {
		field = "Go struct field " + r.at
	}
	r.fail(fmt.Errorf("json: cannot unmarshal %s into %s of type %s", value, field, typ))
}

// end is the verdict on a document read to its end: the syntax error,
// else the first other error, else any byte but white space after it.
func (r *reader) end() error {
	switch {
	case r.syn != nil:
		return r.syn
	case r.err != nil:
		return r.err
	}
	r.ws()
	if r.i < len(r.b) {
		return fmt.Errorf("byte %d: %w", r.i, errTrailingData)
	}
	return nil
}

// ws skips JSON white space.
func (r *reader) ws() {
	for ; r.i < len(r.b); r.i++ {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte: 0 at the end of the
// input and once the reader has stopped.
func (r *reader) peek() byte {
	if r.i < len(r.b) && r.b[r.i] > ' ' && r.syn == nil {
		return r.b[r.i]
	}
	r.ws()
	if r.syn != nil || r.i >= len(r.b) {
		return 0
	}
	return r.b[r.i]
}

// open consumes the bracket that opens an object or a list.
func (r *reader) open() {
	if r.depth++; r.depth > maxDepth {
		r.syntax("exceeding the maximum nesting depth")
		return
	}
	r.i++
}

// next moves to the next member of the object being read, whose brace
// is consumed: it reads the member's name into key and the colon after
// it. It reports false at the closing brace, consumed, and once the
// reader has stopped. n counts the members read so far.
func (r *reader) next(n *int) bool {
	c := r.peek()
	switch {
	case c == '}':
		r.i++
		r.depth--
		return false
	case *n > 0 && c == ',':
		r.i++
		if r.peek() != '"' {
			r.syntax("looking for beginning of object key string")
			return false
		}
	case *n > 0:
		r.syntax("after object key:value pair")
		return false
	case c != '"':
		r.syntax("looking for beginning of object key string")
		return false
	}
	*n++
	r.key = r.string()
	if r.peek() != ':' {
		r.syntax("after object key")
		return false
	}
	r.i++
	return true
}

// elem moves to the next element of the list being read, whose bracket
// is consumed, and reports false at the closing bracket, consumed, and
// once the reader has stopped. n counts the elements read so far.
func (r *reader) elem(n *int) bool {
	c := r.peek()
	switch {
	case r.syn != nil:
		return false
	case c == ']':
		r.i++
		r.depth--
		return false
	case *n > 0 && c == ',':
		r.i++
	case *n > 0:
		r.syntax("after array element")
		return false
	}
	*n++
	return true
}

// member matches key against a struct's member names and returns the
// index of the member, setting at. An unknown member is an error, and
// its value is skipped: member returns -1.
func (r *reader) member(names []string) int {
	for k, name := range names {
		if string(r.key) == name {
			r.at = name
			return k
		}
	}
	for k, name := range names {
		if bytes.EqualFold(r.key, []byte(name)) {
			r.at = name
			return k
		}
	}
	r.fail(fmt.Errorf("json: unknown field %q", r.key))
	r.skip()
	return -1
}

// skip reads a value of any kind and keeps nothing of it.
func (r *reader) skip() {
	switch c := r.peek(); {
	case c == '{':
		r.open()
		for n := 0; r.next(&n); {
			r.skip()
		}
	case c == '[':
		r.open()
		for n := 0; r.elem(&n); {
			r.skip()
		}
	case c == '"':
		r.string()
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	case c == 't':
		r.word("true")
	case c == 'f':
		r.word("false")
	case c == 'n':
		r.word("null")
	default:
		r.syntax("looking for beginning of value")
	}
}

// other reads a value that is not of the kind the member takes: null,
// which leaves the member alone, or a value of another kind, an error.
func (r *reader) other(typ string) {
	var kind string
	switch c := r.peek(); {
	case c == 'n':
		r.word("null")
		return
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		r.syntax("looking for beginning of value")
		return
	}
	r.mismatch(kind, typ)
	r.skip()
}

// word reads the literal whose first byte is next.
func (r *reader) word(lit string) {
	for k := 0; k < len(lit); k++ {
		if r.i >= len(r.b) || r.b[r.i] != lit[k] {
			r.syntax("in literal " + lit)
			return
		}
		r.i++
	}
}

// number reads a number, whose first byte is next, and returns it as
// written.
func (r *reader) number() []byte {
	b, start := r.b, r.i
	i := start
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i = digits(b, i)
		if i == r.i || b[i-1] == '-' {
			r.i = i
			r.syntax("in numeric literal")
			return nil
		}
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			r.i = i
			r.syntax("after decimal point in numeric literal")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			r.i = i
			r.syntax("in exponent of numeric literal")
			return nil
		}
	}
	r.i = i
	return b[start:i]
}

// digits returns the index of the first byte from i on that is not a
// digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// string reads a string, whose opening quote is next, and returns its
// value: escapes resolved, and each byte of invalid UTF-8 read as
// U+FFFD. The bytes alias the input or scratch, until the next string.
func (r *reader) string() []byte {
	r.i++
	start, i := r.i, r.i
	for i < len(r.b) && plainByte[r.b[i]] {
		i++
	}
	switch {
	case i == len(r.b):
		r.i = i
		r.syntax("in string literal")
		return nil
	case r.b[i] == '"':
		r.i = i + 1
		return r.b[start:i]
	}
	return r.unquote(start, i)
}

// plainByte marks the bytes a string holds as written: printable ASCII
// but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote is string from the first byte, b[i], that is not copied as it
// stands; the value goes to scratch.
func (r *reader) unquote(start, i int) []byte {
	b := r.b
	out := append(r.scratch[:0], b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			r.i, r.scratch = i+1, out
			return out
		case c < 0x20:
			r.i = i
			r.syntax("in string literal")
			return nil
		case c == '\\':
			if i+1 >= len(b) {
				r.i = len(b)
				r.syntax("in string escape code")
				return nil
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(b[i+2:])
				if rr < 0 {
					r.i = i + 2
					r.syntax(`in \u hexadecimal character escape`)
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					// A pair is one character; a lone half, or a pair out of
					// order, is U+FFFD, and the escape after it is read again.
					next := rune(-1)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						next = hex4(b[i+2:])
					}
					if pair := utf16.DecodeRune(rr, next); pair != utf8.RuneError {
						out = utf8.AppendRune(out, pair)
						i += 6
						continue
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default:
				r.i = i + 1
				r.syntax("in string escape code")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			rr, size := utf8.DecodeRune(b[i:])
			if rr == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, rr)
			} else {
				out = append(out, b[i:i+size]...)
			}
			i += size
		}
	}
	r.i = len(b)
	r.syntax("in string literal")
	return nil
}

// hex4 reads four hexadecimal digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// ---- reading values ----

// num reads a number for a member of type typ; any other value is read
// as other reads it, and num reports false.
func (r *reader) num(typ string) ([]byte, bool) {
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		r.other(typ)
		return nil, false
	}
	tok := r.number()
	return tok, r.syn == nil
}

func (r *reader) integer(bits int, typ string) (int64, bool) {
	tok, ok := r.num(typ)
	if !ok {
		return 0, false
	}
	if v, ok := smallInt(tok); ok && bits == 64 {
		return v, true
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		r.mismatch("number "+string(tok), typ)
		return 0, false
	}
	return v, true
}

// smallInt reads an integer of at most 18 digits, which cannot overflow
// 64 bits. It reports false for any other number — longer, or with a
// fraction or an exponent — which is strconv's to judge.
func smallInt(tok []byte) (int64, bool) {
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if len(digits) < len(tok) {
		v = -v
	}
	return v, true
}

func (r *reader) int(v *int) {
	if n, ok := r.integer(strconv.IntSize, "int"); ok {
		*v = int(n)
	}
}

func (r *reader) int64(v *int64) {
	if n, ok := r.integer(64, "int64"); ok {
		*v = n
	}
}

func (r *reader) uint64(v *uint64) {
	if tok, ok := r.num("uint64"); ok {
		if n, err := strconv.ParseUint(string(tok), 10, 64); err != nil {
			r.mismatch("number "+string(tok), "uint64")
		} else {
			*v = n
		}
	}
}

func (r *reader) float(v *float64) {
	if tok, ok := r.num("float64"); ok {
		if f, err := strconv.ParseFloat(string(tok), 64); err != nil {
			r.mismatch("number "+string(tok), "float64")
		} else {
			*v = f
		}
	}
}

func (r *reader) bool(v *bool) {
	switch r.peek() {
	case 't':
		r.word("true")
		if r.syn == nil {
			*v = true
		}
	case 'f':
		r.word("false")
		if r.syn == nil {
			*v = false
		}
	default:
		r.other("bool")
	}
}

// text reads a string member; a value equal to one of known is that
// string, not a copy.
func (r *reader) text(v *string, known []string) {
	if r.peek() != '"' {
		r.other("string")
		return
	}
	s := r.string()
	if r.syn != nil {
		return
	}
	for _, k := range known {
		if string(s) == k {
			*v = k
			return
		}
	}
	*v = string(s)
}

// token reads an enum member through its UnmarshalText, as encoding/json
// does: a string is the token, null leaves the value alone.
func (r *reader) token(v encoding.TextUnmarshaler, typ string) {
	if r.peek() != '"' {
		r.other(typ)
		return
	}
	if s := r.string(); r.syn == nil {
		if err := v.UnmarshalText(s); err != nil {
			r.fail(err)
		}
	}
}

// object reads the brace that opens a struct's value; any other value is
// read as other reads it, and object reports false.
func (r *reader) object(typ string) bool {
	if r.peek() != '{' {
		r.other(typ)
		return false
	}
	r.open()
	return r.syn == nil
}

// ptr returns what a pointer member's value decodes into: the value *p
// points to, or a new one. After null, which clears *p, it returns nil.
func ptr[T any](r *reader, p **T) *T {
	if r.peek() == 'n' {
		if r.word("null"); r.syn == nil {
			*p = nil
		}
		return nil
	}
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// list reads a list member into *s as encoding/json reads one into a
// slice: null clears it, each element decodes over the one at its index
// — an element within the capacity but past the length is one an
// earlier, longer list left there — and the slice is cut to the list's
// length, a fresh empty slice for []. What an element is left holding
// does not depend on capacities — a grown slice keeps every element the
// old one had room for — so they need not be encoding/json's: a fresh
// list starts with room for four.
func list[T any](r *reader, s *[]T, typ string, elem func(*reader, *T)) {
	switch r.peek() {
	case '[':
	case 'n':
		if r.word("null"); r.syn == nil {
			*s = nil
		}
		return
	default:
		r.other(typ)
		return
	}
	r.open()
	v, at := *s, r.at
	i := 0
	for n := 0; r.elem(&n); i++ {
		switch {
		case i < len(v):
		case i < cap(v):
			v = v[:i+1]
		case i == 0:
			v = make([]T, 1, 4)
		default:
			var zero T
			v = append(v, zero)
		}
		r.at = at
		elem(r, &v[i])
	}
	switch {
	case i == 0:
		v = []T{}
	case i < len(v):
		v = v[:i]
	}
	*s = v
}

// ---- reading the wire structs ----

// scenario reads a scenario object into w. src, when not nil, is the
// sweep source w belongs to: it learns each section member's last
// value as written.
func (r *reader) scenario(w *scenarioJSON, src *sweepSource) {
	if !r.object("engine.scenarioJSON") {
		return
	}
	for n := 0; r.next(&n); {
		k := r.member(scenarioMembers)
		if src == nil || k < firstSection {
			r.scenarioMember(w, k)
			continue
		}
		r.peek()
		start := r.i
		r.scenarioMember(w, k)
		src.raw[k-firstSection] = r.b[start:r.i]
	}
}

// scenarioMember reads the value of member k of scenarioMembers into w.
func (r *reader) scenarioMember(w *scenarioJSON, k int) {
	switch k {
	case 0:
		r.int(&w.Version)
	case 1:
		r.text(&w.Name, nil)
	case 2:
		list(r, &w.Agents, "[]engine.agentJSON", (*reader).agent)
	case 3:
		if g := ptr(r, &w.Graph); g != nil {
			r.graph(g)
		}
	case 4:
		if e := ptr(r, &w.Explore); e != nil {
			r.explore(e)
		}
	case 5:
		if f := ptr(r, &w.Faults); f != nil {
			r.faults(f)
		}
	case 6:
		if m := ptr(r, &w.Model); m != nil {
			r.model(m)
		}
	case 7:
		if s := ptr(r, &w.Solver); s != nil {
			r.solver(s)
		}
	}
}

func (r *reader) agent(a *agentJSON) {
	if !r.object("engine.agentJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(agentMembers) {
		case 0:
			r.int(&a.ID)
		case 1:
			r.int(&a.Items)
		case 2:
			list(r, &a.Base, "[]int64", (*reader).int64)
		case 3:
			list(r, &a.Demands, "[]int64", (*reader).int64)
		case 4:
			r.int64(&a.Capacity)
		case 5:
			r.policy(&a.Policy)
		}
	}
}

func (r *reader) policy(p *policyJSON) {
	if !r.object("engine.policyJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(policyMembers) {
		case 0:
			r.int(&p.Target)
		case 1:
			if u := ptr(r, &p.Utility); u != nil {
				r.utility(u)
			}
		case 2:
			r.bool(&p.ReleaseOutbid)
		case 3:
			r.token(&p.Rebid, "mca.RebidMode")
		case 4:
			r.int(&p.BidsPerRound)
		}
	}
}

func (r *reader) utility(u *utilityJSON) {
	if !r.object("engine.utilityJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(utilityMembers) {
		case 0:
			r.text(&u.Kind, mca.UtilityKinds)
		case 1:
			r.int64(&u.Decay)
		case 2:
			r.int64(&u.SynergyNum)
		case 3:
			r.int64(&u.SynergyDen)
		case 4:
			r.int64(&u.Step)
		case 5:
			r.int64(&u.Cap)
		}
	}
}

func (r *reader) graph(g *graphJSON) {
	if !r.object("engine.graphJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(graphMembers) {
		case 0:
			r.int(&g.Nodes)
		case 1:
			list(r, &g.Edges, "[]engine.edgeJSON", (*reader).edge)
		}
	}
}

func (r *reader) edge(e *edgeJSON) {
	if !r.object("engine.edgeJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(edgeMembers) {
		case 0:
			r.int(&e.U)
		case 1:
			r.int(&e.V)
		case 2:
			if w := ptr(r, &e.W); w != nil {
				r.float(w)
			}
		}
	}
}

func (r *reader) explore(e *exploreJSON) {
	if !r.object("engine.exploreJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(exploreMembers) {
		case 0:
			r.int(&e.Bound)
		case 1:
			r.int(&e.BoundSlack)
		case 2:
			r.int(&e.HardLimitFactor)
		case 3:
			r.int(&e.MaxStates)
		case 4:
			r.int(&e.QueueDepth)
		case 5:
			r.bool(&e.DisableVisitedSet)
		case 6:
			r.bool(&e.DuplicateDeliveries)
		case 7:
			r.token(&e.Store, "explore.StoreKind")
		case 8:
			r.int(&e.StoreBits)
		}
	}
}

func (r *reader) faults(f *faultsJSON) {
	if !r.object("engine.faultsJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(faultsMembers) {
		case 0:
			r.float(&f.Drop)
		case 1:
			list(r, &f.DropEdge, "[]engine.edgeFaultJSON", (*reader).edgeFault)
		case 2:
			r.int(&f.Delay)
		case 3:
			list(r, &f.DelayEdge, "[]engine.edgeFaultJSON", (*reader).edgeFault)
		case 4:
			r.float(&f.Duplicate)
		case 5:
			r.int(&f.Reorder)
		case 6:
			list(r, &f.Partitions, "[][]int", (*reader).block)
		case 7:
			r.int(&f.HealAfter)
		}
	}
}

func (r *reader) edgeFault(e *edgeFaultJSON) {
	if !r.object("engine.edgeFaultJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(edgeFaultMembers) {
		case 0:
			r.int(&e.From)
		case 1:
			r.int(&e.To)
		case 2:
			r.float(&e.Drop)
		case 3:
			r.int(&e.Delay)
		}
	}
}

// block reads one partition block.
func (r *reader) block(b *[]int) { list(r, b, "[]int", (*reader).int) }

func (r *reader) model(m *modelJSON) {
	if !r.object("engine.modelJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(modelMembers) {
		case 0:
			r.text(&m.Kind, modelTokens)
		case 1:
			r.modelSpec(&m.Spec)
		}
	}
}

func (r *reader) modelSpec(s *modelSpecJSON) {
	if !r.object("engine.modelSpecJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(modelSpecMembers) {
		case 0:
			r.text(&s.Encoding, modelTokens)
		case 1:
			r.scope(&s.Scope)
		case 2:
			r.int(&s.AssertState)
		}
	}
}

func (r *reader) scope(s *scopeJSON) {
	if !r.object("engine.scopeJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(scopeMembers) {
		case 0:
			r.int(&s.PNodes)
		case 1:
			r.int(&s.VNodes)
		case 2:
			r.int(&s.Values)
		case 3:
			r.int(&s.States)
		case 4:
			r.int(&s.Msgs)
		case 5:
			r.int(&s.IntBitwidth)
		case 6:
			r.int(&s.Triples)
		case 7:
			r.int(&s.BidVectors)
		}
	}
}

func (r *reader) solver(s *solverJSON) {
	if !r.object("engine.solverJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(solverMembers) {
		case 0:
			r.bool(&s.DisableVSIDS)
		case 1:
			r.bool(&s.DisableRestarts)
		case 2:
			r.bool(&s.DisablePhaseSaving)
		case 3:
			r.int64(&s.MaxConflicts)
		case 4:
			r.bool(&s.InvertPhase)
		case 5:
			r.int64(&s.RestartBase)
		case 6:
			r.uint64(&s.RandSeed)
		case 7:
			r.float(&s.RandomPolarityFreq)
		}
	}
}

func (r *reader) spec(s *EngineSpec) {
	if !r.object("engine.EngineSpec") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(specMembers) {
		case 0:
			r.int(&s.Version)
		case 1:
			r.text(&s.Kind, engineKinds)
		case 2:
			r.int(&s.Workers)
		case 3:
			r.int(&s.Runs)
		case 4:
			r.int64(&s.Seed)
		case 5:
			r.int(&s.MaxDeliveries)
		case 6:
			r.int(&s.BudgetFactor)
		}
	}
}

func (r *reader) unit(u *unitJSON) {
	if !r.object("engine.unitJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(unitMembers) {
		case 0:
			r.int(&u.Version)
		case 1:
			r.int(&u.Index)
		case 2:
			r.spec(&u.Engine)
		case 3:
			r.scenario(&u.Scenario, nil)
		}
	}
}

func (r *reader) sweepFile(d *sweepFileJSON) {
	if !r.object("engine.sweepFileJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(sweepMembers) {
		case 0:
			r.int(&d.Version)
		case 1:
			r.text(&d.Name, nil)
		case 2:
			r.source(&d.Base)
		case 3:
			list(r, &d.Axes, "[]engine.axisJSON", (*reader).axis)
		}
	}
}

func (r *reader) axis(a *axisJSON) {
	if !r.object("engine.axisJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(axisMembers) {
		case 0:
			r.text(&a.Axis, nil)
		case 1:
			list(r, &a.Variants, "[]engine.variantJSON", (*reader).variant)
		}
	}
}

func (r *reader) variant(v *variantJSON) {
	if !r.object("engine.variantJSON") {
		return
	}
	for n := 0; r.next(&n); {
		switch r.member(variantMembers) {
		case 0:
			r.text(&v.Name, nil)
		case 1:
			r.source(&v.Scenario)
		}
	}
}

// source reads a sweep's base or a variant's patch into src afresh, as
// encoding/json hands a value to a type that decodes itself: any value,
// null and non-objects too, replaces what src held. An error inside the
// source is the source's own, reported by DecodeSweep under its name.
func (r *reader) source(src *sweepSource) {
	*src = sweepSource{opens: r.peek()}
	outer := r.sem
	r.sem = &src.err
	r.scenario(&src.wire, src)
	r.sem = outer
	w := &src.wire
	src.set = [numSections]bool{w.Agents != nil, w.Graph != nil, w.Explore != nil, w.Faults != nil, w.Model != nil, w.Solver != nil}
	for sec, raw := range src.raw {
		src.null[sec] = len(raw) > 0 && raw[0] == 'n'
	}
}

// ---- writing ----

// writer appends wire structs to b as json.Marshal writes them; err is
// json.Marshal's error, for a value it cannot write.
type writer struct {
	b   []byte
	err error
}

// key writes a member name, after a comma unless it opens its object.
func (w *writer) key(name string) {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':')
}

func (w *writer) int(name string, v int64) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

// The omit methods write a member only when it is not empty, as
// omitempty does.

func (w *writer) omitInt(name string, v int64) {
	if v != 0 {
		w.int(name, v)
	}
}

func (w *writer) omitUint(name string, v uint64) {
	if v != 0 {
		w.key(name)
		w.b = strconv.AppendUint(w.b, v, 10)
	}
}

func (w *writer) omitBool(name string, v bool) {
	if v {
		w.key(name)
		w.b = append(w.b, "true"...)
	}
}

func (w *writer) omitFloat(name string, v float64) {
	if v != 0 {
		w.key(name)
		w.float(v)
	}
}

func (w *writer) float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if w.err == nil {
			w.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		return
	}
	w.b = appendJSONFloat(w.b, v)
}

func (w *writer) str(name, v string) {
	w.key(name)
	w.b = appendString(w.b, v, false)
}

func (w *writer) omitStr(name, v string) {
	if v != "" {
		w.str(name, v)
	}
}

// textEnum is an enum that a document spells as a token.
type textEnum interface {
	~int
	encoding.TextMarshaler
}

// omitToken writes an enum member unless it is the zero value.
func omitToken[T textEnum](w *writer, name string, v T, tokens []string) {
	if v != 0 {
		writeToken(w, name, v, tokens)
	}
}

// writeToken writes an enum member as MarshalText spells it: from
// tokens, which holds what MarshalText returns for each value it
// accepts, so as not to allocate.
func writeToken[T textEnum](w *writer, name string, v T, tokens []string) {
	switch {
	case 0 <= v && int(v) < len(tokens) && tokens[v] != "":
		w.str(name, tokens[v])
	default:
		if text, err := v.MarshalText(); err != nil {
			if w.err == nil {
				w.err = fmt.Errorf("json: error calling MarshalText for type %T: %w", v, err)
			}
		} else {
			w.str(name, string(text))
		}
	}
}

// textTokens is MarshalText of the values 1 to 7 of an enum, "" where it
// fails.
func textTokens[T textEnum]() []string {
	tokens := make([]string, 8)
	for v := T(1); v < 8; v++ {
		if text, err := v.MarshalText(); err == nil {
			tokens[v] = string(text)
		}
	}
	return tokens
}

var (
	rebidTokens     = textTokens[mca.RebidMode]()
	storeTokens     = textTokens[explore.StoreKind]()
	violationTokens = textTokens[explore.ViolationKind]()
	satTokens       = textTokens[sat.Status]()
)

// writeInts writes a list of integers, and null for a nil one.
func writeInts[T int | int64](w *writer, v []T) {
	if v == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '[')
	for i, x := range v {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = strconv.AppendInt(w.b, int64(x), 10)
	}
	w.b = append(w.b, ']')
}

// list opens a list member's value when the list is not empty, and
// reports whether it did; the caller writes the elements, each after
// sep, and closes it.
func (w *writer) list(name string, n int) bool {
	if n == 0 {
		return false
	}
	w.key(name)
	w.b = append(w.b, '[')
	return true
}

// sep writes the comma before every element but the first.
func (w *writer) sep(i int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
}

// appendScenario appends json.Marshal(s) to dst.
func appendScenario(dst []byte, s *scenarioJSON) ([]byte, error) {
	w := writer{b: dst}
	w.scenario(s)
	return w.b, w.err
}

func (w *writer) scenario(s *scenarioJSON) {
	m := scenarioMembers
	w.b = append(w.b, '{')
	w.int(m[0], int64(s.Version))
	w.omitStr(m[1], s.Name)
	if w.list(m[2], len(s.Agents)) {
		for i := range s.Agents {
			w.sep(i)
			w.agent(&s.Agents[i])
		}
		w.b = append(w.b, ']')
	}
	if s.Graph != nil {
		w.key(m[3])
		w.graph(s.Graph)
	}
	if s.Explore != nil {
		w.key(m[4])
		w.explore(s.Explore)
	}
	if s.Faults != nil {
		w.key(m[5])
		w.faults(s.Faults)
	}
	if s.Model != nil {
		w.key(m[6])
		w.model(s.Model)
	}
	if s.Solver != nil {
		w.key(m[7])
		w.solver(s.Solver)
	}
	w.b = append(w.b, '}')
}

func (w *writer) agent(a *agentJSON) {
	m := agentMembers
	w.b = append(w.b, '{')
	w.int(m[0], int64(a.ID))
	w.int(m[1], int64(a.Items))
	if len(a.Base) > 0 {
		w.key(m[2])
		writeInts(w, a.Base)
	}
	if len(a.Demands) > 0 {
		w.key(m[3])
		writeInts(w, a.Demands)
	}
	w.omitInt(m[4], a.Capacity)
	w.key(m[5])
	w.policy(&a.Policy)
	w.b = append(w.b, '}')
}

func (w *writer) policy(p *policyJSON) {
	m := policyMembers
	w.b = append(w.b, '{')
	w.int(m[0], int64(p.Target))
	if u := p.Utility; u != nil {
		w.key(m[1])
		w.b = append(w.b, '{')
		um := utilityMembers
		w.str(um[0], u.Kind)
		w.omitInt(um[1], u.Decay)
		w.omitInt(um[2], u.SynergyNum)
		w.omitInt(um[3], u.SynergyDen)
		w.omitInt(um[4], u.Step)
		w.omitInt(um[5], u.Cap)
		w.b = append(w.b, '}')
	}
	w.omitBool(m[2], p.ReleaseOutbid)
	omitToken(w, m[3], p.Rebid, rebidTokens)
	w.omitInt(m[4], int64(p.BidsPerRound))
	w.b = append(w.b, '}')
}

func (w *writer) graph(g *graphJSON) {
	m := graphMembers
	w.b = append(w.b, '{')
	w.int(m[0], int64(g.Nodes))
	if w.list(m[1], len(g.Edges)) {
		for i := range g.Edges {
			w.sep(i)
			w.edge(&g.Edges[i])
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

func (w *writer) edge(e *edgeJSON) {
	m := edgeMembers
	w.b = append(w.b, '{')
	w.int(m[0], int64(e.U))
	w.int(m[1], int64(e.V))
	if e.W != nil {
		w.key(m[2])
		w.float(*e.W)
	}
	w.b = append(w.b, '}')
}

func (w *writer) explore(e *exploreJSON) {
	m := exploreMembers
	w.b = append(w.b, '{')
	w.omitInt(m[0], int64(e.Bound))
	w.omitInt(m[1], int64(e.BoundSlack))
	w.omitInt(m[2], int64(e.HardLimitFactor))
	w.omitInt(m[3], int64(e.MaxStates))
	w.omitInt(m[4], int64(e.QueueDepth))
	w.omitBool(m[5], e.DisableVisitedSet)
	w.omitBool(m[6], e.DuplicateDeliveries)
	omitToken(w, m[7], e.Store, storeTokens)
	w.omitInt(m[8], int64(e.StoreBits))
	w.b = append(w.b, '}')
}

func (w *writer) faults(f *faultsJSON) {
	m := faultsMembers
	w.b = append(w.b, '{')
	w.omitFloat(m[0], f.Drop)
	w.edgeFaults(m[1], f.DropEdge)
	w.omitInt(m[2], int64(f.Delay))
	w.edgeFaults(m[3], f.DelayEdge)
	w.omitFloat(m[4], f.Duplicate)
	w.omitInt(m[5], int64(f.Reorder))
	if w.list(m[6], len(f.Partitions)) {
		for i, block := range f.Partitions {
			w.sep(i)
			writeInts(w, block)
		}
		w.b = append(w.b, ']')
	}
	w.omitInt(m[7], int64(f.HealAfter))
	w.b = append(w.b, '}')
}

func (w *writer) edgeFaults(name string, faults []edgeFaultJSON) {
	if !w.list(name, len(faults)) {
		return
	}
	m := edgeFaultMembers
	for i := range faults {
		e := &faults[i]
		w.sep(i)
		w.b = append(w.b, '{')
		w.int(m[0], int64(e.From))
		w.int(m[1], int64(e.To))
		w.omitFloat(m[2], e.Drop)
		w.omitInt(m[3], int64(e.Delay))
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ']')
}

func (w *writer) model(mw *modelJSON) {
	m, sm, scm := modelMembers, modelSpecMembers, scopeMembers
	w.b = append(w.b, '{')
	w.str(m[0], mw.Kind)
	w.key(m[1])
	w.b = append(w.b, '{')
	w.str(sm[0], mw.Spec.Encoding)
	w.key(sm[1])
	sc := &mw.Spec.Scope
	w.b = append(w.b, '{')
	w.int(scm[0], int64(sc.PNodes))
	w.int(scm[1], int64(sc.VNodes))
	w.int(scm[2], int64(sc.Values))
	w.int(scm[3], int64(sc.States))
	w.int(scm[4], int64(sc.Msgs))
	w.omitInt(scm[5], int64(sc.IntBitwidth))
	w.omitInt(scm[6], int64(sc.Triples))
	w.omitInt(scm[7], int64(sc.BidVectors))
	w.b = append(w.b, '}')
	w.omitInt(sm[2], int64(mw.Spec.AssertState))
	w.b = append(w.b, '}', '}')
}

func (w *writer) solver(s *solverJSON) {
	m := solverMembers
	w.b = append(w.b, '{')
	w.omitBool(m[0], s.DisableVSIDS)
	w.omitBool(m[1], s.DisableRestarts)
	w.omitBool(m[2], s.DisablePhaseSaving)
	w.omitInt(m[3], s.MaxConflicts)
	w.omitBool(m[4], s.InvertPhase)
	w.omitInt(m[5], s.RestartBase)
	w.omitUint(m[6], s.RandSeed)
	w.omitFloat(m[7], s.RandomPolarityFreq)
	w.b = append(w.b, '}')
}

// encodeSpec is json.Marshal(s), which cannot fail for a spec.
func encodeSpec(s *EngineSpec) []byte {
	m := specMembers
	w := writer{b: append(make([]byte, 0, 64), '{')}
	w.int(m[0], int64(s.Version))
	w.str(m[1], s.Kind)
	w.omitInt(m[2], int64(s.Workers))
	w.omitInt(m[3], int64(s.Runs))
	w.omitInt(m[4], s.Seed)
	w.omitInt(m[5], int64(s.MaxDeliveries))
	w.omitInt(m[6], int64(s.BudgetFactor))
	return append(w.b, '}')
}
