package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// query is one request's query string read against the parameters its
// endpoint declares. The getters record the first bad value in err and
// fall back to their default, so a handler reads everything it needs
// and checks err once. An empty value is an absent one.
type query struct {
	r   *http.Request
	v   url.Values
	err error
}

// params starts reading r's query. A parameter outside declared — a
// typo like ?worker=2, or a retired one — is an error naming it, never
// a silently ignored option.
func params(r *http.Request, declared ...string) *query {
	q := &query{r: r, v: r.URL.Query()}
	var stray []string
	for name := range q.v {
		if !slices.Contains(declared, name) {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		q.fail(fmt.Errorf("unknown query parameter %q (this request reads %s)", slices.Min(stray), strings.Join(declared, ", ")))
	}
	return q
}

// fail records err unless an earlier error is already recorded.
func (q *query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

func (q *query) has(name string) bool { return q.v.Get(name) != "" }

func (q *query) str(name, def string) string { return cmp.Or(q.v.Get(name), def) }

// int reads an integer in lo..hi.
func (q *query) int(name string, def, lo, hi int) int {
	return int(q.int64(name, int64(def), int64(lo), int64(hi)))
}

func (q *query) int64(name string, def, lo, hi int64) int64 {
	v := q.v.Get(name)
	if v == "" {
		return def
	}
	switch n, err := strconv.ParseInt(v, 10, 64); {
	case err != nil:
		q.fail(fmt.Errorf("bad %s %q", name, v))
	case n < lo || n > hi:
		q.fail(fmt.Errorf("%s %d outside %d..%d", name, n, lo, hi))
	default:
		return n
	}
	return def
}

// bool reads a switch: 1 or true turns it on.
func (q *query) bool(name string) bool {
	switch v := q.v.Get(name); v {
	case "", "0":
		return false
	case "1", "true":
		return true
	default:
		q.fail(fmt.Errorf("bad %s %q (want 1)", name, v))
		return false
	}
}

// workers reads an engine's parallelism. The engine, not the query,
// bounds it (engine.MaxWorkers): a value over the bound is an error
// result, as on every other way into an engine.
func (q *query) workers() int { return q.int("workers", 0, math.MinInt, math.MaxInt) }

// engine builds the engine ?engine= names (default auto) from ?runs=
// and ?seed=, with workers as its parallelism; nil once err is set. A
// parameter that does not belong to the chosen engine is an error, by
// the same check a fleet work unit's engine spec goes through.
func (q *query) engine(workers int) engine.Engine {
	spec := engine.EngineSpec{
		Kind:    q.str("engine", "auto"),
		Workers: workers,
		Runs:    q.int("runs", 0, math.MinInt, math.MaxInt),
		Seed:    q.int64("seed", 0, math.MinInt64, math.MaxInt64),
	}
	eng, err := spec.Engine()
	if q.fail(err); q.err != nil {
		return nil
	}
	return eng
}

// context is the request's context under the effective verification
// timeout: ?timeout= clamped to limit, or def.
func (q *query) context(def, limit time.Duration) (context.Context, context.CancelFunc) {
	d := def
	if v := q.v.Get("timeout"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil || parsed <= 0 {
			q.fail(fmt.Errorf("bad timeout %q", v))
		} else {
			d = parsed
		}
	}
	return context.WithTimeout(q.r.Context(), min(d, limit))
}
