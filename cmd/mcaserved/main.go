// Command mcaserved serves the verification engine over HTTP: scenarios
// and sweep files go in as JSON (the codec format of
// docs/SCENARIO_FORMAT.md), unified results come back out, and a
// content-addressed result cache makes repeated verification of the
// same scenario a lookup instead of a search.
//
// Endpoints:
//
//	POST /verify       one scenario document -> one result document.
//	                   With ?checkpoint=1 (explicit engine) a
//	                   budget-capped run responds
//	                   {"resume": token, "result": ...}; POSTing
//	                   {"resume": token, "max_states": N} later
//	                   continues that run with a raised budget,
//	                   yielding the same result the uninterrupted
//	                   verification would have produced. A resume
//	                   body is read strictly: an unknown member or a
//	                   negative max_states is a 400 that spends no
//	                   token. Tokens are single use and held in a
//	                   small in-memory table
//	POST /sweep        one sweep document -> NDJSON result stream,
//	                   one result per line, then a summary line
//	GET  /cache/stats  cache effectiveness counters
//	GET  /cache/entry/{key}  peer cache protocol (GET/PUT by content
//	                   address) — this is what other nodes' -remotecache
//	                   points at. Served only with -peercache: PUT
//	                   stores result documents that cannot be validated
//	                   against their key, so the endpoint is opt-in,
//	                   for trusted peers, ideally behind -cachesecret
//	GET  /metrics      Prometheus text exposition: request counts and
//	                   latencies, cache tiers, fleet dispatch stats,
//	                   store occupancy, admission shedding
//	GET  /healthz      liveness probe
//
// The process serves one of three -role values. "standalone" (the
// default) verifies everything in-process. "worker" additionally
// serves the fleet protocol (POST /fleet/work, GET /fleet/health) so a
// coordinator can dispatch work units to it; -fleetslots is its flag
// alone. "coordinator" requires
// -peers (comma-separated worker base URLs), runs /sweep's Runner with
// the fleet as its engine (internal/fleet; the pool is sized by the
// slots each worker advertises, not by -workers) — byte-identical
// summaries to standalone, see docs/OPERATIONS.md — and serves GET
// /fleet/status with dispatch counters and live worker health. Point
// -remotecache at a peer's /cache/entry to layer that peer behind the
// local cache tiers on any role; the peer must run -peercache (and the
// same -cachesecret, if one is set on either side). -peers or
// -fleetslots on a role that does not read it is a startup error.
//
// Admission control is opt-in and covers the client endpoints (/verify,
// /sweep): -quotarate/-quotaburst throttle them per tenant — the
// X-Tenant header, with one shared anonymous bucket — and -maxinflight
// caps how many execute at once. Both shed excess load
// with 429 + Retry-After rather than queueing. A worker admits
// /fleet/work by its -fleetslots alone, the credit it advertises on
// /fleet/health and the coordinator dispatches against.
//
// Engine selection is per request via query parameters:
// ?engine=auto|explicit|simulation|sat (default auto), &runs=N and
// &seed=S (simulation), and &timeout=30s within the server's
// -maxtimeout. On /verify, &workers=N sizes the SAT portfolio; an
// explicit check runs on the serial DFS whatever it says, and past
// engine.MaxWorkers the result is an error on either. /sweep runs its
// scenarios on a pool of -workers with serial engines, so sweep cache
// keys never depend on a pool size. A query parameter the endpoint does not read — a typo
// like ?worker=2, or a retired one such as ?workers= on /sweep — is a
// 400 naming it, never a silently ignored option.
// Shutdown is graceful:
// SIGINT/SIGTERM stops accepting connections and lets in-flight
// verifications finish (their contexts are cancelled after the
// drain period).
//
// Usage:
//
//	mcaserved -addr :8080 -cachesize 4096 -cachedir /var/lib/mcaserved
//	mcaserved -role worker -addr :8081 -fleetslots 8
//	mcaserved -role coordinator -peers http://w1:8081,http://w2:8081
//	curl -d @examples/scenarios/line3.json 'localhost:8080/verify'
//	curl -d @examples/scenarios/policy-faults-sweep.json 'localhost:8080/sweep'
//	curl localhost:8080/cache/stats
//	curl localhost:8080/metrics
//
// Differential fuzzing is not served: cmd/mcafuzz runs the generator
// and its oracle panel offline, so a fuzz corpus never passes through
// this service's result cache.
//
// See docs/OPERATIONS.md for production guidance (cache sizing, epoch
// bumps, drain behaviour, timeout tuning).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fleet"
)

func main() {
	fs := flag.NewFlagSet("mcaserved", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "/sweep scenario pool size (0 = one per CPU)")
	cacheSize := fs.Int("cachesize", 4096, "in-memory result cache capacity (0 = default, negative = unbounded)")
	cacheDir := fs.String("cachedir", "", "directory for persistent result cache (empty = memory only; the directory grows unbounded — prune externally)")
	defTimeout := fs.Duration("timeout", 60*time.Second, "default per-request verification timeout")
	maxTimeout := fs.Duration("maxtimeout", 10*time.Minute, "upper bound on client-requested timeouts")
	maxBody := fs.Int64("maxbody", 32<<20, "maximum request body bytes")
	role := fs.String("role", "standalone", "process role: standalone|coordinator|worker")
	peers := fs.String("peers", "", "comma-separated worker base URLs (coordinator role)")
	remoteCache := fs.String("remotecache", "", "peer cache base URL (a peer's /cache/entry) layered behind the local tiers")
	peerCache := fs.Bool("peercache", false, "serve the peer cache protocol at /cache/entry (opt-in: PUT bodies cannot be validated against their key, expose only to trusted peers)")
	cacheSecret := fs.String("cachesecret", "", "shared secret for the peer cache protocol: required of /cache/entry clients when -peercache is set, and sent to the -remotecache peer")
	fleetSlots := fs.Int("fleetslots", 0, "worker role: concurrent work units (0 = one per CPU); a coordinator sizes its dispatch credit from what each worker advertises")
	quotaRate := fs.Float64("quotarate", 0, "per-tenant requests/second on expensive endpoints (0 = no quota)")
	quotaBurst := fs.Int("quotaburst", 10, "per-tenant burst size when -quotarate is set")
	maxInFlight := fs.Int("maxinflight", 0, "cap on concurrently executing client requests: /verify, /sweep (0 = unlimited; a worker admits /fleet/work by -fleetslots alone)")
	chaosSpec := fs.String("chaos", "", "arm seeded fault injection on fleet dispatch, peer cache, and disk cache writes (internal/chaos spec, e.g. \"seed=1,crash=0.1,corrupt=0.05\"); for failure-semantics testing only")
	fs.Parse(os.Args[1:])
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	var injector *chaos.Injector
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal("parsing -chaos", err)
		}
		injector = chaos.New(cfg)
		slog.Warn("CHAOS ARMED: fault injection is live, do not run in production", "spec", *chaosSpec)
	}
	c, err := cache.New(cache.Options{Capacity: *cacheSize, Dir: *cacheDir, RemoteURL: *remoteCache, RemoteSecret: *cacheSecret, Chaos: injector})
	if err != nil {
		fatal("opening the cache", err)
	}
	s, err := newServer(serverConfig{
		Workers:        *workers,
		Cache:          c,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBody:        *maxBody,
		Role:           *role,
		Peers:          splitPeers(*peers),
		FleetSlots:     *fleetSlots,
		PeerCache:      *peerCache,
		CacheSecret:    *cacheSecret,
		QuotaRate:      *quotaRate,
		QuotaBurst:     *quotaBurst,
		MaxInFlight:    *maxInFlight,
		Chaos:          injector,
	})
	if err != nil {
		fatal("configuring the server", err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	slog.Info("listening", "addr", *addr, "role", *role, "cache_capacity", c.Stats().Capacity, "cache_dir", *cacheDir)

	select {
	case err := <-errc:
		fatal("serving", err)
	case <-ctx.Done():
	}
	// Restore the default signal disposition before draining, so a
	// second SIGINT/SIGTERM genuinely kills the process instead of
	// being swallowed by the (still registered) notify channel.
	stop()
	slog.Info("draining (second signal aborts immediately)")
	// Quiesce the fleet first: in-flight dispatches finish, pending
	// units come back inconclusive, and only then is the HTTP side
	// drained — so a coordinator's open /sweep streams can still emit
	// their final lines during Shutdown.
	s.quiesce()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		slog.Error("shutdown", "err", err)
	}
}

// fatal logs err and ends the process.
func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}

// splitPeers parses the -peers list, tolerating blanks.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// serverConfig parameterizes the handler so tests can drive it through
// httptest without a listener.
type serverConfig struct {
	Workers        int
	Cache          *cache.Cache
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	MaxBody        int64
	Role           string // standalone (default) | coordinator | worker
	Peers          []string
	FleetSlots     int    // worker role: concurrent work units
	PeerCache      bool   // serve /cache/entry (trusted peers only)
	CacheSecret    string // shared secret required of /cache/entry clients
	QuotaRate      float64
	QuotaBurst     int
	MaxInFlight    int
	// Chaos, when non-nil, injects seeded faults into coordinator
	// dispatch (site "fleet.dispatch") and exposes injection counters on
	// /metrics. Cache-tier injection is wired separately through
	// cache.Options.Chaos.
	Chaos *chaos.Injector
}

func (c serverConfig) withDefaults() serverConfig {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 32 << 20
	}
	if c.Role == "" {
		c.Role = "standalone"
	}
	return c
}

type server struct {
	cfg         serverConfig
	handler     http.Handler
	metrics     *metrics
	quotas      *quotaTable        // nil = no quota
	admit       chan struct{}      // nil = no in-flight cap
	coord       *fleet.Coordinator // coordinator role only
	fleetWorker *fleet.Worker      // worker role only
	resumes     *resumeStore       // checkpoints of capped /verify runs
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// quiesce begins fleet draining; a no-op outside the coordinator role.
func (s *server) quiesce() {
	if s.coord != nil {
		s.coord.Quiesce()
	}
}

// newServer builds the service handler for the configured role.
func newServer(cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	s := &server{cfg: cfg, metrics: newMetrics(), resumes: newResumeStore(16)}
	if cfg.QuotaRate > 0 {
		s.quotas = newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst)
	}
	if cfg.MaxInFlight > 0 {
		s.admit = make(chan struct{}, cfg.MaxInFlight)
	}

	// Every route declares its verb: another method is the mux's 405 with
	// Allow, answered before admission spends a quota token on it.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /verify", s.gate(s.handleVerify))
	mux.HandleFunc("POST /sweep", s.gate(s.handleSweep))
	mux.HandleFunc("GET /cache/stats", s.handleCacheStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"role":%q}`+"\n", cfg.Role)
	})
	if cfg.PeerCache && cfg.Cache != nil {
		// The peer cache protocol: what other nodes' -remotecache dials.
		// It serves local tiers only, so peer rings cannot recurse.
		// Opt-in (-peercache) because a PUT body cannot be validated
		// against its content-address key — any client that reaches the
		// endpoint can inject verdicts — so it is mounted only where the
		// operator has decided the network (plus -cachesecret) bounds
		// who that is.
		mux.Handle("/cache/entry/", http.StripPrefix("/cache/entry", cache.HTTPHandler(cfg.Cache, cfg.CacheSecret)))
	}

	// A role flag set on another role is an error naming both, not a
	// silently dropped option.
	if len(cfg.Peers) > 0 && cfg.Role != "coordinator" {
		return nil, fmt.Errorf("role %s: -peers is read only by the coordinator role", cfg.Role)
	}
	if cfg.FleetSlots != 0 && cfg.Role != "worker" {
		return nil, fmt.Errorf("role %s: -fleetslots is read only by the worker role (a coordinator's credit comes from each worker's /fleet/health slots)", cfg.Role)
	}
	switch cfg.Role {
	case "standalone":
	case "worker":
		s.fleetWorker = fleet.NewWorker(fleet.WorkerOptions{
			Slots:   cfg.FleetSlots,
			Cache:   resultCache(cfg.Cache),
			MaxBody: cfg.MaxBody,
		})
		// The worker admits units by its slots alone: the credit the
		// coordinator dispatches against is exactly what /fleet/health
		// advertises, so no second gate may shed below it.
		mux.HandleFunc("POST /fleet/work", s.fleetWorker.HandleWork)
		mux.HandleFunc("GET /fleet/health", s.fleetWorker.HandleHealth)
	case "coordinator":
		// A nil injector returns the base transport unwrapped.
		dispatchClient := &http.Client{Transport: cfg.Chaos.Transport("fleet.dispatch", fleet.DispatchTransport())}
		coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
			Workers:     cfg.Peers,
			Cache:       resultCache(cfg.Cache),
			UnitTimeout: cfg.MaxTimeout,
			Client:      dispatchClient,
		})
		if err != nil {
			return nil, fmt.Errorf("role coordinator: %w (set -peers)", err)
		}
		s.coord = coord
		mux.HandleFunc("GET /fleet/status", s.handleFleetStatus)
	default:
		return nil, fmt.Errorf("unknown role %q (want standalone|coordinator|worker)", cfg.Role)
	}

	s.handler = s.instrument(mux)
	return s, nil
}

// handleFleetStatus reports the coordinator's dispatch counters plus a
// live health probe of every worker.
func (s *server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	st := s.coord.Stats()
	st.Workers = s.coord.Health(r.Context())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// readBody slurps a size-capped request body. It answers a failure
// itself: 413 for an over-limit body, so clients do not misreport size
// limits as malformed documents, and 400 for any other read error.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("reading body: %w", err))
	}
	return data, err == nil
}

func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	scenario, err := engine.DecodeScenario(body)
	if err != nil {
		if isResumeRequest(body) {
			s.handleResume(w, r, body)
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q := params(r, "checkpoint", "engine", "workers", "runs", "seed", "timeout")
	if q.bool("checkpoint") {
		s.handleCheckpoint(w, r, scenario)
		return
	}
	eng := q.engine(q.workers())
	ctx, cancel := q.context(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	defer cancel()
	if q.err != nil {
		httpError(w, http.StatusBadRequest, q.err)
		return
	}
	res := engine.VerifyCached(ctx, eng, scenario, resultCache(s.cfg.Cache))
	data, err := engine.EncodeResult(&res)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// isResumeRequest tells a resume body ({"resume": token, ...}) among
// the bodies that are not scenario documents. A scenario document never
// carries a "resume" key — the strict scenario codec rejects one — so a
// body is probed only after it failed to decode as a scenario, and a
// non-empty resume field is unambiguous.
func isResumeRequest(body []byte) bool {
	var probe struct {
		Resume string `json:"resume"`
	}
	return json.Unmarshal(body, &probe) == nil && probe.Resume != ""
}

// handleResume continues a budget-capped /verify run from a stored
// checkpoint token, optionally raising the max_states budget. Tokens
// are single use; an unknown (spent, evicted, or fabricated) token is
// a 404 and the client re-verifies from scratch.
func (s *server) handleResume(w http.ResponseWriter, r *http.Request, body []byte) {
	var req struct {
		Resume    string `json:"resume"`
		MaxStates int    `json:"max_states"`
	}
	// The body and the query parameters are checked before the
	// single-use token is spent: a typo resumes nothing.
	if err := engine.StrictUnmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("resume request: %w", err))
		return
	}
	if req.MaxStates < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("resume request: max_states %d is negative (omit it to keep the checkpoint's budget)", req.MaxStates))
		return
	}
	q := params(r, "workers", "timeout")
	eng := engine.Explicit{Workers: q.workers()}
	if eng.Workers > engine.MaxWorkers {
		// An error result would come back only after the token is spent.
		q.fail(fmt.Errorf("workers %d: at most %d", eng.Workers, engine.MaxWorkers))
	}
	ctx, cancel := q.context(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	defer cancel()
	if q.err != nil {
		httpError(w, http.StatusBadRequest, q.err)
		return
	}
	cp, ok := s.resumes.take(req.Resume)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown or expired resume token %q (tokens are single use and the table is bounded; re-verify from scratch)", req.Resume))
		return
	}
	scenario := cp.Scenario
	if req.MaxStates > 0 {
		scenario.Explore.MaxStates = req.MaxStates
	}
	res, next := eng.VerifyResumable(ctx, scenario, cp)
	s.writeResumable(w, res, next)
}

// handleCheckpoint serves /verify?checkpoint=1: the explicit engine,
// whose budget-capped run comes back with a resume token.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request, scenario engine.Scenario) {
	q := params(r, "checkpoint", "engine", "workers", "timeout")
	if kind := q.str("engine", "auto"); kind != "auto" && kind != "explicit" {
		q.fail(fmt.Errorf("?checkpoint=1 requires the explicit engine, not %q", kind))
	}
	eng := engine.Explicit{Workers: q.workers()}
	ctx, cancel := q.context(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	defer cancel()
	if q.err != nil {
		httpError(w, http.StatusBadRequest, q.err)
		return
	}
	res, cp := eng.VerifyResumable(ctx, scenario, nil)
	s.writeResumable(w, res, cp)
}

// writeResumable writes a checkpoint-aware /verify response: the
// result document wrapped in an envelope that carries a resume token
// when the run stopped on its state budget (absent when it concluded).
func (s *server) writeResumable(w http.ResponseWriter, res engine.Result, cp *engine.Checkpoint) {
	data, err := engine.EncodeResult(&res)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	env := struct {
		Resume string          `json:"resume,omitempty"`
		Result json.RawMessage `json:"result"`
	}{Result: data}
	if cp != nil {
		env.Resume = s.resumes.put(cp)
	}
	w.Header().Set("Content-Type", "application/json")
	out, err := json.Marshal(env)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(append(out, '\n'))
}

// resultCache adapts the optional *cache.Cache to the engine's cache
// interface without smuggling a typed nil into it.
func resultCache(c *cache.Cache) engine.ResultCache {
	if c == nil {
		return nil
	}
	return c
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	// The whole grid is decoded and validated before the first byte of
	// the reply: a bad cell is a 400, never a truncated stream.
	sweep, err := engine.DecodeSweep(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Per-scenario engines stay serial, which keeps sweep cache keys
	// independent of the pool size.
	q := params(r, "engine", "runs", "seed", "timeout")
	eng := q.engine(0)
	ctx, cancel := q.context(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	defer cancel()
	if q.err != nil {
		httpError(w, http.StatusBadRequest, q.err)
		return
	}

	// One scheduler serves every role; a coordinator's runs each cell on
	// a fleet worker (pool sized by the fleet's credit, not -workers)
	// instead of in this process. Result bytes, and the summary's but for
	// its wall, are the same, so clients need not know which served them.
	var runner *engine.Runner
	if s.coord != nil {
		runner = s.coord.Runner(ctx, eng)
	} else {
		runner = engine.NewRunner(engine.RunnerOptions{
			Workers: s.cfg.Workers,
			Engine:  eng,
			Cache:   resultCache(s.cfg.Cache),
		})
	}

	// NDJSON: one result per line as soon as it completes, then one
	// summary line. The lines arrive encoded by the pool workers.
	stream := startNDJSON(w, cancel, "sweep")
	results := make([]engine.Result, sweep.Len())
	start := time.Now()
	streamLines(stream, runner.StreamSweep(ctx, sweep), func(l engine.ResultLine) (string, []byte, error) {
		results[l.Result.Index] = l.Result
		return l.Result.Scenario, l.Data, l.Err
	})
	sum := engine.Summarize(results)
	sum.Wall = time.Since(start)
	stream.summary(engine.EncodeSummary(&sum))
}

// ndjsonStream is the scaffolding of /sweep's NDJSON reply: set the
// content type, write one line per completed unit of work, and
// finish with one {"summary": ...} line. Failures after the first byte
// can only be reported by truncating the stream, so on a write or
// encode error the stream aborts the batch (cancelling its context) but
// keeps consuming lines silently — the producer's worker pool must be
// drained to exit — and the missing summary line tells the client the
// request did not complete.
type ndjsonStream struct {
	w       http.ResponseWriter
	flusher http.Flusher
	cancel  context.CancelFunc
	name    string // endpoint name for log lines
	aborted bool
}

func startNDJSON(w http.ResponseWriter, cancel context.CancelFunc, name string) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	return &ndjsonStream{w: w, flusher: flusher, cancel: cancel, name: name}
}

// write buffers one NDJSON line; label identifies the unit of work in
// the abort log. A nil data with non-nil err aborts the stream.
func (s *ndjsonStream) write(label string, data []byte, err error) {
	if s.aborted {
		return // draining
	}
	if err == nil {
		_, err = s.w.Write(append(data, '\n'))
	}
	if err != nil {
		slog.Error("aborting stream", "endpoint", s.name, "at", label, "err", err)
		s.aborted = true
		s.cancel()
	}
}

// flush sends what write has buffered to the client.
func (s *ndjsonStream) flush() {
	if s.flusher != nil && !s.aborted {
		s.flusher.Flush()
	}
}

// streamLines writes one line per item of a batch's result channel, in
// arrival order, flushing whenever no further item is already waiting:
// a slow batch still delivers every line the moment it exists, a fast
// one (a sweep of cache hits) pays one write syscall per burst instead
// of one per line. encode runs here, on the single consumer, so it may
// also collect the items.
func streamLines[T any](s *ndjsonStream, items <-chan T, encode func(T) (label string, data []byte, err error)) {
	for item := range items {
		s.write(encode(item))
		if len(items) == 0 {
			s.flush()
		}
	}
}

// summary finishes an unaborted stream with the {"summary": ...} line.
func (s *ndjsonStream) summary(data []byte, err error) {
	if s.aborted {
		return
	}
	if err != nil {
		slog.Error("encoding summary", "endpoint", s.name, "err", err)
		return
	}
	s.w.Write([]byte(`{"summary":`))
	s.w.Write(data)
	s.w.Write([]byte("}\n"))
}

func (s *server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.cfg.Cache == nil {
		io.WriteString(w, `{"enabled":false}`+"\n")
		return
	}
	json.NewEncoder(w).Encode(s.cfg.Cache.Stats())
}
