package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// ---- work unit codec ----

// EncodeWorkUnit renders one dispatchable unit: engine.EncodeWorkUnit.
// A custom engine implementation has no spec, so its units are not
// dispatchable; the coordinator runs those locally.
func EncodeWorkUnit(index int, eng engine.Engine, s *engine.Scenario) ([]byte, error) {
	return engine.EncodeWorkUnit(index, eng, s)
}

// DecodeWorkUnit parses a work unit back into its parts in one strict
// pass: engine.DecodeWorkUnit.
func DecodeWorkUnit(data []byte) (index int, eng engine.Engine, s engine.Scenario, err error) {
	return engine.DecodeWorkUnit(data)
}

// ---- worker ----

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Slots bounds concurrently executing work requests, each of 1 to
	// maxBatch units run in order (0 = one per CPU). Requests beyond the
	// limit are rejected with 429 so the coordinator re-dispatches their
	// units; the worker never queues.
	Slots int
	// Cache, when non-nil, is the worker's result cache. Point it at a
	// layered cache with a RemoteURL (internal/cache) and every
	// conclusive verdict this worker computes warms the whole fleet.
	Cache engine.ResultCache
	// MaxBody caps a work-unit request body (default 32 MiB).
	MaxBody int64
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Slots <= 0 {
		o.Slots = runtime.GOMAXPROCS(0)
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 32 << 20
	}
	return o
}

// Worker executes work units for a coordinator. It is an http.Handler
// factory, not a server: mount Handler (or HandleWork/HandleHealth under
// its method patterns) on whatever mux the process serves.
type Worker struct {
	opts WorkerOptions
	sem  chan struct{}

	busy     atomic.Int64
	units    atomic.Uint64
	rejected atomic.Uint64
}

// WorkerStats is the /fleet/health document.
type WorkerStats struct {
	OK bool `json:"ok"`
	// Busy and Slots describe the admission state right now.
	Busy  int `json:"busy"`
	Slots int `json:"slots"`
	// Units counts completed work units, Rejected over-capacity 429s
	// (one per request, whatever it carried).
	Units    uint64 `json:"units"`
	Rejected uint64 `json:"rejected"`
}

// NewWorker builds a worker.
func NewWorker(o WorkerOptions) *Worker {
	o = o.withDefaults()
	return &Worker{opts: o, sem: make(chan struct{}, o.Slots)}
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		OK:       true,
		Busy:     int(w.busy.Load()),
		Slots:    w.opts.Slots,
		Units:    w.units.Load(),
		Rejected: w.rejected.Load(),
	}
}

// Handler returns the worker's endpoints on a fresh mux:
// POST /fleet/work and GET /fleet/health (any other method: 405).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/work", w.HandleWork)
	mux.HandleFunc("GET /fleet/health", w.HandleHealth)
	return mux
}

func writeJSONError(rw http.ResponseWriter, code int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
}

// HandleWork verifies the work units of one request body, in order, on
// one slot: 1 to maxBatch units, one per line as a coordinator writes
// them (engine.DecodeWorkUnits; a unit that does not decode refuses the
// body before any unit runs). The verification runs under the request
// context — further bounded by the coordinator's X-Fleet-Deadline-Ms
// budget when present — so a coordinator timing out (or draining)
// cancels the units cooperatively, and a dispatch whose deadline has
// passed cannot keep burning worker CPU even if the connection lingers.
// The response is one result line per unit, in the units' order, under
// one X-Fleet-Checksum over the exact body bytes so the coordinator can
// reject in-transit corruption, and X-Fleet-Work-Ns states the time the
// units took here. A one-unit body and its reply are a single unit and
// its line. Mount it for POST only, as Handler does.
func (w *Worker) HandleWork(rw http.ResponseWriter, r *http.Request) {
	select {
	case w.sem <- struct{}{}:
	default:
		w.rejected.Add(1)
		rw.Header().Set("Retry-After", "1")
		writeJSONError(rw, http.StatusTooManyRequests, fmt.Errorf("worker at capacity (%d slots busy)", w.opts.Slots))
		return
	}
	defer func() { <-w.sem }()
	w.busy.Add(1)
	defer w.busy.Add(-1)

	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, w.opts.MaxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSONError(rw, status, err)
		return
	}
	units, err := engine.DecodeWorkUnits(body, maxBatch)
	if err != nil {
		writeJSONError(rw, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if ms, err := strconv.ParseInt(r.Header.Get(deadlineHeader), 10, 64); err == nil && ms > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	var reply []byte
	for _, u := range units {
		res := engine.VerifyCached(ctx, u.Engine, u.Scenario, w.opts.Cache)
		res.Index = u.Index
		data, err := engine.EncodeResult(&res)
		if err != nil {
			writeJSONError(rw, http.StatusInternalServerError, err)
			return
		}
		reply = append(append(reply, data...), '\n')
	}
	w.units.Add(uint64(len(units)))
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set(resultChecksumHeader, engine.Digest(reply))
	rw.Header().Set(workHeader, strconv.FormatInt(int64(time.Since(start)), 10))
	rw.Write(reply)
}

// HandleHealth is the heartbeat the coordinator probes.
func (w *Worker) HandleHealth(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(w.Stats())
}
