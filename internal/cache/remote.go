package cache

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// The remote/peer tier speaks a two-verb HTTP protocol over encoded
// Result documents, addressed by cache key:
//
//	GET  {base}/{key}  -> 200 + result document | 404 (miss)
//	PUT  {base}/{key}  -> 204 (stored) | 400 (not a holds or violated verdict)
//
// A cache with Options.RemoteURL set consults the peer after memory
// and disk both miss, and propagates every Put (asynchronously, via a
// bounded queue), so one node's conclusive verdict warms every cache
// pointed at the same peer. HTTPHandler serves the other side of the
// protocol from a cache's local tiers only — peers answer with what
// they have and never chain to their own remote, so cyclic peer
// topologies cannot recurse.
//
// Trust boundary: a cache key is the content address of the
// *question* (scenario + engine), not of the stored result, so the
// serving side cannot recompute it from a PUT body — whoever can
// reach the endpoint can store an arbitrary verdict under any key.
// The protocol is therefore for trusted fleet peers only: keep the
// endpoint off untrusted networks, and/or set a shared secret
// (Options.RemoteSecret on the dialing side, the secret argument of
// HTTPHandler on the serving side), carried in the X-Cache-Auth
// header and compared in constant time.

// authHeader carries the shared secret of a secured peer protocol.
const authHeader = "X-Cache-Auth"

// checksumHeader carries the body digest (engine.Digest) of the entry
// on both protocol verbs. The dialing side checks it on GET responses
// and the serving side on PUT bodies, so a bit flipped in transit — or
// a body sent without one — degrades to a counted error and a recompute
// instead of decoding into a wrong cached verdict.
const checksumHeader = "X-Cache-Checksum"

// remotePutQueue bounds the async propagation backlog. A healthy peer
// drains it far faster than verification fills it; against a wedged
// peer it fills once and further propagations are dropped (counted in
// RemoteErrors) instead of stalling Put.
const remotePutQueue = 64

// keyOK reports whether key looks like a content address (hex SHA-256).
// The handler rejects anything else so a crafted key can never traverse
// the disk tier's directory.
func keyOK(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// flight coalesces concurrent remote fetches of one key: the first
// caller does the HTTP round trip, the rest wait for its answer.
type flight struct {
	wg  sync.WaitGroup
	res engine.Result
	ok  bool
}

// getRemote fetches key from the peer, single-flighted per key. Only
// the fetching caller counts the hit and promotes the entry into the
// local tiers (memory, and disk so the hit survives a restart);
// waiters just share the answer.
func (c *Cache) getRemote(key string) (engine.Result, bool) {
	c.flightMu.Lock()
	if f, ok := c.flights[key]; ok {
		c.flightMu.Unlock()
		f.wg.Wait()
		return f.res, f.ok
	}
	f := &flight{}
	f.wg.Add(1)
	c.flights[key] = f
	c.flightMu.Unlock()

	f.res, f.ok = c.fetchRemote(key)
	if f.ok {
		c.mu.Lock()
		c.stats.RemoteHits++
		c.insertLocked(key, f.res)
		c.mu.Unlock()
		c.persistDisk(key, f.res)
	}

	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	f.wg.Done()
	return f.res, f.ok
}

// fetchRemote is one GET round trip, bounded by the per-request
// remote timeout so a wedged peer can only ever cost that much before
// the Get degrades. Network failures, timeouts, missing or mismatching
// checksums, malformed bodies and verdicts the cache never stores all
// degrade to a miss (counted in RemoteErrors); the entry is simply
// recomputed locally.
func (c *Cache) fetchRemote(key string) (engine.Result, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), remoteTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.remoteURL+"/"+key, nil)
	if err != nil {
		c.countRemoteError()
		return engine.Result{}, false
	}
	if c.remoteSecret != "" {
		req.Header.Set(authHeader, c.remoteSecret)
	}
	resp, err := c.remoteClient.Do(req)
	if err != nil {
		c.countRemoteError()
		return engine.Result{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return engine.Result{}, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, engine.MaxResultBytes))
	if err != nil || resp.StatusCode != http.StatusOK || engine.CheckDigest(resp.Header.Get(checksumHeader), data) != nil {
		c.countRemoteError()
		return engine.Result{}, false
	}
	res, err := decodeEntry(data)
	if err != nil {
		c.countRemoteError()
		return engine.Result{}, false
	}
	return res, true
}

// remotePut is one queued propagation.
type remotePut struct {
	key string
	res engine.Result
}

// enqueueRemotePut hands one Put to the background sender without
// blocking: the queue either takes it or the entry is dropped and
// counted. Verification latency is thereby independent of peer health.
func (c *Cache) enqueueRemotePut(key string, res engine.Result) {
	c.putWG.Add(1)
	select {
	case c.putCh <- remotePut{key: key, res: res}:
	default:
		c.putWG.Done()
		c.countRemoteError()
	}
}

// remotePutSender drains the propagation queue for the life of the
// cache, one blocking round trip at a time.
func (c *Cache) remotePutSender() {
	for p := range c.putCh {
		c.storeRemote(p.key, p.res)
		c.putWG.Done()
	}
}

// WaitRemotePuts blocks until every propagation queued so far has been
// attempted. Production code never needs it — propagation is
// fire-and-forget — but tests (and orderly shutdown) use it to observe
// the peer in a settled state.
func (c *Cache) WaitRemotePuts() {
	c.putWG.Wait()
}

// storeRemote propagates one Put to the peer, bounded by the
// per-request remote timeout.
func (c *Cache) storeRemote(key string, res engine.Result) {
	data, err := engine.EncodeResult(&res)
	if err != nil {
		c.countRemoteError()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), remoteTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.remoteURL+"/"+key, bytes.NewReader(data))
	if err != nil {
		c.countRemoteError()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(checksumHeader, engine.Digest(data))
	if c.remoteSecret != "" {
		req.Header.Set(authHeader, c.remoteSecret)
	}
	resp, err := c.remoteClient.Do(req)
	if err != nil {
		c.countRemoteError()
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, engine.MaxResultBytes))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		c.countRemoteError()
		return
	}
	c.mu.Lock()
	c.stats.RemotePuts++
	c.mu.Unlock()
}

func (c *Cache) countRemoteError() {
	c.mu.Lock()
	c.stats.RemoteErrors++
	c.mu.Unlock()
}

// HTTPHandler serves cache entries from c's local tiers (memory and
// disk) under the two-verb protocol above; mount it wherever the peer
// URL should live, e.g.
//
//	mux.Handle("/cache/entry/", http.StripPrefix("/cache/entry", cache.HTTPHandler(c, secret)))
//
// and point other nodes' Options.RemoteURL at ".../cache/entry". The
// handler never consults c's own remote tier, so peers answer from
// what they hold and chains of peers cannot loop.
//
// A non-empty secret requires every request to carry it in the
// X-Cache-Auth header (rejected 401 otherwise); an empty secret serves
// openly and is only appropriate on a network where every reachable
// client is a trusted peer — PUT bodies cannot be validated against
// their key, so an open endpoint lets any client forge cached
// verdicts (see the trust-boundary note at the top of this file).
func HTTPHandler(c *Cache, secret string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if secret != "" && subtle.ConstantTimeCompare([]byte(r.Header.Get(authHeader)), []byte(secret)) != 1 {
			writeError(w, http.StatusUnauthorized, "missing or wrong "+authHeader)
			return
		}
		key := strings.TrimPrefix(r.URL.Path, "/")
		if !keyOK(key) {
			writeError(w, http.StatusBadRequest, "bad cache key")
			return
		}
		// Verbs are switched here, not routed by a mux method pattern: a
		// mux would clean or redirect a crafted path before keyOK sees it.
		switch r.Method {
		case http.MethodGet:
			res, ok := c.getLocal(key)
			if !ok {
				writeError(w, http.StatusNotFound, "miss")
				return
			}
			data, err := engine.EncodeResult(&res)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "unencodable entry")
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(checksumHeader, engine.Digest(data))
			w.Write(data)
		case http.MethodPut:
			data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, engine.MaxResultBytes))
			if err != nil {
				status := http.StatusBadRequest
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					status = http.StatusRequestEntityTooLarge
				}
				writeError(w, status, err.Error())
				return
			}
			if err := engine.CheckDigest(r.Header.Get(checksumHeader), data); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			res, err := decodeEntry(data)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			c.putLocal(key, res)
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, PUT")
			writeError(w, http.StatusMethodNotAllowed, "GET or PUT")
		}
	})
}

// writeError answers with the {"error": msg} envelope every mcaserved
// endpoint uses, typed as JSON.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// remoteTimeout bounds each individual peer round trip — Get fetches
// and Put propagations alike — via a per-request context deadline,
// independent of the client's own timeout, so a wedged peer degrades to
// a counted miss instead of holding a fetch for the client default.
const remoteTimeout = 5 * time.Second

// defaultRemoteClient bounds every peer round trip: a slow or wedged
// peer must degrade to a local miss, not stall verification.
func defaultRemoteClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second}
}
