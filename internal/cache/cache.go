package cache

import (
	"container/list"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/engine"
)

// Options configures a Cache.
type Options struct {
	// Capacity bounds the in-memory entry count; at most Capacity
	// results are held before least-recently-used eviction. 0 defaults
	// to 4096; negative means unbounded.
	Capacity int
	// Dir, when non-empty, enables the on-disk persistence layer in
	// that directory (created if absent).
	Dir string
	// RemoteURL, when non-empty, enables the remote/peer tier: Gets
	// that miss both memory and disk are fetched from the peer cache
	// served at this URL (see HTTPHandler), single-flighted per key,
	// and every Put is propagated — asynchronously, off the
	// verification hot path — so one node's conclusive verdict warms
	// the whole fleet. Remote failures degrade to misses.
	RemoteURL string
	// RemoteSecret, when non-empty, is sent with every peer request in
	// the X-Cache-Auth header; it must match the secret the peer's
	// HTTPHandler was built with.
	RemoteSecret string
	// Chaos, when non-nil, arms deterministic fault injection on the
	// cache's infrastructure edges: disk-tier writes pass through
	// Injector.Mangle (site "cache.disk") and peer round trips through
	// Injector.Transport (site "cache.peer"). The checksum envelope and
	// quarantine-on-corruption paths exist so that none of these
	// injections can ever surface as a wrong cached verdict.
	Chaos *chaos.Injector
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Entries and Capacity describe the in-memory tier.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits counts Gets answered from memory, DiskHits those answered
	// from the persistence layer, RemoteHits those answered by the
	// peer tier, Misses those answered by none.
	Hits       uint64 `json:"hits"`
	DiskHits   uint64 `json:"disk_hits"`
	RemoteHits uint64 `json:"remote_hits"`
	Misses     uint64 `json:"misses"`
	// Puts counts stores, RemotePuts those successfully propagated to
	// the peer tier, Evictions LRU removals from memory.
	Puts       uint64 `json:"puts"`
	RemotePuts uint64 `json:"remote_puts"`
	Evictions  uint64 `json:"evictions"`
	// DiskErrors counts persistence failures, RemoteErrors peer-tier
	// failures — network errors, bad responses, and propagations
	// dropped because the async put queue was full (the cache degrades
	// to the surviving tiers rather than failing the verification).
	DiskErrors   uint64 `json:"disk_errors"`
	RemoteErrors uint64 `json:"remote_errors"`
	// CorruptEntries counts disk-tier files quarantined on Get because
	// their checksum envelope or payload failed validation — each one
	// was deleted and served as a miss (also counted in DiskErrors), so
	// corrupt bytes degrade to recompute, never to a wrong verdict.
	CorruptEntries uint64 `json:"corrupt_entries"`
}

// Cache is a content-addressed Result store implementing
// engine.ResultCache.
type Cache struct {
	capacity     int
	dir          string
	remoteURL    string
	remoteSecret string
	remoteClient *http.Client
	chaos        *chaos.Injector

	mu    sync.Mutex
	ll    *list.List // most recent at front; values are *entry
	idx   map[string]*list.Element
	stats Stats

	// flights single-flights remote fetches per key (remote.go).
	flightMu sync.Mutex
	flights  map[string]*flight

	// putCh feeds the background sender that propagates Puts to the
	// peer; putWG tracks queued-but-unsent propagations (remote.go).
	putCh chan remotePut
	putWG sync.WaitGroup
}

type entry struct {
	key string
	res engine.Result
}

// New builds a cache. With a Dir set, the directory is created
// immediately so configuration errors surface at startup rather than on
// the first Put.
func New(o Options) (*Cache, error) {
	if o.Capacity == 0 {
		o.Capacity = 4096
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	client := defaultRemoteClient()
	client.Transport = o.Chaos.Transport("cache.peer", nil) // the plain transport without an injector
	c := &Cache{
		capacity:     o.Capacity,
		dir:          o.Dir,
		remoteURL:    strings.TrimSuffix(o.RemoteURL, "/"),
		remoteSecret: o.RemoteSecret,
		remoteClient: client,
		chaos:        o.Chaos,
		ll:           list.New(),
		idx:          map[string]*list.Element{},
		flights:      map[string]*flight{},
	}
	if c.remoteURL != "" {
		c.putCh = make(chan remotePut, remotePutQueue)
		go c.remotePutSender()
	}
	return c, nil
}

// Get returns the cached result for key. Tiers are consulted in
// latency order — memory, then disk, then the remote peer — and a hit
// in a lower tier is promoted into the tiers above it.
func (c *Cache) Get(key string) (engine.Result, bool) {
	if res, ok := c.getLocal(key); ok {
		return res, true
	}
	if c.remoteURL != "" {
		// getRemote promotes a hit into the local tiers itself — the
		// fetching caller only, so coalesced waiters don't repeat the
		// insert and disk write.
		if res, ok := c.getRemote(key); ok {
			return res, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return engine.Result{}, false
}

// getLocal consults the memory and disk tiers only; the peer HTTP
// handler serves from it so chained peers can never recurse. Note that
// a full miss here is not counted in Misses — Get owns that counter.
func (c *Cache) getLocal(key string) (engine.Result, bool) {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		res := el.Value.(*entry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if res, ok := c.loadDisk(key); ok {
			c.mu.Lock()
			c.stats.DiskHits++
			c.insertLocked(key, res)
			c.mu.Unlock()
			return res, true
		}
	}
	return engine.Result{}, false
}

// Put stores the result under key in every tier: memory (with LRU
// eviction beyond capacity), disk when enabled, and the remote peer
// when configured. Peer propagation is asynchronous — Put never waits
// on the network, so a slow or wedged peer cannot stall verification;
// a full propagation queue drops the entry (counted in RemoteErrors),
// and it is simply recomputed by whoever misses it.
func (c *Cache) Put(key string, res engine.Result) {
	c.putLocal(key, res)
	if c.remoteURL != "" {
		c.enqueueRemotePut(key, res)
	}
}

// putLocal stores into the memory and disk tiers only (the peer HTTP
// handler stores through it, which is what keeps peer topologies from
// re-propagating entries forever).
func (c *Cache) putLocal(key string, res engine.Result) {
	c.mu.Lock()
	c.stats.Puts++
	c.insertLocked(key, res)
	c.mu.Unlock()
	c.persistDisk(key, res)
}

// persistDisk writes the entry to the disk tier, counting failures.
func (c *Cache) persistDisk(key string, res engine.Result) {
	if c.dir == "" {
		return
	}
	if err := c.storeDisk(key, res); err != nil {
		c.mu.Lock()
		c.stats.DiskErrors++
		c.mu.Unlock()
	}
}

func (c *Cache) insertLocked(key string, res engine.Result) {
	if el, ok := c.idx[key]; ok {
		el.Value.(*entry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&entry{key: key, res: res})
	for c.capacity > 0 && c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.idx, last.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.ll.Len()
	st.Capacity = c.capacity
	return st
}

// path maps a key (a hex content hash) to its file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// diskMagic opens the envelope (engine.Seal) of a disk-tier entry. The
// cache key addresses the *question*, so the payload needs its own
// digest for the stored answer to be validatable at all.
const diskMagic = "MCACHK1 "

func (c *Cache) loadDisk(key string) (engine.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return engine.Result{}, false
	}
	payload, err := engine.Unseal(diskMagic, data)
	if err == nil {
		var res engine.Result
		if res, err = decodeEntry(payload); err == nil {
			return res, true
		}
	}
	// Corrupt, truncated, or foreign bytes, or a verdict the cache never
	// stores: quarantine the file and degrade to a miss. The entry is
	// recomputed and rewritten by whoever needed it — a flipped bit on
	// disk can cost a recompute but can never surface as a cached
	// verdict.
	os.Remove(c.path(key))
	c.mu.Lock()
	c.stats.DiskErrors++
	c.stats.CorruptEntries++
	c.mu.Unlock()
	return engine.Result{}, false
}

// decodeEntry decodes an entry read from disk or received from a peer
// and holds it to the rule RunnerOptions.Cache states: only conclusive
// verdicts are cached. An entry of any other status is refused like
// bytes that do not decode.
func decodeEntry(data []byte) (engine.Result, error) {
	res, err := engine.DecodeResult(data)
	if err != nil {
		return engine.Result{}, err
	}
	if res.Status != engine.StatusHolds && res.Status != engine.StatusViolated {
		return engine.Result{}, fmt.Errorf("cache: status %q is not a cacheable verdict: only holds and violated are cached", res.Status)
	}
	return res, nil
}

func (c *Cache) storeDisk(key string, res engine.Result) error {
	payload, err := engine.EncodeResult(&res)
	if err != nil {
		return err
	}
	data := c.chaos.Mangle("cache.disk", engine.Seal(diskMagic, payload))
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Rename is atomic within the directory: readers see either the old
	// file or the complete new one, never a partial write.
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// The compile-time check that Cache satisfies the Runner's cache hook.
var _ engine.ResultCache = (*Cache)(nil)
