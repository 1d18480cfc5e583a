package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config holds the per-fault-model probabilities and shape parameters
// for one Injector. All probabilities are in [0, 1]; a zero value
// disables that fault model. The zero Config injects nothing.
type Config struct {
	// Seed anchors every per-site decision stream. Two Injectors built
	// from the same Config draw identical fault schedules at every site.
	Seed int64

	// Crash is the per-request probability of a synthetic connection
	// failure before the request reaches the server (the dial/reset
	// class of worker crash).
	Crash float64
	// Hang is the per-request probability of the transport blocking
	// until the request context is cancelled — a wedged worker that
	// accepts the connection and never answers.
	Hang float64
	// Slow is the per-request probability of an added latency stall,
	// drawn uniformly from (0, SlowMax].
	Slow float64
	// SlowMax bounds the injected latency for the Slow model
	// (default 50ms when Slow is armed and SlowMax is zero).
	SlowMax time.Duration

	// Truncate is the per-response probability of cutting the response
	// body at a random prefix length.
	Truncate float64
	// Corrupt is the per-response probability of flipping one random
	// bit in the response body.
	Corrupt float64

	// Storm is the per-request probability of starting an admission
	// storm: a burst of StormLen consecutive synthetic 429/503 answers
	// at this site, 429s carrying Retry-After. The burst counter is
	// request-driven, never wall-clock-driven, so storms replay
	// identically regardless of machine speed.
	Storm float64
	// StormLen is the number of responses per storm burst (default 1).
	StormLen int

	// Partial is the per-write probability of truncating bytes headed
	// for a file (disk cache entries, checkpoint files) at a random
	// prefix length.
	Partial float64
	// Flip is the per-write probability of flipping one random bit in
	// bytes headed for a file.
	Flip float64
}

// Armed reports whether any fault model has a non-zero probability.
func (c Config) Armed() bool {
	return c.Crash > 0 || c.Hang > 0 || c.Slow > 0 || c.Truncate > 0 ||
		c.Corrupt > 0 || c.Storm > 0 || c.Partial > 0 || c.Flip > 0
}

// ParseSpec parses a comma-separated chaos spec of key=value pairs into
// a Config, e.g.
//
//	seed=7,crash=0.1,hang=0.02,slow=0.2,slowmax=50ms,truncate=0.05,corrupt=0.05,storm=0.05,stormlen=4,partial=0.1,flip=0.1
//
// Keys mirror the Config fields (lower-cased); probabilities must be in
// [0, 1], slowmax is a Go duration, stormlen a positive integer. Every
// key is optional; unknown keys are errors so typos cannot silently
// disarm a fault model.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: spec entry %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "crash":
			cfg.Crash, err = parseProb(val)
		case "hang":
			cfg.Hang, err = parseProb(val)
		case "slow":
			cfg.Slow, err = parseProb(val)
		case "slowmax":
			cfg.SlowMax, err = time.ParseDuration(val)
			if err == nil && cfg.SlowMax < 0 {
				err = fmt.Errorf("negative duration")
			}
		case "truncate":
			cfg.Truncate, err = parseProb(val)
		case "corrupt":
			cfg.Corrupt, err = parseProb(val)
		case "storm":
			cfg.Storm, err = parseProb(val)
		case "stormlen":
			var n int
			n, err = strconv.Atoi(val)
			if err == nil && n < 1 {
				err = fmt.Errorf("must be >= 1")
			}
			cfg.StormLen = n
		case "partial":
			cfg.Partial, err = parseProb(val)
		case "flip":
			cfg.Flip, err = parseProb(val)
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: spec key %q: value %q: %v", key, val, err)
		}
	}
	return cfg, nil
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // NaN fails both, and would disarm the fault
		return 0, fmt.Errorf("probability out of [0, 1]")
	}
	return p, nil
}

// Injector draws seeded fault decisions from independent per-site
// splitmix64 streams and counts every injection it performs. All
// methods are safe for concurrent use, and all are safe on a nil
// receiver (a nil Injector injects nothing), so call sites can thread
// one unconditionally.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*siteStream
	counts  map[string]uint64
}

// siteStream is one injection site's private decision state: its
// splitmix64 position plus the remaining length of an active storm
// burst.
type siteStream struct {
	state uint64
	storm int
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:     cfg,
		streams: make(map[string]*siteStream),
		counts:  make(map[string]uint64),
	}
}

// Config returns the configuration the Injector was built from.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Counts returns a copy of the injection counters, keyed
// "site/kind" (e.g. "fleet.dispatch/crash"), for /metrics export.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// CountKeys returns the counter keys in sorted order, so exports are
// deterministic.
func CountKeys(counts map[string]uint64) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Mangle applies the Partial/Flip file-write fault models to data for a
// write at site, returning the (possibly corrupted) bytes to actually
// write. The input slice is never modified. With both models disarmed —
// or on a nil Injector — data is returned unchanged.
func (in *Injector) Mangle(site string, data []byte) []byte {
	if in == nil || len(data) == 0 {
		return data
	}
	out := data
	if in.cfg.Partial > 0 && in.roll(site) < in.cfg.Partial {
		k := int(in.draw(site) % uint64(len(out)))
		out = append([]byte(nil), out[:k]...)
		in.count(site, "partial")
	}
	if in.cfg.Flip > 0 && len(out) > 0 && in.roll(site) < in.cfg.Flip {
		if &out[0] == &data[0] {
			out = append([]byte(nil), out...)
		}
		bit := int(in.draw(site) % uint64(len(out)*8))
		out[bit/8] ^= 1 << (bit % 8)
		in.count(site, "flip")
	}
	return out
}

// draw advances site's stream and returns the next 64-bit value.
func (in *Injector) draw(site string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return splitmix64(&in.streamLocked(site).state)
}

// roll advances site's stream and returns a uniform float64 in [0, 1).
func (in *Injector) roll(site string) float64 {
	return toProb(in.draw(site))
}

// count records one injection of kind at site.
func (in *Injector) count(site, kind string) {
	in.mu.Lock()
	in.counts[site+"/"+kind]++
	in.mu.Unlock()
}

// streamLocked returns site's stream, creating it with a seed mixed
// from (Config.Seed, site). Callers hold in.mu.
func (in *Injector) streamLocked(site string) *siteStream {
	s, ok := in.streams[site]
	if !ok {
		state := uint64(in.cfg.Seed)
		// Fold the site name in through the same finalizer so distinct
		// sites get decorrelated streams even for adjacent seeds.
		for i := 0; i < len(site); i++ {
			state += 0x9e3779b97f4a7c15 * (uint64(site[i]) + 1)
			state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
			state = (state ^ (state >> 27)) * 0x94d049bb133111eb
			state ^= state >> 31
		}
		s = &siteStream{state: state}
		in.streams[site] = s
	}
	return s
}

// splitmix64 advances *x and returns the next output of the splitmix64
// sequence — the same mixing discipline internal/gen uses for scenario
// seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// toProb maps a 64-bit draw to a uniform float64 in [0, 1).
func toProb(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}
