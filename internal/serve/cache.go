package serve

import (
	"math"
	"sync"
	"time"

	"stac/internal/core"
	"stac/internal/obs"
)

// cacheKey quantises a prediction request to 1e-3 in every continuous
// dimension: the short-term model's inputs (loads, timeouts) move on
// coarse grids in practice, so physically identical consults collapse
// to one key without perturbing distinguishable ones. The service is
// its index in the version's service list and the way counts, which
// validWays bounds to [0, cat.MaxWays], are bytes, so a key is 24 bytes
// and holds no pointer: the collector never scans the cache's maps.
// full selects the map the key is looked up in.
type cacheKey struct {
	load, timeout, pload, ptimeout int32
	service                        int32
	privateWays, sharedWays        uint8
	full                           bool
}

func quantise(v float64) int32 {
	if math.IsInf(v, 1) {
		return math.MaxInt32
	}
	return int32(math.Round(v * 1e3))
}

// generations is one map under a two-generation rotation: when the hot
// generation reaches capacity it becomes the cold one and a fresh hot
// map starts. Reads hit both; entries untouched for two rotations fall
// out. This keeps eviction O(1) per insert with no per-entry
// bookkeeping on the read path. Every generation starts empty and grows
// with the distinct keys it stores, so the cache holds memory in
// proportion to traffic rather than to capacity.
type generations[V any] struct {
	hot, cold map[cacheKey]V
}

func (g *generations[V]) get(k cacheKey) (V, bool) {
	v, ok := g.hot[k]
	if !ok {
		v, ok = g.cold[k]
	}
	return v, ok
}

func (g *generations[V]) put(k cacheKey, v V, capacity int) {
	if len(g.hot) >= capacity {
		g.cold, g.hot = g.hot, nil
	}
	if g.hot == nil {
		g.hot = make(map[cacheKey]V)
	}
	g.hot[k] = v
}

// predCache memoises the predictions of one model version. The fast
// path stores only the effective allocation; "full" requests store the
// whole three-stage prediction in a second map under the same rotation
// and capacity. Neither stores what the request already says (the
// service name) or what the acquired version does (its number): the
// engine fills those in on a hit.
type predCache struct {
	mu       sync.RWMutex
	capacity int
	// version is the model version every entry belongs to. A request
	// still running on a retired version neither reads nor writes.
	version int
	ea      generations[float64]
	full    generations[core.Prediction]

	hits   *obs.Counter
	misses *obs.Counter
}

func newPredCache(capacity int, reg *obs.Registry) *predCache {
	if capacity <= 0 {
		return nil
	}
	return &predCache{
		capacity: capacity,
		hits:     reg.Counter("serve/cache/hits"),
		misses:   reg.Counter("serve/cache/misses"),
	}
}

// get returns the prediction version made for k, if the cache holds
// it. A fast-path entry carries only EA.
func (c *predCache) get(version int, k cacheKey) (p core.Prediction, ok bool) {
	c.mu.RLock()
	if version == c.version {
		if k.full {
			p, ok = c.full.get(k)
		} else {
			p.EA, ok = c.ea.get(k)
		}
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return p, ok
}

// put stores version's prediction for k; one from any version but the
// cache's is dropped.
func (c *predCache) put(version int, k cacheKey, p core.Prediction) {
	c.mu.Lock()
	if version == c.version {
		if k.full {
			c.full.put(k, p, c.capacity)
		} else {
			c.ea.put(k, p.EA, c.capacity)
		}
	}
	c.mu.Unlock()
}

// clear empties the cache and scopes it to a newly installed version:
// the retired version's entries, and any it would still store, belong
// to another model. A version older than the cache's, from a load that
// finished behind a newer one, changes nothing.
func (c *predCache) clear(version int) {
	c.mu.Lock()
	if version > c.version {
		c.version = version
		c.ea = generations[float64]{}
		c.full = generations[core.Prediction]{}
	}
	c.mu.Unlock()
}

// tokenBucket is the admission rate limit: rate tokens/second with the
// given burst. A nil bucket admits everything.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

func (t *tokenBucket) allow() bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	now := time.Now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	t.last = now
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	if t.tokens < 1 {
		t.mu.Unlock()
		return false
	}
	t.tokens--
	t.mu.Unlock()
	return true
}
