package serve

import (
	"math"
	"sync"
	"time"

	"stac/internal/obs"
)

// cacheKey quantises a prediction request to 1e-3 in every continuous
// dimension: the short-term model's inputs (loads, timeouts) move on
// coarse grids in practice, so physically identical consults collapse
// to one key without perturbing distinguishable ones.
type cacheKey struct {
	service                        string
	load, timeout, pload, ptimeout int32
	privateWays, sharedWays        int32
	full                           bool
}

func quantise(v float64) int32 {
	if math.IsInf(v, 1) {
		return math.MaxInt32
	}
	return int32(math.Round(v * 1e3))
}

// predCache memoises predictions with a two-generation rotation: when
// the hot generation reaches capacity it becomes the cold one and a
// fresh hot map starts. Reads hit both; entries untouched for two
// rotations fall out. This keeps eviction O(1) per insert with no
// per-entry bookkeeping on the read path. Every generation starts empty
// and grows with the distinct keys it stores, so the cache holds memory
// in proportion to traffic rather than to capacity.
type predCache struct {
	mu        sync.RWMutex
	capacity  int
	hot, cold map[cacheKey]PredictResponse

	hits   *obs.Counter
	misses *obs.Counter
}

func newPredCache(capacity int, reg *obs.Registry) *predCache {
	if capacity <= 0 {
		return nil
	}
	return &predCache{
		capacity: capacity,
		hot:      make(map[cacheKey]PredictResponse),
		hits:     reg.Counter("serve/cache/hits"),
		misses:   reg.Counter("serve/cache/misses"),
	}
}

func (c *predCache) get(k cacheKey) (PredictResponse, bool) {
	c.mu.RLock()
	r, ok := c.hot[k]
	if !ok && c.cold != nil {
		r, ok = c.cold[k]
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return r, ok
}

func (c *predCache) put(k cacheKey, r PredictResponse) {
	c.mu.Lock()
	if len(c.hot) >= c.capacity {
		c.cold = c.hot
		c.hot = make(map[cacheKey]PredictResponse)
	}
	c.hot[k] = r
	c.mu.Unlock()
}

// clear empties the cache (after a model reload: cached predictions
// belong to the retired version).
func (c *predCache) clear() {
	c.mu.Lock()
	c.hot = make(map[cacheKey]PredictResponse)
	c.cold = nil
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
