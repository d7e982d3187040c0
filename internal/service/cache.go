package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/core"
)

// cacheKey identifies one (series, range, options) result. Two submissions
// collide exactly when the engine would produce byte-identical results.
type cacheKey [sha256.Size]byte

// hashSeries fingerprints a series by the IEEE-754 bits of its values,
// encoding in 4 KiB chunks so the digest costs one hash.Write per block
// rather than one per sample (this runs on the synchronous submit path).
func hashSeries(values []float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [4096]byte
	for len(values) > 0 {
		chunk := values
		if len(chunk) > len(buf)/8 {
			chunk = chunk[:len(buf)/8]
		}
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		h.Write(buf[:len(chunk)*8])
		values = values[len(chunk):]
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// resultKey derives the cache key for one submission. Options are
// normalized to their effective defaults first, so an explicit TopK of 10
// and the zero value share an entry. Every field that can change the
// result bytes participates: TopK and ExclusionFactor change the pairs; P
// and RecomputeFraction change the per-length resolution and plan stats
// the result reports; Discords changes the query kind (it adds the
// discord payload and switches the engine to the full-profile plan, which
// also changes the stats). Workers is excluded — the fixed-grid contract
// makes output bit-identical at every worker count.
func resultKey(seriesHash [sha256.Size]byte, lmin, lmax int, o valmod.Options) cacheKey {
	o = normalizeOptions(o)
	h := sha256.New()
	h.Write(seriesHash[:])
	var buf [8]byte
	for _, v := range []uint64{
		uint64(lmin), uint64(lmax),
		uint64(o.TopK), uint64(o.P), uint64(o.ExclusionFactor),
		math.Float64bits(o.RecomputeFraction),
		uint64(o.Discords),
	} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var out cacheKey
	h.Sum(out[:0])
	return out
}

// normalizeOptions substitutes the engine's effective defaults via
// core.Config.Fill — the same code the engine runs on entry — so keying
// happens on exactly the configuration that executes.
func normalizeOptions(o valmod.Options) valmod.Options {
	cfg := core.Config{
		TopK:              o.TopK,
		P:                 o.P,
		ExclusionFactor:   o.ExclusionFactor,
		RecomputeFraction: o.RecomputeFraction,
	}
	cfg.Fill()
	o.TopK = cfg.TopK
	o.P = cfg.P
	o.ExclusionFactor = cfg.ExclusionFactor
	o.RecomputeFraction = cfg.RecomputeFraction
	return o
}

// resultCache is a mutex-guarded LRU over completed job results. Values
// are immutable once inserted; readers share them.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	res *Result
}

// newResultCache returns a cache holding up to capacity results; a
// capacity below 1 disables caching (every Get misses).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

// Get returns the cached result for key, promoting it to most recent.
func (c *resultCache) Get(key cacheKey) (*Result, bool) {
	if c.cap < 1 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting the least recently used entry when
// the cache is full.
func (c *resultCache) Put(key cacheKey, res *Result) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*cacheEntry).key)
	}
}

// Len reports the number of cached results.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
