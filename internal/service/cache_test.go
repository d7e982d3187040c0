package service

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	valmod "github.com/seriesmining/valmod"
)

func TestResultKeyNormalizesDefaults(t *testing.T) {
	h := hashSeries([]float64{1, 2, 3})
	zero := resultKey(h, 8, 16, valmod.Options{})
	explicit := resultKey(h, 8, 16, valmod.Options{TopK: 10, P: 10, ExclusionFactor: 4, RecomputeFraction: 0.05})
	if zero != explicit {
		t.Error("explicit defaults should share the zero value's cache key")
	}
}

func TestResultKeySensitivity(t *testing.T) {
	h := hashSeries([]float64{1, 2, 3})
	base := resultKey(h, 8, 16, valmod.Options{})
	diff := map[string]cacheKey{
		"series": resultKey(hashSeries([]float64{1, 2, 4}), 8, 16, valmod.Options{}),
		"lmin":   resultKey(h, 9, 16, valmod.Options{}),
		"lmax":   resultKey(h, 8, 17, valmod.Options{}),
		"TopK":   resultKey(h, 8, 16, valmod.Options{TopK: 5}),
		"P":      resultKey(h, 8, 16, valmod.Options{P: 20}),
		"Excl":   resultKey(h, 8, 16, valmod.Options{ExclusionFactor: 2}),
		"RF":     resultKey(h, 8, 16, valmod.Options{RecomputeFraction: 0.5}),
	}
	for name, k := range diff {
		if k == base {
			t.Errorf("%s change should change the cache key", name)
		}
	}
	// Workers never changes the output, so it must not change the key.
	if resultKey(h, 8, 16, valmod.Options{Workers: 7}) != base {
		t.Error("Workers must be excluded from the cache key")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) cacheKey { return resultKey(hashSeries([]float64{float64(i)}), 8, 16, valmod.Options{}) }
	r1, r2, r3 := &Result{N: 1}, &Result{N: 2}, &Result{N: 3}
	c.Put(k(1), r1)
	c.Put(k(2), r2)
	if got, ok := c.Get(k(1)); !ok || got != r1 {
		t.Fatal("k1 should be cached")
	}
	c.Put(k(3), r3) // k2 is now least recently used → evicted
	if _, ok := c.Get(k(2)); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("k1 was promoted by Get and should survive")
	}
	if c.Len() != 2 {
		t.Errorf("Len=%d, want 2", c.Len())
	}
}

// TestHashSeriesChunking pins the chunked encoder to the per-sample
// reference digest across chunk-boundary sizes.
func TestHashSeriesChunking(t *testing.T) {
	reference := func(values []float64) [sha256.Size]byte {
		h := sha256.New()
		var b [8]byte
		for _, v := range values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		var out [sha256.Size]byte
		h.Sum(out[:0])
		return out
	}
	for _, n := range []int{0, 1, 511, 512, 513, 1025} {
		values := make([]float64, n)
		for i := range values {
			values[i] = math.Sqrt(float64(i)) - 3
		}
		if hashSeries(values) != reference(values) {
			t.Errorf("n=%d: chunked digest diverges from per-sample reference", n)
		}
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	k := resultKey(hashSeries([]float64{1}), 8, 16, valmod.Options{})
	c.Put(k, &Result{})
	if _, ok := c.Get(k); ok {
		t.Error("disabled cache must always miss")
	}
}
