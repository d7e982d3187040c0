package profile_test

import (
	"fmt"
	"testing"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/stomp"
)

var topKSink []profile.MotifPair

// BenchmarkTopKPairs times one top-10 pair extraction on a retained
// scratch, serially, over exact profiles of the bench/ workloads' series
// (seed 1): ecg at n = 20 000 (pairs-n20k) and astro at n = 5 000
// (pairs-wide), each at ℓmin and at a longer length of its range. ns/slot
// is the time of one extraction over the profile's slot count.
func BenchmarkTopKPairs(b *testing.B) {
	for _, c := range []struct {
		name string
		n, l int
	}{
		{"ecg", 20000, 64}, {"ecg", 20000, 83}, {"astro", 5000, 64}, {"astro", 5000, 263},
	} {
		var mp *profile.MatrixProfile
		b.Run(fmt.Sprintf("%s/n=%d/l=%d", c.name, c.n, c.l), func(b *testing.B) {
			if mp == nil { // b.Run calls this more than once; compute once
				ts, err := gen.Dataset(c.name, c.n, 1)
				if err != nil {
					b.Fatal(err)
				}
				if mp, err = stomp.Compute(ts.Values, c.l, 0); err != nil {
					b.Fatal(err)
				}
			}
			var sc profile.TopKScratch
			topKSink = mp.TopKPairsInto(10, &sc)
			b.ResetTimer()
			for range b.N {
				topKSink = mp.TopKPairsInto(10, &sc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(mp.Len()), "ns/slot")
		})
	}
}
