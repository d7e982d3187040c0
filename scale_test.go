package valmod_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"testing"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
)

// TestPowerOfTwoScalingBitIdentical: multiplying a series by 2ᵏ commutes
// with IEEE rounding (no overflow or underflow at these magnitudes), so
// every z-normalized quantity the engine computes is the same float64.
// A run on 2·t or t/4 must therefore reproduce the run on t bit for bit,
// in every exported field of Result, on every path:
//
//   - default pairs, over a narrow range that stays pruned and a wide one
//     where the cost model switches to the incremental pass;
//   - Discords: 3 (the incremental whole-profile pass);
//   - a resume from a mid-range checkpoint taken on the doubled series;
//   - a capped and an uncapped Stream.
//
// This is the exact case of the affine property a·t+b: with b ≠ 0 the
// moments round differently and only tolerance-equality holds.
func TestPowerOfTwoScalingBitIdentical(t *testing.T) {
	const n = 1200
	scales := []float64{2, 0.25}
	for _, ds := range []string{"ecg", "astro", "randomwalk", "seismic"} {
		s, err := gen.Dataset(ds, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name       string
			lmin, lmax int
			opts       valmod.Options
		}{
			{"pairs", 32, 51, valmod.Options{Workers: 2}},
			{"pairs-wide", 32, 131, valmod.Options{TopK: 3, Workers: 2}},
			{"discords", 32, 51, valmod.Options{TopK: 3, Discords: 3, Workers: 2}},
		} {
			want := discoverBits(t, s.Values, p.lmin, p.lmax, p.opts)
			for _, c := range scales {
				tag := fmt.Sprintf("%s/%s×%g", ds, p.name, c)
				if got := discoverBits(t, scaled(s.Values, c), p.lmin, p.lmax, p.opts); !bytes.Equal(got, want) {
					t.Fatalf("%s: result differs from the unscaled run", tag)
				}
				if c != 2 {
					continue
				}
				if got := resumeBits(t, scaled(s.Values, c), p.lmin, p.lmax, p.opts); !bytes.Equal(got, want) {
					t.Fatalf("%s: resumed result differs from the unscaled run", tag)
				}
			}
		}
		head := s.Values[:600]
		for _, wcap := range []int{0, 300} {
			opts := valmod.Options{TopK: 3, Discords: 2, WindowCap: wcap, Workers: 2}
			want := streamBits(t, head, 32, 51, opts)
			for _, c := range scales {
				if got := streamBits(t, scaled(head, c), 32, 51, opts); !bytes.Equal(got, want) {
					t.Fatalf("%s/stream cap=%d ×%g: snapshot differs from the unscaled stream", ds, wcap, c)
				}
			}
		}
	}
}

func scaled(x []float64, c float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v * c
	}
	return out
}

// resultBits gob-encodes every exported field of r. Gob writes each
// float64 as its bit pattern, so equal encodings mean bit-identical
// results.
func resultBits(t *testing.T, r *valmod.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func discoverBits(t *testing.T, x []float64, lmin, lmax int, opts valmod.Options) []byte {
	t.Helper()
	r, err := valmod.Discover(x, lmin, lmax, opts)
	if err != nil {
		t.Fatal(err)
	}
	return resultBits(t, r)
}

// resumeBits runs x once to capture the mid-range checkpoint, then
// returns the result of resuming from it.
func resumeBits(t *testing.T, x []float64, lmin, lmax int, opts valmod.Options) []byte {
	t.Helper()
	var ckpts [][]byte
	opts.Checkpoint = func(b []byte) error {
		ckpts = append(ckpts, append([]byte(nil), b...))
		return nil
	}
	if _, err := valmod.Discover(x, lmin, lmax, opts); err != nil {
		t.Fatal(err)
	}
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint emitted")
	}
	opts.Checkpoint = nil
	r, err := valmod.NewEngine(opts).DiscoverResume(context.Background(), x, lmin, lmax, ckpts[len(ckpts)/2])
	if err != nil {
		t.Fatal(err)
	}
	return resultBits(t, r)
}

// streamBits feeds x to a stream in 100-point appends and returns the
// final snapshot's encoding.
func streamBits(t *testing.T, x []float64, lmin, lmax int, opts valmod.Options) []byte {
	t.Helper()
	st, err := valmod.NewStream(lmin, lmax, opts)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(x); off += 100 {
		if err := st.Append(x[off:min(off+100, len(x))]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return resultBits(t, r)
}
