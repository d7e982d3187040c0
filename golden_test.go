package valmod_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
)

var updateOutputGolden = flag.Bool("update", false, "re-record testdata/output_golden.txt")

const outputGoldenPath = "testdata/output_golden.txt"

// goldenPoint is one entry of the output golden: a named run whose result
// digests to one hash at every worker count.
type goldenPoint struct {
	name string
	run  func(t *testing.T, workers int) *valmod.Result
}

// goldenGrid is the output golden's grid: on ecg, astro, randomwalk and
// seismic, pairs and `Discords: 3` over [64, 83] at n = 3 000 (the
// discords point also resumes from its run's middle checkpoint, which
// must reproduce it bit for bit), an uncapped and a capped stream fed in
// 250-point chunks, and wide pairs over [64, 163] at n = 2 000, where the
// cost-model latch hands all but 1–13 lengths to the incremental diagonal
// pass.
func goldenGrid() []goldenPoint {
	var grid []goldenPoint
	for _, ds := range []string{"ecg", "astro", "randomwalk", "seismic"} {
		x := goldenSeries(ds, 3000)
		wide := goldenSeries(ds, 2000)
		grid = append(grid,
			goldenPoint{ds + "/pairs", func(t *testing.T, w int) *valmod.Result {
				return goldenDiscover(t, x, 64, 83, valmod.Options{Workers: w})
			}},
			goldenPoint{ds + "/discords", func(t *testing.T, w int) *valmod.Result {
				return goldenDiscords(t, x, valmod.Options{Discords: 3, Workers: w})
			}},
			goldenPoint{ds + "/stream", func(t *testing.T, w int) *valmod.Result {
				return goldenStream(t, x, valmod.Options{Discords: 3, Workers: w})
			}},
			goldenPoint{ds + "/stream-cap1500", func(t *testing.T, w int) *valmod.Result {
				return goldenStream(t, x, valmod.Options{Discords: 3, WindowCap: 1500, Workers: w})
			}},
			goldenPoint{ds + "/wide", func(t *testing.T, w int) *valmod.Result {
				return goldenDiscover(t, wide, 64, 163, valmod.Options{Workers: w})
			}},
		)
	}
	return grid
}

func goldenSeries(ds string, n int) []float64 {
	s, err := gen.Dataset(ds, n, 1)
	if err != nil {
		panic(err)
	}
	return s.Values
}

func goldenDiscover(t *testing.T, x []float64, lmin, lmax int, opts valmod.Options) *valmod.Result {
	t.Helper()
	r, err := valmod.Discover(x, lmin, lmax, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// goldenDiscords returns the run over [64, 83], after checking that a
// DiscoverResume from its middle checkpoint returns the same result.
func goldenDiscords(t *testing.T, x []float64, opts valmod.Options) *valmod.Result {
	t.Helper()
	var ckpts [][]byte
	opts.Checkpoint = func(b []byte) error {
		ckpts = append(ckpts, append([]byte(nil), b...))
		return nil
	}
	r := goldenDiscover(t, x, 64, 83, opts)
	opts.Checkpoint = nil
	resumed, err := valmod.NewEngine(opts).DiscoverResume(context.Background(), x, 64, 83, ckpts[len(ckpts)/2])
	if err != nil {
		t.Fatal(err)
	}
	if outputDigest(resumed) != outputDigest(r) {
		t.Errorf("resume from checkpoint %d of %d differs from the uninterrupted run", len(ckpts)/2, len(ckpts))
	}
	return r
}

// goldenStream feeds x in 250-point chunks over [64, 83] and returns the
// final snapshot.
func goldenStream(t *testing.T, x []float64, opts valmod.Options) *valmod.Result {
	t.Helper()
	st, err := valmod.NewStream(64, 83, opts)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(x); off += 250 {
		if err := st.Append(x[off:min(off+250, len(x))]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// outputDigest is the SHA-256 of every exported field of r — pairs,
// profiles, VALMAP, discords, Plan and each length's Certified and
// Recomputed — in a layout fixed by the types alone, floats as their bit
// patterns. (A gob encoding would not do: gob numbers types in the order
// a process first encodes them, so its bytes depend on which tests ran
// before.)
func outputDigest(r *valmod.Result) string {
	h := sha256.New()
	writeOutput(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil))
}

func writeOutput(h hash.Hash, v reflect.Value) {
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			writeOutput(h, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		writeOutput(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				writeOutput(h, v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("outputDigest: no layout for %v", v.Type()))
	}
}

// TestOutputGolden pins every output bit of the grid above to one digest
// per point in testdata/output_golden.txt, at Workers 1 and 2 on the
// active kernel tier. Every tier must match the same file. A change that
// is meant to alter outputs re-records it with
//
//	go test -run TestOutputGolden -update .
//
// and says why; any other change that moves a digest has changed a result.
func TestOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden holds amd64 bits: other architectures take the direct-row cutover K = 5 instead of 25, and Go may fuse multiply-adds there")
	}
	grid := goldenGrid()
	got := make(map[string]string, len(grid))
	for _, p := range grid {
		for _, w := range []int{1, 2} {
			d := outputDigest(p.run(t, w))
			if w == 1 {
				got[p.name] = d
			} else if d != got[p.name] {
				t.Errorf("%s: Workers=%d digests %s, Workers=1 %s", p.name, w, d, got[p.name])
			}
		}
	}
	if *updateOutputGolden {
		var b strings.Builder
		for _, p := range grid {
			fmt.Fprintf(&b, "%s %s\n", p.name, got[p.name])
		}
		if err := os.WriteFile(outputGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readOutputGolden(t)
	if len(want) != len(grid) {
		t.Errorf("%s has %d points, the grid %d", outputGoldenPath, len(want), len(grid))
	}
	for _, p := range grid {
		if w, ok := want[p.name]; !ok {
			t.Errorf("%s: missing from %s", p.name, outputGoldenPath)
		} else if got[p.name] != w {
			t.Errorf("%s: output digest %s, golden %s", p.name, got[p.name], w)
		}
	}
}

func readOutputGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(outputGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		name, h, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", outputGoldenPath, line)
		}
		want[name] = h
	}
	return want
}
