package core

// The streaming equivalence harness: any chunking of a series through
// Streamer.Append is tolerance-equivalent to one-shot batch Run over the
// same points; a fixed chunking is bit-identical at every worker count;
// an uncapped stream is bit-identical under any chunking; a capped stream
// always equals a batch run over the trailing window — including when
// eviction removes the reigning best pair.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/series"
)

// streamChunks feeds x through a fresh Streamer in the given chunk sizes
// (which must sum to len(x)) and returns the stream.
func streamChunks(t testing.TB, cfg Config, x []float64, chunks []int) *Streamer {
	t.Helper()
	st, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, c := range chunks {
		if err := st.Append(x[pos : pos+c]); err != nil {
			t.Fatalf("append chunk at %d (size %d): %v", pos, c, err)
		}
		pos += c
	}
	if pos != len(x) {
		t.Fatalf("chunks cover %d of %d points", pos, len(x))
	}
	return st
}

// randomChunks splits n points into random chunk sizes, forcing a few
// 1-point chunks so window boundaries land mid-chunk and mid-window.
func randomChunks(rng *rand.Rand, n, maxChunk int) []int {
	var out []int
	pos := 0
	for pos < n {
		c := 1 + rng.Intn(maxChunk)
		if rng.Intn(4) == 0 {
			c = 1
		}
		if pos+c > n {
			c = n - pos
		}
		out = append(out, c)
		pos += c
	}
	return out
}

// assertDiscordsEquivalent mirrors assertPairsEquivalent for the
// cross-length discord ranking: rank-wise equal normalized distances
// within tolerance, identities compared with a true-tie allowance.
func assertDiscordsEquivalent(t *testing.T, tag string, got, want []Discord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d discords, want %d\n got: %v\nwant: %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Abs(g.NormDist()-w.NormDist()) > 1e-6*(1+w.NormDist()) {
			t.Fatalf("%s: discord %d norm dist %g, want %g", tag, i, g.NormDist(), w.NormDist())
		}
		if g.I != w.I || g.L != w.L {
			if math.Abs(g.NormDist()-w.NormDist()) > 1e-9*(1+w.NormDist()) {
				t.Fatalf("%s: discord %d = (I=%d,L=%d), want (I=%d,L=%d)", tag, i, g.I, g.L, w.I, w.L)
			}
		}
	}
}

// assertStreamEqualsBatch compares a stream snapshot against a batch run:
// per-length top-k pairs and the discord ranking, both within floating
// tolerance (the two engines reach the same dot products along different
// arithmetic paths).
func assertStreamEqualsBatch(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N=%d, want %d", tag, got.N, want.N)
	}
	if len(got.PerLength) != len(want.PerLength) {
		t.Fatalf("%s: %d lengths, want %d", tag, len(got.PerLength), len(want.PerLength))
	}
	for i := range got.PerLength {
		g, w := got.PerLength[i], want.PerLength[i]
		if g.M != w.M {
			t.Fatalf("%s: length slot %d is m=%d, want m=%d", tag, i, g.M, w.M)
		}
		assertPairsEquivalent(t, tag+"/"+g.StatsTag(), g.Pairs, w.Pairs)
	}
	assertDiscordsEquivalent(t, tag, got.Discords, want.Discords)
}

// snapshotFingerprint strips a Result to the fields the bit-identity
// assertions compare (Cfg carries Workers, which legitimately differs).
type snapshotFingerprint struct {
	N         int
	MPMin     any
	PerLength []LengthResult
	VMap      any
	Discords  []Discord
}

func fingerprint(r *Result) snapshotFingerprint {
	return snapshotFingerprint{N: r.N, MPMin: r.MPMin, PerLength: r.PerLength, VMap: r.VMap, Discords: r.Discords}
}

func TestStreamEqualsBatchRandomChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := map[string][]float64{
		"walk": randWalk(rng, 700),
		"sine": sineMix(650),
	}
	// A constant prefix exercises the degenerate conventions end to end.
	// It must sit at the very start: there the cumulative sums are exact
	// (5·i), Var computes to exactly 0, and both engines see the same
	// degenerate set. A constant run planted mid-series lands on rounded
	// cumulative sums, leaves σ at tiny nonzero garbage, and the resulting
	// near-zero distances are too ill-conditioned for any cross-engine
	// tolerance (the batch engine's own paths disagree there too).
	for i := 0; i < 40; i++ {
		data["walk"][i] = 5.0
	}
	cfg := Config{LMin: 8, LMax: 40, TopK: 3, Discords: 3}
	for name, x := range data {
		want, err := Run(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			chunks := randomChunks(rng, len(x), 97)
			for _, workers := range []int{1, 4} {
				c := cfg
				c.Workers = workers
				st := streamChunks(t, c, x, chunks)
				got, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				tag := name + "/w=" + string(rune('0'+workers))
				assertStreamEqualsBatch(t, tag, got, want)
			}
		}
	}
}

func TestStreamChunkingInvarianceBitIdentical(t *testing.T) {
	// Without WindowCap every length's arithmetic is one serial chain in
	// append order, so the carried state — and hence the snapshot — cannot
	// depend on how the same points were chunked.
	rng := rand.New(rand.NewSource(72))
	x := randWalk(rng, 600)
	cfg := Config{LMin: 8, LMax: 32, TopK: 3, Discords: 2, Workers: 2}
	onePoint := make([]int, len(x))
	for i := range onePoint {
		onePoint[i] = 1
	}
	ref, err := streamChunks(t, cfg, x, []int{len(x)}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		chunks := randomChunks(rng, len(x), 64)
		if trial == 0 {
			chunks = onePoint
		}
		got, err := streamChunks(t, cfg, x, chunks).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
			t.Fatalf("trial %d: snapshot differs across chunkings of the same points", trial)
		}
	}
}

func TestStreamWorkerCountBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	x := randWalk(rng, 600)
	chunks := randomChunks(rng, len(x), 50)
	for _, cap := range []int{0, 300} {
		cfg := Config{LMin: 8, LMax: 32, TopK: 3, Discords: 2, WindowCap: cap, Workers: 1}
		ref, err := streamChunks(t, cfg, x, chunks).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			cfg.Workers = workers
			got, err := streamChunks(t, cfg, x, chunks).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
				t.Fatalf("cap=%d: snapshot at workers=%d differs from workers=1", cap, workers)
			}
		}
	}
}

func TestStreamEvictionEqualsTrailingBatch(t *testing.T) {
	// Plant the global best pair early so eviction removes it: the capped
	// stream must forget it and agree with a batch run over exactly the
	// trailing window, repairing every profile entry that pointed into the
	// evicted prefix.
	rng := rand.New(rand.NewSource(74))
	x := randWalk(rng, 900)
	motif := randWalk(rng, 24)
	copy(x[50:], motif)
	copy(x[150:], motif) // identical pair: distance ~0, the undisputed best
	const cap = 400
	cfg := Config{LMin: 8, LMax: 32, TopK: 3, Discords: 3, WindowCap: cap, Workers: 4}

	st, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, stop := range []int{350, 600, 900} {
		for pos < stop {
			c := 1 + rng.Intn(60)
			if pos+c > stop {
				c = stop - pos
			}
			if err := st.Append(x[pos : pos+c]); err != nil {
				t.Fatal(err)
			}
			pos += c
		}
		lo := pos - cap
		if lo < 0 {
			lo = 0
		}
		batchCfg := cfg
		batchCfg.WindowCap = 0
		want, err := Run(x[lo:pos], batchCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if st.N() != pos-lo || st.Start() != lo || st.Total() != pos {
			t.Fatalf("at %d: N=%d Start=%d Total=%d, want %d/%d/%d", pos, st.N(), st.Start(), st.Total(), pos-lo, lo, pos)
		}
		assertStreamEqualsBatch(t, "trail@"+string(rune('0'+stop/100)), got, want)
	}

	// The planted pair must reign while retained and be gone once evicted.
	final, _ := st.Snapshot()
	if best, ok := final.GlobalBest(); ok && best.Dist < 1e-6 {
		t.Fatalf("evicted planted pair still reported: %v", best)
	}
}

// TestStreamEvictionCutoverSides runs a capped stream on each side of the
// eviction rule (replayEviction): 100-point chunks into an 800-point
// window repair every length by runs, 400-point chunks replay most of
// them. Each must equal the batch run over its trailing window within
// tolerance, and be bit-identical at workers 1, 2 and 4 and across a
// Checkpoint/ResumeStreamer taken mid-stream.
func TestStreamEvictionCutoverSides(t *testing.T) {
	const window = 800
	for _, tc := range []struct {
		chunk  int
		replay bool
	}{{100, false}, {400, true}} {
		ds, err := gen.Dataset("ecg", window+4*tc.chunk, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := ds.Values
		chunks := make([]int, len(x)/tc.chunk)
		for i := range chunks {
			chunks[i] = tc.chunk
		}
		cfg := Config{LMin: 16, LMax: 32, TopK: 3, Discords: 2, WindowCap: window, Workers: 1}
		tag := fmt.Sprintf("chunk=%d", tc.chunk)

		// Predict each eviction's side on an uncapped copy of the state
		// Append leaves before evict.
		st := mustStreamer(t, cfg)
		replays, evictions := 0, 0
		for k, c := range chunks {
			chunk := x[k*tc.chunk : k*tc.chunk+c]
			if e := st.N() + c - window; e > 0 {
				ck, err := st.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				pre, err := ResumeStreamer(cfg, ck)
				if err != nil {
					t.Fatal(err)
				}
				pre.cfg.WindowCap = 0
				if err := pre.Append(chunk); err != nil {
					t.Fatal(err)
				}
				for li := range pre.lens {
					ls := &pre.lens[li]
					s := window - ls.l + 1
					repairs, runs := evictedRuns(ls.idx[e:e+s], e)
					if replayEviction(s, ls.l, repairs, runs) {
						replays++
					}
					evictions++
				}
			}
			if err := st.Append(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if tc.replay && replays*2 < evictions || !tc.replay && replays > 0 {
			t.Fatalf("%s: %d of %d length evictions replay; the case is on the wrong side of the rule", tag, replays, evictions)
		}

		batchCfg := cfg
		batchCfg.WindowCap = 0
		want, err := Run(x[len(x)-window:], batchCfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqualsBatch(t, tag, ref, want)

		for _, workers := range []int{2, 4} {
			wcfg := cfg
			wcfg.Workers = workers
			got, err := streamChunks(t, wcfg, x, chunks).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
				t.Fatalf("%s: snapshot at workers=%d differs from workers=1", tag, workers)
			}
		}

		cut := len(chunks) / 2
		half := streamChunks(t, cfg, x[:cut*tc.chunk], chunks[:cut])
		ck, err := half.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Workers = 3
		rs, err := ResumeStreamer(rcfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		for pos := cut * tc.chunk; pos < len(x); pos += tc.chunk {
			if err := rs.Append(x[pos : pos+tc.chunk]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := rs.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
			t.Fatalf("%s: resumed snapshot differs from the uninterrupted stream", tag)
		}
	}
}

func TestStreamSnapshotGrowsWithSeries(t *testing.T) {
	// Between LMin and LMax points, Snapshot covers the lengths that have
	// windows — and matches a batch run with the clamped range.
	rng := rand.New(rand.NewSource(75))
	x := randWalk(rng, 60)
	cfg := Config{LMin: 8, LMax: 100, TopK: 2}
	st, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(x[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(); err == nil {
		t.Fatal("snapshot before LMin points: want ErrTooShort")
	}
	if err := st.Append(x[5:]); err != nil {
		t.Fatal(err)
	}
	got, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.LMax = len(x)
	want, err := Run(x, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEqualsBatch(t, "clamped", got, want)
}

func TestStreamAppendRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	x := randWalk(rng, 120)
	cfg := Config{LMin: 8, LMax: 24, TopK: 2}
	st, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(x); err != nil {
		t.Fatal(err)
	}
	before, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{{1, math.NaN()}, {math.Inf(1)}, {0, 2, math.Inf(-1), 3}} {
		if err := st.Append(bad); err == nil {
			t.Fatalf("append %v: want ErrBadValue", bad)
		}
		if st.N() != len(x) || st.Total() != len(x) {
			t.Fatalf("rejected append mutated the stream: N=%d Total=%d", st.N(), st.Total())
		}
	}
	after, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(before), fingerprint(after)) {
		t.Fatal("rejected appends changed the snapshot")
	}
}

func TestStreamConfigValidation(t *testing.T) {
	if _, err := NewStreamer(Config{LMin: 2, LMax: 8}); err == nil {
		t.Fatal("lmin=2: want error")
	}
	if _, err := NewStreamer(Config{LMin: 8, LMax: 4}); err == nil {
		t.Fatal("lmax<lmin: want error")
	}
	if _, err := NewStreamer(Config{LMin: 8, LMax: 32, WindowCap: 31}); err == nil {
		t.Fatal("window_cap<lmax: want error")
	}
}

// FuzzAppend drives the streaming engine with fuzzer-chosen points and
// chunk boundaries (and a capped variant), checking every accepted stream
// against the batch engine and every non-finite chunk for clean
// rejection. Bytes 0xFF/0xFE/0xFD inject NaN/±Inf.
func FuzzAppend(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 250, 1, 9}, []byte{7, 3, 1}, false)
	f.Add([]byte{128, 128, 128, 128, 128, 128, 128, 128, 128, 128}, []byte{1}, true)
	f.Add([]byte{0xFF, 10, 20, 30, 40, 50, 60, 70, 80, 90, 0xFE, 5}, []byte{4, 4, 200}, true)
	f.Fuzz(func(t *testing.T, raw, chunkBytes []byte, capped bool) {
		if len(raw) < 32 {
			return
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		x := make([]float64, len(raw))
		v := 0.0
		for i, b := range raw {
			switch b {
			case 0xFF:
				x[i] = math.NaN()
			case 0xFE:
				x[i] = math.Inf(1)
			case 0xFD:
				x[i] = math.Inf(-1)
			default:
				v += (float64(b) - 128) / 32
				x[i] = v
			}
		}
		cfg := Config{LMin: 8, LMax: 16, TopK: 1, Workers: 2}
		if capped {
			cfg.WindowCap = 16 + len(x)/2
		}
		st, err := NewStreamer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Chunk per chunkBytes, round-robin; chunks holding a non-finite
		// point must be rejected atomically and drop out of the stream.
		var accepted []float64
		pos := 0
		for ci := 0; pos < len(x); ci++ {
			c := 1
			if len(chunkBytes) > 0 {
				c = int(chunkBytes[ci%len(chunkBytes)])%29 + 1
			}
			if pos+c > len(x) {
				c = len(x) - pos
			}
			chunk := x[pos : pos+c]
			pos += c
			finite := true
			for _, p := range chunk {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					finite = false
					break
				}
			}
			nBefore, totalBefore := st.N(), st.Total()
			err := st.Append(chunk)
			if finite != (err == nil) {
				t.Fatalf("chunk finite=%v, append err=%v", finite, err)
			}
			if !finite && (st.N() != nBefore || st.Total() != totalBefore) {
				t.Fatal("rejected chunk mutated the stream")
			}
			if finite {
				accepted = append(accepted, chunk...)
			}
		}
		lo := 0
		if cfg.WindowCap > 0 && len(accepted) > cfg.WindowCap {
			lo = len(accepted) - cfg.WindowCap
		}
		window := accepted[lo:]
		if len(window) < cfg.LMax {
			if _, err := st.Snapshot(); err == nil && len(window) < cfg.LMin {
				t.Fatal("snapshot below LMin points: want error")
			}
			return
		}
		got, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		bcfg := cfg
		bcfg.WindowCap = 0
		want, err := Run(window, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fuzzed bytes can build arbitrarily ill-conditioned series, so
		// compare in d²-space (d² = 2ℓ(1−c): a fixed d² tolerance is a
		// fixed correlation tolerance, well-conditioned even at d ≈ 0) and
		// skip offset identity (exact ties legitimately reorder).
		if len(got.PerLength) != len(want.PerLength) {
			t.Fatalf("%d lengths, want %d", len(got.PerLength), len(want.PerLength))
		}
		for i := range got.PerLength {
			g, w := got.PerLength[i], want.PerLength[i]
			if len(g.Pairs) != len(w.Pairs) {
				t.Fatalf("m=%d: %d pairs, want %d", g.M, len(g.Pairs), len(w.Pairs))
			}
			for r := range g.Pairs {
				d2g, d2w := g.Pairs[r].Dist*g.Pairs[r].Dist, w.Pairs[r].Dist*w.Pairs[r].Dist
				if math.Abs(d2g-d2w) > 1e-6*2*float64(g.M) {
					t.Fatalf("m=%d rank %d: d²=%g, want %g", g.M, r, d2g, d2w)
				}
			}
		}
	})
}

// BenchmarkStreamEvict times one eviction from a 4 096-point ecg window,
// ℓ ∈ [64, 83], at 512 and 2 048 evicted points. The state is a stream
// holding the window plus the chunk that overflows it, as Append leaves
// it before evict. Each iteration runs both of evict's per-length paths
// directly on every length, each on its own copy of the state: the run
// repairs (Streamer.repair) and the replay (Streamer.rebuild), reported in
// ms per length eviction (repair_ms/len, replay_ms/len). It also times the
// runs' from-scratch head rows alone, which separates the two terms of a
// repair, and reports cost.go's eviction constants fitted from the three
// timings and the counts the rule reads: ns per head-row multiply-add
// (c_row_ns), per repaired-row cell (c_repair_ns) and per replayed cell
// (c_replay_ns). repairs/len and runs/len average those counts over the
// lengths; replay_share is the share of lengths the rule replays.
func BenchmarkStreamEvict(b *testing.B) {
	const window = 4096
	cfg := Config{LMin: 64, LMax: 83, TopK: 3, Workers: 1}
	for _, e := range []int{512, 2048} {
		ds, err := gen.Dataset("ecg", window+e, 1)
		if err != nil {
			b.Fatal(err)
		}
		ck, err := streamChunks(b, cfg, ds.Values, []int{window + e}).Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		// fresh decodes the pre-eviction state and drops the oldest e
		// points, as evict does before its per-length work.
		fresh := func() *Streamer {
			st, err := ResumeStreamer(cfg, ck)
			if err != nil {
				b.Fatal(err)
			}
			copy(st.t, st.t[e:])
			st.t = st.t[:window]
			st.st = series.NewStats(st.t)
			return st
		}
		b.Run(fmt.Sprintf("evict=%d", e), func(b *testing.B) {
			var repairs, runs, replays, rowMACs, repairCells, replayCells float64
			st := fresh()
			for li := range st.lens {
				ls := &st.lens[li]
				s := window - ls.l + 1
				rp, rn := evictedRuns(ls.idx[e:e+s], e)
				repairs += float64(rp)
				runs += float64(rn)
				rowMACs += float64(rn) * float64(s) * float64(ls.l)
				repairCells += float64(rp) * float64(s)
				replayCells += float64(s) * float64(s) / 2
				if replayEviction(s, ls.l, rp, rn) {
					replays++
				}
			}
			buf := make([]float64, window)
			var heads, repair, replay time.Duration
			for it := 0; it < b.N; it++ {
				src := newRowSource(st.t, cfg.LMax)
				rw := rowWorker{src: src}
				start := time.Now()
				for li := range st.lens {
					ls := &st.lens[li]
					s := window - ls.l + 1
					for i := 0; i < s; i++ {
						if evicted(ls.idx[i+e], e) && (i == 0 || !evicted(ls.idx[i-1+e], e)) {
							rw.row(buf, i, ls.l)
						}
					}
				}
				heads += time.Since(start)
				start = time.Now()
				for li := range st.lens {
					st.repair(&st.lens[li], e, &rw, buf)
				}
				repair += time.Since(start)
				rw.release()
				src.release()

				st = fresh()
				start = time.Now()
				for li := range st.lens {
					if err := st.rebuild(&st.lens[li]); err != nil {
						b.Fatal(err)
					}
				}
				replay += time.Since(start)
				st = fresh()
			}
			lengths, iters := float64(len(st.lens)), float64(b.N)
			b.ReportMetric(repair.Seconds()*1e3/iters/lengths, "repair_ms/len")
			b.ReportMetric(replay.Seconds()*1e3/iters/lengths, "replay_ms/len")
			b.ReportMetric(float64(heads.Nanoseconds())/iters/rowMACs, "c_row_ns")
			b.ReportMetric(float64((repair-heads).Nanoseconds())/iters/repairCells, "c_repair_ns")
			b.ReportMetric(float64(replay.Nanoseconds())/iters/replayCells, "c_replay_ns")
			b.ReportMetric(repairs/lengths, "repairs/len")
			b.ReportMetric(runs/lengths, "runs/len")
			b.ReportMetric(replays/lengths, "replay_share")
		})
	}
}
