package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/seriesmining/valmod/internal/core/anchors"
	"github.com/seriesmining/valmod/internal/faultinject"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// Engine is a reusable VALMOD pipeline. It owns the pooled scratch rows
// (the dot-product row buffers of the recompute paths, the seed workers
// and the incremental pass's inputs; the FFT correlator scratch is pooled
// inside internal/fft) so repeated runs stop re-allocating. An Engine is
// safe for concurrent Run calls; per-run state lives in the run struct.
type Engine struct {
	rowPool sync.Pool // stores *[]float64, capacity re-checked on Get

	// rowGets/rowPuts count getRow/putRow calls. Every acquired row must
	// be returned exactly once, so after any number of completed runs the
	// two counters are equal — the invariant TestRowPoolBalanced asserts
	// to catch row leaks.
	rowGets, rowPuts atomic.Int64
}

// NewEngine returns an Engine with empty pools.
func NewEngine() *Engine { return &Engine{} }

// rowPoolBalance returns getRow calls minus putRow calls: 0 when every
// scratch row has been returned (no run in flight).
func (e *Engine) rowPoolBalance() int64 {
	return e.rowGets.Load() - e.rowPuts.Load()
}

// defaultEngine backs the package-level Run/RunContext helpers so one-shot
// callers still share pooled scratch process-wide.
var defaultEngine = NewEngine()

// Run executes VALMOD over t and returns the exact per-length top-k motif
// pairs and the VALMAP.
func Run(t []float64, cfg Config) (*Result, error) {
	return defaultEngine.Run(context.Background(), t, cfg)
}

// RunContext is Run with cooperative cancellation, checked between lengths,
// between the diagonal blocks of seed and full-profile passes, and between
// recompute rounds (the granularity wall-clock budgets and a serving
// layer's job cancellation need). On cancellation it returns ctx.Err().
func RunContext(ctx context.Context, t []float64, cfg Config) (*Result, error) {
	return defaultEngine.Run(ctx, t, cfg)
}

func (e *Engine) getRow(n int) []float64 {
	e.rowGets.Add(1)
	if v := e.rowPool.Get(); v != nil {
		if row := *(v.(*[]float64)); cap(row) >= n {
			return row[:n]
		}
	}
	return make([]float64, n)
}

func (e *Engine) putRow(row []float64) {
	e.rowPuts.Add(1)
	e.rowPool.Put(&row)
}

// run carries the mutable state of one VALMOD execution.
type run struct {
	eng     *Engine
	ctx     context.Context
	t       []float64
	st      *series.Stats
	cfg     Config
	sMin    int
	workers int
	// store holds the partial profiles, allocated at the first seed
	// (ensureStore) and dropped by the latch.
	store *anchors.Store

	// scratch per length
	dists   []float64 // best retained pair distance per anchor
	indexes []int
	maxLBs  []float64
	cert    []bool

	// rows computes the run's from-scratch dot-product rows on the run's
	// own goroutine (rowSource); parallel phases take cloned handles.
	rows rowWorker

	// latched reports that the cost model switched the run from the pruned
	// pass to the incremental pass for every remaining length (see
	// cost.go); the pruned machinery is retired.
	latched bool
	// rounds counts the recompute-fixpoint rounds (top-k extractions) of
	// the last pruned length, one of the counts the cost model reads.
	rounds int

	// seeded reports that the pruned machinery (anchor partial profiles)
	// has been seeded by a seed sweep; entriesAt is the length the
	// retained entries' dot products are currently advanced to, so the
	// advance pass can catch up across lengths the planner resolved
	// incrementally or skipped.
	seeded    bool
	entriesAt int

	// The incremental pass's inputs (covAt; rows from the engine's pool,
	// taken at its first length and returned in release; the head row goes
	// to rowQT) and the per-worker (corr, index) accumulators of the
	// diagonal passes.
	df, dg, nrm, query []float64
	diagCorr           [][]float64
	diagIdx            [][]int32

	// planStats instruments the per-length planner for this run.
	planStats PlanStats

	// ckptOff latches after a checkpoint capture or delivery fails: the
	// run keeps computing, it just stops emitting checkpoints (resume then
	// falls back to an older checkpoint or a scratch re-run, both exact).
	ckptOff bool
	// tHash caches the series content hash across checkpoint captures.
	tHash  [32]byte
	hashed bool
	// frame is the checkpoint frame buffer, allocated at the run's first
	// checkpoint and reused by the later ones (captureCheckpoint).
	frame []byte

	// cached sliding moments of the current working length; invStds[j] is
	// 1/σ_j (0 for degenerate windows) so the hot loops run division-free;
	// degCount counts degenerate windows at that length
	momentsL             int
	means, stds, invStds []float64
	degCount             int
	// rowQT holds the seed sweep's and the incremental pass's head rows
	// and, with rowQT2, the rows of the serial recompute path
	rowQT, rowQT2 []float64
	// The seed sweep's per-worker candidate lists, sized at the ℓmin
	// anchor count at the first seed, and the per-worker one-anchor lists
	// of the recompute refills.
	seedLists []*kernels.TopLists
	refills   []*kernels.TopLists

	// Steady-state per-length scratch, allocated (or pooled) once per run
	// and recycled across lengths so the pruned per-length pass performs
	// zero heap allocations after the first length (asserted by
	// TestProcessLengthSteadyStateZeroAlloc):
	lmp     profile.MatrixProfile // candidate profile of the pruned pass
	topk    profile.TopKScratch   // TopKPairsInto working memory
	need    []int                 // per-round recompute set
	runs    []recSpan             // contiguous recompute runs of a batch
	singles []int                 // isolated anchors of a batch
	degs    []int                 // degenerate offsets of fixupDegenerate
	shards  []anchors.Shard       // advance-pass shard grid
}

// momentsAt fills the cached sliding mean/σ/1÷σ arrays for length l (O(s)
// via the cumulative sums, shared by every anchor at that length).
func (r *run) momentsAt(l int) {
	if r.momentsL == l {
		return
	}
	s := len(r.t) - l + 1
	if cap(r.means) < s {
		r.means = make([]float64, s)
		r.stds = make([]float64, s)
		r.invStds = make([]float64, s)
	}
	r.means = r.means[:s]
	r.stds = r.stds[:s]
	r.invStds = r.invStds[:s]
	deg := 0
	for i := 0; i < s; i++ {
		mu, sd := r.st.MeanStd(i, l)
		r.means[i], r.stds[i] = mu, sd
		if sd > 0 {
			r.invStds[i] = 1 / sd
		} else {
			r.invStds[i] = 0
			deg++
		}
	}
	r.degCount = deg
	r.momentsL = l
}

// Run executes one VALMOD discovery over t through the built-in sink
// pipeline: the per-length top-k pairs, the VALMAP, and — when
// cfg.Discords is positive — exact variable-length discords.
func (e *Engine) Run(ctx context.Context, t []float64, cfg Config) (*Result, error) {
	cfg.Fill()
	if err := cfg.validate(len(t)); err != nil {
		return nil, err
	}
	pairs := &pairsSink{}
	vms, err := newValmapSink(cfg.LMin, cfg.LMax, len(t)-cfg.LMin+1)
	if err != nil {
		return nil, err
	}
	sinks := []Sink{pairs, vms}
	var ds *discordSink
	if cfg.Discords > 0 {
		ds = newDiscordSink(cfg.Discords, cfg.ExclusionFactor)
		sinks = append(sinks, ds)
	}
	plan, err := e.runSinks(ctx, t, cfg, sinks)
	if err != nil {
		return nil, err
	}
	res := &Result{
		N:         len(t),
		Cfg:       cfg,
		MPMin:     pairs.mpMin,
		PerLength: pairs.perLength,
		VMap:      vms.vm,
		Plan:      plan,
	}
	if ds != nil {
		res.Discords = ds.Discords()
	}
	return res, nil
}

// RunSinks executes the VALMOD length loop and streams each completed
// length into the registered sinks. Each length's work is planned from
// the sinks that want it (Requirement × LengthSelector, see
// planLengths): lengths only TopKPairs sinks want run the pruned
// pipeline (seed the first such length with one parallel sweep over the
// diagonals, then advance→certify across anchor shards and recompute the
// uncertified stragglers to a fixpoint) until the cost model (cost.go)
// predicts the incremental pass to be cheaper, after which every
// remaining such length runs the incremental pass — so a pairs-only run
// may report incremental lengths, with pairs equal to the pruned plan's
// within the cross-plan floating tolerance. Lengths a FullProfile sink
// wants run the incremental cross-length profile pass (or the seed sweep
// when pruned lengths follow and the pass doubles as their seed); lengths
// no sink wants are skipped. All passes run on fixed grids
// and the switch reads only deterministic counts, so every plan is
// bit-identical at any worker count. Sinks are consumed in registration
// order on this goroutine, each only for the lengths it wants; progress is
// emitted after every length (skipped ones included) when cfg.OnLength is
// set.
func (e *Engine) RunSinks(ctx context.Context, t []float64, cfg Config, sinks ...Sink) error {
	_, err := e.runSinks(ctx, t, cfg, sinks)
	return err
}

// runSinks is RunSinks returning the per-length plan instrumentation.
func (e *Engine) runSinks(ctx context.Context, t []float64, cfg Config, sinks []Sink) (PlanStats, error) {
	return e.runSinksFrom(ctx, t, cfg, sinks, nil)
}

// runSinksFrom is runSinks optionally resuming from a decoded checkpoint:
// the run's carried state is restored before the loop and processing
// starts at the checkpoint's next plan index. resume == nil runs from
// scratch.
func (e *Engine) runSinksFrom(ctx context.Context, t []float64, cfg Config, sinks []Sink, resume *ckptPayload) (PlanStats, error) {
	cfg.Fill()
	if err := cfg.validate(len(t)); err != nil {
		return PlanStats{}, err
	}
	var cs ckptSinks
	if cfg.OnCheckpoint != nil || resume != nil {
		var ok bool
		if cs, ok = builtinSinks(sinks); !ok {
			return PlanStats{}, fmt.Errorf("%w: checkpointing requires the built-in sink pipeline", ErrBadConfig)
		}
	}
	r := e.newRun(ctx, t, cfg)
	defer r.release()

	plans := planLengths(cfg, sinks)
	lastPruned := -1
	for idx, p := range plans {
		if p == planPruned {
			lastPruned = idx
		}
	}
	total := cfg.LMax - cfg.LMin + 1
	dispatch := func(ld LengthData, done int) {
		for _, s := range sinks {
			if sinkWants(s, ld.L) {
				s.Consume(ld)
			}
		}
		if cfg.OnLength != nil {
			cfg.OnLength(Progress{Done: done, Total: total, Result: ld.Result})
		}
	}

	startIdx := 0
	if resume != nil {
		startIdx = r.restore(resume)
	}
	for idx, l := startIdx, cfg.LMin+startIdx; l <= cfg.LMax; idx, l = idx+1, l+1 {
		select {
		case <-ctx.Done():
			return r.planStats, ctx.Err()
		default:
		}
		if err := faultinject.Hit("core.length"); err != nil {
			return r.planStats, err
		}
		done := idx + 1
		plan := plans[idx]
		if plan == planPruned && r.latched {
			plan = planFull
		}
		switch plan {
		case planSkip:
			// No sink wants this length: no state even needs advancing —
			// the retained entries catch up lazily at the next length
			// that runs.
			r.planStats.SkippedLengths++
			if cfg.OnLength != nil {
				cfg.OnLength(Progress{Done: done, Total: total, Result: LengthResult{M: l}})
			}
		case planPruned:
			if !r.seeded {
				// First pruned length: seed the partial profiles with the
				// seed sweep. The sweep yields the exact profile for
				// free, so it is delivered (on the default all-pruned
				// plan this is the classic ℓmin seed).
				mp, err := r.seedAll(l)
				if err != nil {
					return r.planStats, err
				}
				r.planStats.RecomputeLengths++
				lr := LengthResult{M: l, Pairs: mp.TopKPairsInto(cfg.TopK, &r.topk)}
				lr.Stats.FullRecompute = true
				dispatch(LengthData{L: l, Result: lr, Profile: mp}, done)
				r.maybeCheckpoint(cs, done, total)
				continue
			}
			// mp is non-nil when the fixpoint fell back to a seed sweep,
			// whose exact profile is delivered like any whole-profile
			// pass's.
			lr, mp, err := r.processLength(l)
			if err != nil {
				return r.planStats, err
			}
			r.planStats.PrunedLengths++
			dispatch(LengthData{L: l, Result: lr, Profile: mp}, done)
			r.maybeLatch(l, lr.Stats)
		default: // planFull
			var (
				lr  LengthResult
				mp  *profile.MatrixProfile
				err error
			)
			if !r.seeded && !r.latched && idx < lastPruned {
				// Seed sweep: pruned lengths follow, and the sweep's
				// partial-profile reseed seeds them without an extra
				// pass.
				lr, mp, err = r.processLengthFull(l)
				r.planStats.RecomputeLengths++
			} else {
				lr, mp, err = r.processLengthIncremental(l)
				r.planStats.IncrementalLengths++
			}
			if err != nil {
				return r.planStats, err
			}
			dispatch(LengthData{L: l, Result: lr, Profile: mp}, done)
		}
		r.maybeCheckpoint(cs, done, total)
	}
	return r.planStats, nil
}

// newRun prepares the state of one execution over t (cfg filled and
// validated); release returns its pooled buffers.
func (e *Engine) newRun(ctx context.Context, t []float64, cfg Config) *run {
	sMin := len(t) - cfg.LMin + 1
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &run{
		eng:     e,
		ctx:     ctx,
		t:       t,
		st:      series.NewStats(t),
		cfg:     cfg,
		sMin:    sMin,
		workers: workers,
		dists:   make([]float64, sMin),
		indexes: make([]int, sMin),
		maxLBs:  make([]float64, sMin),
		cert:    make([]bool, sMin),
		rows:    rowWorker{src: newRowSource(t, cfg.LMax)},
		// The serial row buffers are pooled (sMin covers every length).
		rowQT:  e.getRow(sMin),
		rowQT2: e.getRow(sMin),
	}
}

// release returns the run's pooled buffers — the engine's get/put balance
// is the row-leak invariant — and the correlator, if one was built.
func (r *run) release() {
	r.eng.putRow(r.rowQT)
	r.eng.putRow(r.rowQT2)
	if r.df != nil {
		for _, row := range [][]float64{r.df, r.dg, r.nrm, r.query} {
			r.eng.putRow(row)
		}
	}
	r.rows.src.release()
}

// maybeLatch asks the cost model, after pruned length l resolved with
// stats st, whether length l+1 is cheaper on the incremental pass, and
// latches if so.
func (r *run) maybeLatch(l int, st LengthStats) {
	if r.cfg.pinPruned {
		return
	}
	c := prunedCounts{recomputed: st.Recomputed, rounds: r.rounds, fellBack: st.FullRecompute}
	kept := r.store.Kept(len(r.t) - l)
	if preferIncremental(len(r.t), l+1, kept, r.cfg.ExclusionFactor, r.rows.src.direct(l+1), c) {
		r.latch()
	}
}

// latch retires the pruned machinery for the rest of the run: every
// remaining pruned length runs the incremental pass, so the partial
// profiles and the seed and refill lists are dropped.
func (r *run) latch() {
	r.latched = true
	r.seeded = false
	r.store, r.seedLists, r.refills = nil, nil, nil
}
