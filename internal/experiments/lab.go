// Package experiments drives the reproduction of every table and figure in
// the paper's evaluation. A Lab is the campaign engine: every expensive
// artifact — a synthetic trace, one benchmark-on-core single run, the 11x11
// IPT matrix, a per-benchmark switching study, a contested run, a best-pair
// search — is a task keyed by its inputs. Tasks are deduplicated across
// concurrent callers by a keyed, memoizing singleflight (two goroutines
// asking for the same artifact compute it once and share the result), their
// leaf simulations execute on a bounded pool that saturates the configured
// parallelism across benchmarks rather than within one call, and leaf
// results are persisted in an optional content-addressed result cache so a
// re-run only simulates what changed.
//
// Every artifact accessor takes a context. Cancellation is cooperative and
// bounded: un-started DAG leaves are abandoned (workers claim remaining
// items as cancelled without running them), in-flight leaves stop at the
// engines' next context poll, singleflight waiters unblock with the context
// error, and a cancelled leaf never reaches the result cache — so an
// interrupted campaign leaves only complete, loadable cache entries behind.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/invariant"
	"archcontest/internal/merit"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/switching"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// N is the trace length in instructions (default 1,000,000 — the scaled
	// stand-in for the paper's 100M-instruction SimPoints).
	N int
	// LatencyNs is the core-to-core latency (default 1ns, the paper's
	// three cycles of a 3GHz core).
	LatencyNs float64
	// CandidatePairs is how many oracle-shortlisted pairs are contested per
	// benchmark when searching for its best contesting pair (default 3; the
	// pair containing the benchmark's own core is always added).
	CandidatePairs int
	// Parallelism bounds concurrently executing simulations (default
	// NumCPU). The bound is global to the Lab: no matter how many
	// artifacts are requested concurrently, at most Parallelism
	// simulations run at once.
	Parallelism int
	// Cache, if non-nil, persists leaf results (single runs and contests)
	// across processes. Derived artifacts (matrix, studies, best pairs)
	// are cheap arithmetic over the leaves and are recomputed, which keeps
	// cache invalidation exact: a leaf key hashes the engine version, the
	// trace fingerprint, the core configuration, and the run options.
	Cache *resultcache.Cache
	// Verify attaches the verification subsystem (internal/invariant) to
	// every leaf simulation: per-cycle invariant checks plus differential
	// oracle replay of each core's retirement stream. A violation fails the
	// leaf. Verified leaves bypass the result cache in both directions —
	// the checks happen during execution, so a cache hit would silently
	// skip them, and a verified result must never launder into unverified
	// campaigns.
	Verify bool
	// VerifyScanEvery strides the checker's O(window) structural scans
	// (0 = every cycle). Only meaningful with Verify.
	VerifyScanEvery int64
	// Artifacts, if non-nil, receives a timed span for every leaf
	// computation the Lab actually executes (trace generation, single
	// runs, contests) — the campaign's self-observability timeline.
	// Memoized and cache-served artifacts record nothing, so the log
	// shows real work only. Excluded from result-cache keys.
	Artifacts *obs.ArtifactLog `json:"-"`
}

func (c *Config) applyDefaults() {
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.LatencyNs == 0 {
		c.LatencyNs = 1.0
	}
	if c.CandidatePairs == 0 {
		c.CandidatePairs = 3
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// CampaignStats counts the work a Lab actually performed, as opposed to
// the artifacts it served from memoization or the result cache.
type CampaignStats struct {
	// TraceGens, Simulations and Contests count executed leaf computations.
	TraceGens, Simulations, Contests int64
	// CacheHits and CacheMisses count result-cache lookups for leaf work
	// (zero when no cache is configured).
	CacheHits, CacheMisses int64
}

// Lab holds the cached shared state of an experiment campaign.
type Lab struct {
	cfg     Config
	benches []string
	cores   []config.CoreConfig

	flight flightGroup
	sem    chan struct{} // bounds concurrently executing leaf computations

	traceGens, sims, contests, cacheHits, cacheMisses atomic.Int64
}

// NewLab builds a lab over the full benchmark registry and Appendix A
// palette.
func NewLab(cfg Config) *Lab {
	cfg.applyDefaults()
	return &Lab{
		cfg:     cfg,
		benches: workload.Benchmarks(),
		cores:   config.Palette(),
		sem:     make(chan struct{}, cfg.Parallelism),
	}
}

// Benchmarks reports the benchmark names.
func (l *Lab) Benchmarks() []string { return l.benches }

// Cores reports the palette.
func (l *Lab) Cores() []config.CoreConfig { return l.cores }

// N reports the configured trace length.
func (l *Lab) N() int { return l.cfg.N }

// CampaignStats reports the executed-work counters so far.
func (l *Lab) CampaignStats() CampaignStats {
	return CampaignStats{
		TraceGens:   l.traceGens.Load(),
		Simulations: l.sims.Load(),
		Contests:    l.contests.Load(),
		CacheHits:   l.cacheHits.Load(),
		CacheMisses: l.cacheMisses.Load(),
	}
}

// flightGroup is a keyed, memoizing singleflight: the first caller of a key
// runs the function; concurrent callers for the same key wait and share the
// result; later callers get the memoized value without recomputation. A
// failed call is forgotten so the artifact can be retried.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// do runs fn once per key. Waiters block on the executing call but stay
// cancellable: a waiter whose own context ends returns its ctx error
// without waiting for the executor. When the executing call itself died of
// cancellation (its error is a context error) but this caller's context is
// still live, the forgotten call is retried rather than inheriting a
// foreign cancellation.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[string]*flightCall)
		}
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if isCtxErr(c.err) && ctx.Err() == nil {
				continue // executor was cancelled, we weren't: retry
			}
			return c.val, c.err
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.val, c.err = fn()
		if c.err != nil {
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
		}
		close(c.done)
		return c.val, c.err
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execTimed runs one leaf computation under the global parallelism bound.
// The caller's goroutine blocks until a slot frees (or its context ends)
// and executes fn itself, so the Lab never owns idle worker goroutines.
// Leaf computations are pure (they never wait on other Lab tasks), so slot
// holders cannot deadlock. When Artifacts is configured, fn runs inside a
// recorded span; the span starts after the semaphore is acquired, so the
// artifact timeline shows executing work, not queueing.
func (l *Lab) execTimed(ctx context.Context, kind, name string, fn func()) error {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-l.sem }()
	l.cfg.Artifacts.Time(kind, name, fn)
	return nil
}

// parallel runs fn(i) for i in [0, n) on a worker pool of at most
// Parallelism goroutines total (not one goroutine per item) and returns
// the error of the lowest-indexed failing item, deterministically. Once
// the context ends, workers claim the remaining un-started items and mark
// them with the context error instead of running them, so a cancelled
// campaign abandons its un-started DAG leaves immediately.
func (l *Lab) parallel(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := l.cfg.Parallelism
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(int(i))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Trace returns (generating and caching) the benchmark's trace.
func (l *Lab) Trace(ctx context.Context, bench string) (*trace.Trace, error) {
	v, err := l.flight.do(ctx, "trace/"+bench, func() (any, error) {
		p, err := workload.ProfileFor(bench)
		if err != nil {
			return nil, err
		}
		var tr *trace.Trace
		if eerr := l.execTimed(ctx, "trace", bench, func() {
			l.traceGens.Add(1)
			tr, err = workload.Generate(p, l.cfg.N)
		}); eerr != nil {
			return nil, eerr
		}
		if err != nil {
			return nil, err
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// TraceIdentity is what a cache key needs of a trace: its name, length
// and content fingerprint. *trace.Trace satisfies it; so does a
// remembered identity, which lets a repeat job derive its key without
// building the trace.
type TraceIdentity interface {
	Name() string
	Len() int
	Fingerprint() uint64
}

// RunKey derives the content address of one single-core leaf run. It is
// the cache identity shared by every layer that executes single runs (Lab,
// explore, spec): engine version, trace fingerprint and shape, core
// configuration, run options.
func RunKey(tr TraceIdentity, cfg config.CoreConfig, opts sim.RunOptions) string {
	return resultcache.Key("run", sim.EngineVersion, tr.Fingerprint(), tr.Name(), tr.Len(), cfg, opts)
}

// ContestKey derives the content address of one contested leaf run.
func ContestKey(tr TraceIdentity, cfgs []config.CoreConfig, opts contest.Options) string {
	return resultcache.Key("contest", sim.EngineVersion, tr.Fingerprint(), tr.Name(), tr.Len(), cfgs, opts)
}

// leaf returns (computing, deduplicating and caching) one leaf simulation,
// the single path RunOn and ContestConfigs share. key is the leaf's content
// address; kind and span name its artifact span; count is its executed-work
// counter; run executes it, verified when the Lab verifies. Verified leaves
// bypass the result cache in both directions, and a cancelled, failed or
// violating leaf never reaches it.
func leaf[R any](ctx context.Context, l *Lab, key, kind, span string, count *atomic.Int64, run func() (R, error)) (R, error) {
	v, err := l.flight.do(ctx, kind+"/"+key, func() (any, error) {
		cache := l.cfg.Cache
		if l.cfg.Verify {
			cache = nil
		}
		if cache != nil {
			var cached R
			if cache.Get(key, &cached) {
				l.cacheHits.Add(1)
				return cached, nil
			}
			l.cacheMisses.Add(1)
		}
		var r R
		var rerr error
		if eerr := l.execTimed(ctx, kind, span, func() {
			count.Add(1)
			r, rerr = run()
		}); eerr != nil {
			return nil, eerr
		}
		if rerr != nil {
			return nil, rerr
		}
		cache.Put(key, r)
		return r, nil
	})
	if err != nil {
		var zero R
		return zero, err
	}
	return v.(R), nil
}

// RunOn returns (computing, deduplicating, and caching) one benchmark's
// stand-alone run on one palette-or-custom core configuration.
func (l *Lab) RunOn(ctx context.Context, bench string, cfg config.CoreConfig, opts sim.RunOptions) (sim.Result, error) {
	tr, err := l.Trace(ctx, bench)
	if err != nil {
		return sim.Result{}, err
	}
	return leaf(ctx, l, RunKey(tr, cfg, opts), "run", bench+"/"+cfg.Name, &l.sims, func() (sim.Result, error) {
		if l.cfg.Verify {
			return invariant.Run(ctx, cfg, tr, opts, l.cfg.VerifyScanEvery)
		}
		return sim.RunContext(ctx, cfg, tr, opts)
	})
}

// Runs returns (computing and caching) the benchmark's single-core runs on
// every palette core, region-logged, in palette order. Single-core runs use
// the write-back policy (stand-alone, non-contesting mode).
func (l *Lab) Runs(ctx context.Context, bench string) ([]sim.Result, error) {
	v, err := l.flight.do(ctx, "runs/"+bench, func() (any, error) {
		rs := make([]sim.Result, len(l.cores))
		err := l.parallel(ctx, len(l.cores), func(i int) error {
			r, err := l.RunOn(ctx, bench, l.cores[i], sim.RunOptions{LogRegions: true})
			if err != nil {
				return err
			}
			rs[i] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]sim.Result), nil
}

// Matrix returns (computing and caching) the benchmark x core IPT matrix
// from stand-alone runs. All benchmarks' runs are requested concurrently,
// so a single Matrix call saturates the Lab's parallelism across the whole
// 11x11 campaign instead of one benchmark at a time.
func (l *Lab) Matrix(ctx context.Context) (*merit.Matrix, error) {
	v, err := l.flight.do(ctx, "matrix", func() (any, error) {
		names := make([]string, len(l.cores))
		for i, c := range l.cores {
			names[i] = c.Name
		}
		m := merit.NewMatrix(l.benches, names)
		err := l.parallel(ctx, len(l.benches), func(b int) error {
			rs, err := l.Runs(ctx, l.benches[b])
			if err != nil {
				return err
			}
			for c, r := range rs {
				m.IPT[b][c] = r.IPT()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*merit.Matrix), nil
}

// Study returns (computing and caching) the benchmark's switching study.
func (l *Lab) Study(ctx context.Context, bench string) (*switching.Study, error) {
	v, err := l.flight.do(ctx, "study/"+bench, func() (any, error) {
		rs, err := l.Runs(ctx, bench)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(l.cores))
		baseline := -1
		for i, c := range l.cores {
			names[i] = c.Name
			if c.Name == bench {
				baseline = i
			}
		}
		if baseline < 0 {
			return nil, fmt.Errorf("experiments: no customized core for %s", bench)
		}
		return switching.NewStudy(names, rs, baseline)
	})
	if err != nil {
		return nil, err
	}
	return v.(*switching.Study), nil
}

// Contest runs (deduplicating and caching) a contested execution of the
// benchmark on the named palette cores at the lab's latency.
func (l *Lab) Contest(ctx context.Context, bench string, coreNames []string, opts contest.Options) (contest.Result, error) {
	cfgs := make([]config.CoreConfig, len(coreNames))
	for i, n := range coreNames {
		c, err := config.PaletteCore(n)
		if err != nil {
			return contest.Result{}, err
		}
		cfgs[i] = c
	}
	return l.ContestConfigs(ctx, bench, cfgs, opts)
}

// ContestConfigs is Contest over explicit core configurations (hybrids,
// custom cores) rather than palette names.
func (l *Lab) ContestConfigs(ctx context.Context, bench string, cfgs []config.CoreConfig, opts contest.Options) (contest.Result, error) {
	tr, err := l.Trace(ctx, bench)
	if err != nil {
		return contest.Result{}, err
	}
	if opts.LatencyNs == 0 {
		opts.LatencyNs = l.cfg.LatencyNs
	}
	span := bench
	for _, c := range cfgs {
		span += "/" + c.Name
	}
	return leaf(ctx, l, ContestKey(tr, cfgs, opts), "contest", span, &l.contests, func() (contest.Result, error) {
		if l.cfg.Verify {
			return invariant.Contest(ctx, cfgs, tr, opts, l.cfg.VerifyScanEvery)
		}
		return contest.RunContext(ctx, cfgs, tr, opts)
	})
}

// ContestsConfigs evaluates a set of same-benchmark contests, in list
// order, spread across the Lab's workers. Each contest is its own leaf
// (ContestConfigs), so duplicates in the list, contests already computed
// or in flight elsewhere, and result-cache hits all share one execution
// per key.
func (l *Lab) ContestsConfigs(ctx context.Context, bench string, cfgsList [][]config.CoreConfig, opts contest.Options) ([]contest.Result, error) {
	results := make([]contest.Result, len(cfgsList))
	err := l.parallel(ctx, len(cfgsList), func(i int) error {
		r, err := l.ContestConfigs(ctx, bench, cfgsList[i], opts)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// BestPair finds (and caches) the benchmark's best 2-way contesting pair:
// the oracle switching analysis shortlists CandidatePairs fine-grain pairs
// (plus the best pair containing the benchmark's own core), each shortlisted
// pair is contested, and the highest-IPT contest wins. IPT ties break to
// the earlier candidate (shortlist order), so the winner is deterministic.
func (l *Lab) BestPair(ctx context.Context, bench string) (contest.Result, error) {
	v, err := l.flight.do(ctx, "bestpair/"+bench, func() (any, error) {
		study, err := l.Study(ctx, bench)
		if err != nil {
			return nil, err
		}
		pairs, err := study.TopPairs(l.cfg.CandidatePairs)
		if err != nil {
			return nil, err
		}
		// Always consider the best pair that includes the benchmark's own core.
		own := -1
		for i, c := range l.cores {
			if c.Name == bench {
				own = i
			}
		}
		allPairs, err := study.TopPairs(len(l.cores) * len(l.cores))
		if err != nil {
			return nil, err
		}
		for _, pr := range allPairs {
			if pr.A == own || pr.B == own {
				pairs = append(pairs, pr)
				break
			}
		}
		seen := map[[2]int]bool{}
		var candidates [][2]int
		for _, pr := range pairs {
			key := [2]int{pr.A, pr.B}
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates = append(candidates, key)
		}
		cfgsList := make([][]config.CoreConfig, len(candidates))
		for i, pr := range candidates {
			cfgsList[i] = []config.CoreConfig{l.cores[pr[0]], l.cores[pr[1]]}
		}
		results, err := l.ContestsConfigs(ctx, bench, cfgsList, contest.Options{})
		if err != nil {
			return nil, err
		}
		sort.SliceStable(results, func(i, j int) bool { return results[i].IPT() > results[j].IPT() })
		return results[0], nil
	})
	if err != nil {
		return contest.Result{}, err
	}
	return v.(contest.Result), nil
}

// OwnCoreIPT reports the benchmark's stand-alone IPT on its own customized
// core — the baseline of Figures 6, 7, and 8.
func (l *Lab) OwnCoreIPT(ctx context.Context, bench string) (float64, error) {
	m, err := l.Matrix(ctx)
	if err != nil {
		return 0, err
	}
	b, err := m.BenchIndex(bench)
	if err != nil {
		return 0, err
	}
	c, err := m.CoreIndex(bench)
	if err != nil {
		return 0, err
	}
	return m.IPT[b][c], nil
}
