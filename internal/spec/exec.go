package spec

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/explore"
	"archcontest/internal/invariant"
	"archcontest/internal/merit"
	"archcontest/internal/obs"
	"archcontest/internal/pipeline"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// Env is the shared execution environment specs run in: the persistent
// result cache, a memoized pool of experiment Labs and a memo of trace
// identities, so many jobs (or many experiments of one CLI invocation)
// share traces, memoized artifacts, and the global parallelism bound
// instead of rebuilding them per scenario.
type Env struct {
	// Cache, if non-nil, persists leaf results across specs and processes.
	Cache *resultcache.Cache
	// Parallelism bounds concurrent leaf simulations per Lab (0 = NumCPU).
	Parallelism int
	// Artifacts, if non-nil, receives campaign spans from every Lab built
	// by this Env.
	Artifacts *obs.ArtifactLog

	mu   sync.Mutex
	labs map[string]*experiments.Lab
	ids  map[traceShape]traceID
}

// maxTraceIDs caps the trace-identity memo. An entry is ~100 B, so a full
// memo holds well under 1 MB; reaching the cap clears it, and the next job
// of each shape regenerates its trace once.
const maxTraceIDs = 4096

// traceShape is what a run or contest spec asks of its trace.
type traceShape struct {
	bench string
	n     int
}

// traceID is a generated trace's cache identity without its instructions.
// workload.Generate is deterministic over a registry fixed for the life of
// the process, so a shape's identity never changes once seen.
type traceID struct {
	name string
	n    int
	fp   uint64
}

func (t traceID) Name() string        { return t.name }
func (t traceID) Len() int            { return t.n }
func (t traceID) Fingerprint() uint64 { return t.fp }

// traceID returns the remembered identity of the spec's trace, if any.
func (e *Env) traceID(sp Spec) (traceID, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.ids[traceShape{sp.Bench, sp.N}]
	return id, ok
}

// rememberTrace records and returns the identity of the spec's freshly
// generated trace.
func (e *Env) rememberTrace(sp Spec, tr *trace.Trace) traceID {
	id := traceID{tr.Name(), tr.Len(), tr.Fingerprint()}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ids == nil || len(e.ids) >= maxTraceIDs {
		e.ids = make(map[traceShape]traceID)
	}
	e.ids[traceShape{sp.Bench, sp.N}] = id
	return id
}

// NewEnv builds an execution environment over an optional result cache.
func NewEnv(cache *resultcache.Cache) *Env {
	return &Env{Cache: cache}
}

// lab returns the Env's memoized Lab for the given campaign shape,
// building it on first use. Labs are keyed by their full configuration,
// so two specs differing only in verify/record toggles or trace length
// get distinct Labs while identical ones share memoized artifacts.
func (e *Env) lab(cfg experiments.Config) *Lab {
	key := resultcache.Key("lab", cfg)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.labs == nil {
		e.labs = make(map[string]*Lab)
	}
	if l, ok := e.labs[key]; ok {
		return l
	}
	l := experiments.NewLab(cfg)
	e.labs[key] = l
	return l
}

// Lab aliases the campaign engine for Env's memoized pool.
type Lab = experiments.Lab

// Hooks observe an executing spec. All callbacks are optional and are
// invoked from the executing goroutine.
type Hooks struct {
	// Progress observes retirement progress of run/contest kinds and step
	// progress of explore kinds: done units out of total. Calls are
	// monotonically non-decreasing in done.
	Progress func(done, total int64)
	// Campaign is called once, before an experiment/matrix campaign
	// starts, with a live getter for the Lab's executed-work counters.
	Campaign func(stats func() experiments.CampaignStats)
	// ExploreMove observes every accepted exploration move (chain is 0
	// for annealing).
	ExploreMove func(chain, step int, cfg config.CoreConfig, ipt float64)
}

// Outcome is the result of executing a Spec: exactly one of the payload
// fields matching the spec's kind is set, plus Metrics when Record was
// requested.
type Outcome struct {
	Kind    string             `json:"kind"`
	Run     *sim.Result        `json:"run,omitempty"`
	Contest *contest.Result    `json:"contest,omitempty"`
	Table   *experiments.Table `json:"table,omitempty"`
	Matrix  *merit.Matrix      `json:"matrix,omitempty"`
	Explore *explore.Result    `json:"explore,omitempty"`
	Metrics *obs.Metrics       `json:"metrics,omitempty"`

	recorder *obs.Recorder
}

// WriteChromeTrace writes the recorded run's Chrome/Perfetto timeline.
// It errors when the spec did not request Record.
func (o *Outcome) WriteChromeTrace(w io.Writer) error {
	if o.recorder == nil {
		return fmt.Errorf("spec: no recording requested (set record: true)")
	}
	return o.recorder.WriteChromeTrace(w)
}

// progressTracker reports monotonic execution progress, throttled so the
// hook fires O(hundreds) of times per run instead of per retirement.
type progressTracker struct {
	fn     func(done, total int64)
	total  int64
	stride int64
	max    int64
	next   int64
}

func newProgressTracker(fn func(done, total int64), total int64) *progressTracker {
	stride := total / 256
	if stride < 1 {
		stride = 1
	}
	return &progressTracker{fn: fn, total: total, stride: stride}
}

func (p *progressTracker) observe(done int64) {
	if p == nil || done <= p.max {
		return
	}
	p.max = done
	if done >= p.next {
		p.next = done + p.stride
		p.fn(done, p.total)
	}
}

func (p *progressTracker) finish() {
	if p == nil {
		return
	}
	if p.max < p.total {
		p.max = p.total
	}
	p.fn(p.max, p.total)
}

// checker adapts the tracker to pipeline.Checker (per-core hooks).
func (p *progressTracker) checker() pipeline.Checker {
	if p == nil {
		return nil
	}
	return progressChecker{p}
}

type progressChecker struct{ p *progressTracker }

func (c progressChecker) AfterCycle(*pipeline.Core)                          {}
func (c progressChecker) OnRetire(_ *pipeline.Core, seq int64, _ ticks.Time) { c.p.observe(seq + 1) }
func (c progressChecker) OnInject(_ *pipeline.Core, seq int64, _ ticks.Time) { c.p.observe(seq + 1) }

// observer adapts the tracker to contest.Observer: progress is the
// furthest retirement on any core.
func (p *progressTracker) observer() contest.Observer {
	if p == nil {
		return nil
	}
	return progressObserver{p}
}

type progressObserver struct{ p *progressTracker }

func (o progressObserver) Attach(*contest.System)           {}
func (o progressObserver) CoreChecker(int) pipeline.Checker { return progressChecker{o.p} }
func (o progressObserver) AfterStep(*contest.System, int)   {}

// Execute validates and runs the spec inside the environment. Cancelling
// ctx stops the execution cooperatively: the engines exit at their next
// context poll, campaign layers abandon un-started leaves, and no partial
// result is persisted to the cache. The returned error is ctx.Err() (or
// wraps it) on cancellation.
func Execute(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	if env == nil {
		env = NewEnv(nil)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch sp.Kind {
	case KindRun:
		return executeRun(ctx, sp, env, hooks)
	case KindContest:
		return executeContest(ctx, sp, env, hooks)
	case KindExperiment, KindMatrix:
		return executeCampaign(ctx, sp, env, hooks)
	case KindExplore:
		return executeExplore(ctx, sp, env, hooks)
	}
	return nil, fmt.Errorf("spec: unknown kind %q", sp.Kind)
}

// generateTrace builds the spec's benchmark trace.
func generateTrace(sp Spec) (*trace.Trace, error) {
	p, err := workload.ProfileFor(sp.Bench)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, sp.N)
}

// leafTrace resolves a run or contest spec against the result cache,
// building its trace only when it must simulate. keyOf derives the leaf's
// cache key from a trace identity.
//
// The cache serves (and learns) only plain executions: verification must
// actually run, and a recording must observe real execution. A plain
// spec's key comes from its trace identity, remembered from the first
// time the Env generated that shape, so a repeat job is looked up before
// any trace work; a hit decodes into cached and returns a nil trace. key
// is empty for specs that bypass the cache. The memo only keys cache
// lookups, so an Env without a cache keeps none.
func (e *Env) leafTrace(sp Spec, keyOf func(experiments.TraceIdentity) string, cached any, hooks Hooks) (tr *trace.Trace, key string, err error) {
	if e.Cache == nil {
		tr, err = generateTrace(sp)
		return tr, "", err
	}
	id, known := e.traceID(sp)
	if !known {
		if tr, err = generateTrace(sp); err != nil {
			return nil, "", err
		}
		id = e.rememberTrace(sp, tr)
	}
	if !sp.Verify && !sp.Record {
		key = keyOf(id)
		if e.Cache.Get(key, cached) {
			if hooks.Progress != nil {
				hooks.Progress(int64(id.Len()), int64(id.Len()))
			}
			return nil, key, nil
		}
	}
	if tr == nil {
		tr, err = generateTrace(sp)
	}
	return tr, key, err
}

func executeRun(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	cfgs, err := sp.ResolveCores()
	if err != nil {
		return nil, err
	}
	cfg := cfgs[0]
	var opts sim.RunOptions
	if sp.Run != nil {
		opts = *sp.Run
	}
	out := &Outcome{Kind: KindRun}

	var cached sim.Result
	tr, key, err := env.leafTrace(sp, func(id experiments.TraceIdentity) string {
		return experiments.RunKey(id, cfg, opts)
	}, &cached, hooks)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		out.Run = &cached
		return out, nil
	}

	var tracker *progressTracker
	if hooks.Progress != nil {
		tracker = newProgressTracker(hooks.Progress, int64(tr.Len()))
	}
	var recChk pipeline.Checker
	if sp.Record {
		out.recorder = obs.NewRecorder(obs.Options{SampleIntervalNs: sp.SampleNs})
		recChk = out.recorder.CoreChecker(0)
	}
	opts.Checker = obs.MultiChecker(tracker.checker(), recChk)

	var res sim.Result
	if sp.Verify {
		res, err = invariant.Run(ctx, cfg, tr, opts, 0)
	} else {
		res, err = sim.RunContext(ctx, cfg, tr, opts)
	}
	if err != nil {
		return nil, err
	}
	tracker.finish()
	if out.recorder != nil {
		out.recorder.FinishRun(res)
		m, err := out.recorder.Metrics()
		if err != nil {
			return nil, err
		}
		out.Metrics = &m
	}
	if key != "" {
		env.Cache.Put(key, res)
	}
	out.Run = &res
	return out, nil
}

func executeContest(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	cfgs, err := sp.ResolveCores()
	if err != nil {
		return nil, err
	}
	var opts contest.Options
	if sp.Contest != nil {
		opts = *sp.Contest
	}
	if opts.LatencyNs == 0 && sp.LatencyNs != 0 {
		opts.LatencyNs = sp.LatencyNs
	}
	out := &Outcome{Kind: KindContest}

	var cached contest.Result
	tr, key, err := env.leafTrace(sp, func(id experiments.TraceIdentity) string {
		return experiments.ContestKey(id, cfgs, opts)
	}, &cached, hooks)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		out.Contest = &cached
		return out, nil
	}

	var tracker *progressTracker
	if hooks.Progress != nil {
		tracker = newProgressTracker(hooks.Progress, int64(tr.Len()))
	}
	var recObs contest.Observer
	if sp.Record {
		out.recorder = obs.NewRecorder(obs.Options{SampleIntervalNs: sp.SampleNs})
		recObs = out.recorder
	}
	opts.Observer = obs.MultiObserver(tracker.observer(), recObs)

	var res contest.Result
	if sp.Verify {
		res, err = invariant.Contest(ctx, cfgs, tr, opts, 0)
	} else {
		res, err = contest.RunContext(ctx, cfgs, tr, opts)
	}
	if err != nil {
		return nil, err
	}
	tracker.finish()
	if out.recorder != nil {
		out.recorder.FinishContest(res)
		m, err := out.recorder.Metrics()
		if err != nil {
			return nil, err
		}
		out.Metrics = &m
	}
	if key != "" {
		env.Cache.Put(key, res)
	}
	out.Contest = &res
	return out, nil
}

func (e *Env) labFor(sp Spec) *Lab {
	par := sp.Parallelism
	if par == 0 {
		par = e.Parallelism
	}
	if par == 0 {
		par = runtime.NumCPU()
	}
	cache := e.Cache
	if sp.Verify {
		cache = nil // the Lab bypasses it anyway; keep the key honest
	}
	return e.lab(experiments.Config{
		N:              sp.N,
		LatencyNs:      sp.LatencyNs,
		CandidatePairs: sp.Pairs,
		Parallelism:    par,
		Cache:          cache,
		Verify:         sp.Verify,
		Artifacts:      e.Artifacts,
	})
}

func executeCampaign(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	l := env.labFor(sp)
	if hooks.Campaign != nil {
		hooks.Campaign(l.CampaignStats)
	}
	if sp.Kind == KindMatrix {
		m, err := l.Matrix(ctx)
		if err != nil {
			return nil, err
		}
		return &Outcome{Kind: KindMatrix, Matrix: m}, nil
	}
	t, err := experiments.Registry[sp.Experiment](ctx, l)
	if err != nil {
		return nil, err
	}
	return &Outcome{Kind: KindExperiment, Table: t}, nil
}

func executeExplore(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	tr, err := generateTrace(sp)
	if err != nil {
		return nil, err
	}
	e := sp.Explore
	cache := env.Cache
	var res explore.Result
	var tracker *progressTracker
	switch e.Mode {
	case "anneal":
		opts := explore.Options{
			Seed:        e.Seed,
			Steps:       e.Steps,
			Lookahead:   e.Lookahead,
			Parallelism: sp.Parallelism,
			Cache:       cache,
			Log:         env.Artifacts,
			FastFilter:  e.FastFilter,
			FastMargin:  e.FastMargin,
		}
		if hooks.Progress != nil {
			steps := opts.Steps
			if steps == 0 {
				steps = 200 // the annealer's default
			}
			tracker = newProgressTracker(hooks.Progress, int64(steps))
		}
		if hooks.ExploreMove != nil || tracker != nil {
			tracker := tracker
			opts.Progress = func(step int, cfg config.CoreConfig, ipt float64) {
				tracker.observe(int64(step + 1))
				if hooks.ExploreMove != nil {
					hooks.ExploreMove(0, step, cfg, ipt)
				}
			}
		}
		res, err = explore.Customize(ctx, tr, opts)
	case "temper":
		opts := explore.TemperingOptions{
			Seed:          e.Seed,
			Steps:         e.Steps,
			Chains:        e.Chains,
			ExchangeEvery: e.ExchangeEvery,
			Parallelism:   sp.Parallelism,
			Cache:         cache,
			Log:           env.Artifacts,
			FastFilter:    e.FastFilter,
			FastMargin:    e.FastMargin,
		}
		if hooks.Progress != nil {
			steps := opts.Steps
			if steps == 0 {
				steps = 200 // the tempering default
			}
			tracker = newProgressTracker(hooks.Progress, int64(steps))
		}
		if hooks.ExploreMove != nil || tracker != nil {
			tracker := tracker
			opts.Progress = func(chain, step int, cfg config.CoreConfig, ipt float64) {
				tracker.observe(int64(step + 1))
				if hooks.ExploreMove != nil {
					hooks.ExploreMove(chain, step, cfg, ipt)
				}
			}
		}
		res, err = explore.Temper(ctx, tr, opts)
	default:
		return nil, fmt.Errorf("spec: unknown explore mode %q", e.Mode)
	}
	if err != nil {
		return nil, err
	}
	tracker.finish()
	return &Outcome{Kind: KindExplore, Explore: &res}, nil
}
