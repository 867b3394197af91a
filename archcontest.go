// Package archcontest is a from-scratch Go reproduction of
// "Architectural Contesting" (Najaf-abadi & Rotenberg, HPCA 2009).
//
// Architectural contesting runs the same single-threaded program
// concurrently on several differently-customized cores of a heterogeneous
// chip multiprocessor. Each core broadcasts its retired instruction results
// on a global result bus; lagging cores consume those results to complete
// instructions without executing them, staying within a bounded lagging
// distance of the leader. When the workload behaviour changes — and it
// changes at granularities of a few hundred instructions — the core best
// suited to the new region takes the lead automatically, with no phase
// detector, no reconfiguration, and no migration.
//
// The package is the public facade over the internal simulators:
//
//   - Benchmarks and GenerateTrace: the eleven synthetic SPEC2000int
//     stand-in workloads (deterministic, phase-structured traces).
//   - Palette and PaletteCore: the paper's Appendix A benchmark-customized
//     core configurations.
//   - Run: single-core cycle-level execution of a trace.
//   - ContestRun: N-way contested execution.
//   - NewLab and the experiment registry: every table and figure of the
//     paper's evaluation, regenerated from the simulators.
//   - CustomizeCore: simulated-annealing design-space exploration (the
//     XpScalar stand-in).
//
// The quickest way in:
//
//	tr := archcontest.MustGenerateTrace("twolf", 500_000)
//	own := archcontest.MustRun(archcontest.MustPaletteCore("twolf"), tr)
//	pair := []archcontest.CoreConfig{
//		archcontest.MustPaletteCore("twolf"),
//		archcontest.MustPaletteCore("vpr"),
//	}
//	res, err := archcontest.ContestRun(pair, tr, archcontest.ContestOptions{})
//	// res.IPT() vs own.IPT(): the contesting speedup.
package archcontest

import (
	"context"
	"io"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/explore"
	"archcontest/internal/migrate"
	"archcontest/internal/power"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// Trace is an immutable dynamic instruction stream (a benchmark's SimPoint
// stand-in).
type Trace = trace.Trace

// CoreConfig is a core's microarchitectural configuration along the paper's
// Appendix A axes.
type CoreConfig = config.CoreConfig

// RunResult is the outcome of a single-core run.
type RunResult = sim.Result

// RunOptions configures a single-core run.
type RunOptions = sim.RunOptions

// ContestOptions configures a contested run (core-to-core latency, lagging
// distance, store queue capacity, ...).
type ContestOptions = contest.Options

// ContestResult is the outcome of a contested run.
type ContestResult = contest.Result

// WorkloadProfile parameterizes a synthetic benchmark.
type WorkloadProfile = workload.Profile

// ExploreOptions configures the design-space exploration.
type ExploreOptions = explore.Options

// ExploreResult is the outcome of a design-space exploration.
type ExploreResult = explore.Result

// TemperOptions configures the parallel-tempering exploration mode.
type TemperOptions = explore.TemperingOptions

// ResultCache is the campaign engine's content-addressed persistent result
// store; pass one in LabConfig.Cache or ExploreOptions.Cache to make
// re-runs incremental.
type ResultCache = resultcache.Cache

// Lab caches the shared artifacts of an experiment campaign (traces, the
// benchmark-by-core matrix, switching studies, best contesting pairs).
type Lab = experiments.Lab

// LabConfig scales an experiment campaign.
type LabConfig = experiments.Config

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// Benchmarks lists the eleven benchmark names (SPEC2000int minus eon,
// exactly as the paper evaluates).
func Benchmarks() []string { return workload.Benchmarks() }

// WorkloadFor returns the named benchmark's synthetic profile.
func WorkloadFor(name string) (WorkloadProfile, error) { return workload.ProfileFor(name) }

// GenerateTrace synthesizes the benchmark's deterministic trace of n
// dynamic instructions.
func GenerateTrace(benchmark string, n int) (*Trace, error) {
	p, err := workload.ProfileFor(benchmark)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, n)
}

// MustGenerateTrace is GenerateTrace for known-good benchmark names.
func MustGenerateTrace(benchmark string, n int) *Trace {
	return workload.MustGenerate(benchmark, n)
}

// LoadTrace reads a trace previously serialized with Trace.WriteTo.
func LoadTrace(r io.Reader) (*Trace, error) { return trace.ReadFrom(r) }

// PaletteNames lists the benchmark-customized core names of Appendix A.
func PaletteNames() []string { return config.PaletteNames() }

// Palette returns all eleven benchmark-customized cores.
func Palette() []CoreConfig { return config.Palette() }

// PaletteCore returns the named benchmark's customized core.
func PaletteCore(name string) (CoreConfig, error) { return config.PaletteCore(name) }

// MustPaletteCore is PaletteCore for known-good names.
func MustPaletteCore(name string) CoreConfig { return config.MustPaletteCore(name) }

// Run executes a trace to completion on a single core.
func Run(cfg CoreConfig, tr *Trace, opts ...RunOptions) (RunResult, error) {
	var o RunOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return sim.Run(cfg, tr, o)
}

// RunContext is Run with cooperative cancellation: the simulation polls
// ctx at amortized fast-forward boundaries and returns ctx.Err() once the
// context ends.
func RunContext(ctx context.Context, cfg CoreConfig, tr *Trace, opts ...RunOptions) (RunResult, error) {
	var o RunOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return sim.RunContext(ctx, cfg, tr, o)
}

// MustRun is Run for known-good inputs.
func MustRun(cfg CoreConfig, tr *Trace) RunResult {
	return sim.MustRun(cfg, tr, sim.RunOptions{})
}

// ContestRun executes a trace on all the given cores in a contesting
// (leader-follower) arrangement and reports the system result.
func ContestRun(cfgs []CoreConfig, tr *Trace, opts ContestOptions) (ContestResult, error) {
	return contest.Run(cfgs, tr, opts)
}

// ContestRunContext is ContestRun with cooperative cancellation.
func ContestRunContext(ctx context.Context, cfgs []CoreConfig, tr *Trace, opts ContestOptions) (ContestResult, error) {
	return contest.RunContext(ctx, cfgs, tr, opts)
}

// CustomizeCore anneals a core configuration for the trace (the XpScalar
// stand-in used to derive application-customized cores).
// Cancelling ctx abandons the walk and returns the context error.
func CustomizeCore(ctx context.Context, tr *Trace, opts ExploreOptions) (ExploreResult, error) {
	return explore.Customize(ctx, tr, opts)
}

// TemperCore runs the parallel-tempering (replica-exchange) exploration:
// M chains on a temperature ladder with periodic state exchange.
// Cancelling ctx abandons the exploration and returns the context error.
func TemperCore(ctx context.Context, tr *Trace, opts TemperOptions) (ExploreResult, error) {
	return explore.Temper(ctx, tr, opts)
}

// OpenResultCache opens (creating if needed) a persistent result cache
// rooted at dir; an empty dir yields a memory-only cache.
func OpenResultCache(dir string) (*ResultCache, error) {
	return resultcache.Open(dir, resultcache.Options{})
}

// MigrateOptions configures the oracle-migration baseline (the sluggish
// alternative contesting is motivated against).
type MigrateOptions = migrate.Options

// MigrateResult is the outcome of an oracle-migration simulation.
type MigrateResult = migrate.Result

// MigrationSweep simulates oracle-policy thread migration between two cores
// at the given granularities, with realistic transfer/drain/cold-cache
// costs.
func MigrationSweep(a, b CoreConfig, tr *Trace, granularities []int, opts MigrateOptions) ([]MigrateResult, error) {
	return migrate.Sweep(a, b, tr, granularities, opts)
}

// EnergyEstimate is an event-based energy/power estimate of a run.
type EnergyEstimate = power.Estimate

// RunEnergy estimates the energy of a stand-alone run.
func RunEnergy(cfg CoreConfig, r RunResult) EnergyEstimate { return power.SingleRun(cfg, r) }

// ContestEnergy estimates the total energy of a contested run across all
// cores (contesting is redundant execution: expect roughly N times the
// pipeline energy).
func ContestEnergy(cfgs []CoreConfig, r ContestResult) EnergyEstimate {
	return power.ContestRun(cfgs, r)
}

// NewLab builds an experiment campaign.
func NewLab(cfg LabConfig) *Lab { return experiments.NewLab(cfg) }

// Experiments lists the experiment IDs in presentation order; run one with
// RunExperiment.
func Experiments() []string { return append([]string(nil), experiments.RegistryOrder...) }

// RunExperiment regenerates one paper table or figure. Cancelling ctx
// abandons the campaign's un-started leaves and returns the context error.
func RunExperiment(ctx context.Context, lab *Lab, id string) (*ExperimentTable, error) {
	exp, ok := experiments.Registry[id]
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return exp(ctx, lab)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "archcontest: unknown experiment " + string(e)
}
