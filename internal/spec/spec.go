// Package spec is the unified scenario description executed by every
// driver: a JSON-encodable declaration of what to simulate (a single run,
// a contest, a registered experiment, the full matrix, or a design-space
// exploration), on which cores, over which benchmark trace, with which
// options, and whether to verify and/or record the execution. The three
// ad-hoc entry points (sim.Run, contest.Run, experiments.Lab) remain the
// execution engines; a Spec is the one declarative doorway in front of
// them, shared by the CLIs, the job runner, and the serve daemon.
//
// A Spec validates before it executes: unknown fields, unknown benchmarks
// or cores, structurally invalid custom cores (zero width, out-of-range
// geometry), and out-of-range options are descriptive errors, never
// panics deep inside the engines.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/sim"
	"archcontest/internal/workload"
)

// Kinds of scenario a Spec can describe.
const (
	KindRun        = "run"        // one benchmark on one core
	KindContest    = "contest"    // one benchmark contested across 2..8 cores
	KindExperiment = "experiment" // one registered paper table/figure
	KindMatrix     = "matrix"     // the full benchmark x core IPT matrix
	KindExplore    = "explore"    // design-space exploration (anneal/temper)
)

// MaxN bounds a spec's trace length n. A trace is materialised in memory
// at about 24 bytes per instruction, so the bound keeps one trace near
// 400 MB: well above the 1M-instruction experiment default, and far below
// what a single oversized request could otherwise make a node allocate.
const MaxN = 1 << 24

// Spec declares one scenario. The zero value is not runnable; fill in at
// least Kind (or a field that implies it) and the kind's inputs, then
// Validate (Execute validates again defensively).
type Spec struct {
	// Kind selects the scenario type. Empty infers: Explore set implies
	// explore, Experiment set implies experiment, two or more cores imply
	// contest, otherwise run.
	Kind string `json:"kind,omitempty"`
	// Bench is the benchmark whose trace is executed (run, contest,
	// explore). Experiment and matrix kinds span all benchmarks.
	Bench string `json:"bench,omitempty"`
	// N is the trace length in instructions (0 defaults per kind: 200k for
	// run/contest, 100k for explore, 1M for experiment/matrix).
	N int `json:"n,omitempty"`
	// Cores names palette cores (run: exactly one; contest: with Custom,
	// 2..8). Run kind with no cores defaults to the benchmark's own core.
	Cores []string `json:"cores,omitempty"`
	// Custom supplies explicit core configurations, appended after Cores.
	Custom []config.CoreConfig `json:"custom,omitempty"`
	// LatencyNs overrides the contest core-to-core latency (also the
	// experiment Lab's default latency).
	LatencyNs float64 `json:"latency_ns,omitempty"`
	// Run holds single-run options (run kind).
	Run *sim.RunOptions `json:"run,omitempty"`
	// Contest holds contest options (contest kind).
	Contest *contest.Options `json:"contest,omitempty"`
	// Experiment is the registered experiment ID (experiment kind).
	Experiment string `json:"experiment,omitempty"`
	// Pairs bounds the oracle-shortlisted candidate pairs per benchmark in
	// pair-search experiments (experiment kind; 0 = the Lab default).
	Pairs int `json:"pairs,omitempty"`
	// Explore configures the exploration (explore kind).
	Explore *ExploreSpec `json:"explore,omitempty"`
	// Verify attaches the verification subsystem (invariant checkers and
	// the differential oracle) to every executed leaf. Verified execution
	// bypasses the result cache in both directions.
	Verify bool `json:"verify,omitempty"`
	// Record attaches an obs.Recorder and returns archcontest-obs-v1
	// metrics plus a Chrome/Perfetto timeline in the Outcome. Supported
	// for run and contest kinds. Recorded execution bypasses the result
	// cache (the record happens during execution).
	Record bool `json:"record,omitempty"`
	// SampleNs is the recorder sampling period in simulated nanoseconds
	// (0 = recorder default).
	SampleNs float64 `json:"sample_ns,omitempty"`
	// Parallelism bounds concurrent leaf simulations for campaign kinds
	// (0 = the executing environment's default).
	Parallelism int `json:"parallelism,omitempty"`
}

// ExploreSpec configures the explore kind.
type ExploreSpec struct {
	// Mode is "anneal" (default) or "temper".
	Mode string `json:"mode,omitempty"`
	// Seed drives the walk deterministically.
	Seed uint64 `json:"seed,omitempty"`
	// Steps is the number of annealing moves or tempering rounds.
	Steps int `json:"steps,omitempty"`
	// Lookahead is the annealer's speculative batch size K.
	Lookahead int `json:"lookahead,omitempty"`
	// Chains and ExchangeEvery configure tempering.
	Chains        int `json:"chains,omitempty"`
	ExchangeEvery int `json:"exchange_every,omitempty"`
	// FastFilter enables the fast-model first pass: candidates the
	// interval model rules out are rejected without a detailed
	// simulation, and lookahead speculation past a predicted acceptance
	// is deferred. FastMargin overrides the filter's relative margin
	// (default explore.DefaultFastMargin).
	FastFilter bool    `json:"fast_filter,omitempty"`
	FastMargin float64 `json:"fast_margin,omitempty"`
}

// Parse decodes a Spec from JSON strictly: unknown fields are errors, so a
// typo in a submitted scenario is reported instead of silently ignored.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the JSON document")
	}
	return sp, nil
}

// inferKind resolves an empty Kind from the populated fields.
func (sp *Spec) inferKind() string {
	if sp.Kind != "" {
		return sp.Kind
	}
	switch {
	case sp.Explore != nil:
		return KindExplore
	case sp.Experiment != "":
		return KindExperiment
	case len(sp.Cores)+len(sp.Custom) >= 2 || sp.Contest != nil:
		return KindContest
	default:
		return KindRun
	}
}

// Normalize fills in the inferred kind and the kind's defaults. Validate
// and Execute call it; calling it first is idempotent.
func (sp *Spec) Normalize() {
	sp.Kind = sp.inferKind()
	if sp.N == 0 {
		switch sp.Kind {
		case KindRun, KindContest:
			sp.N = 200_000
		case KindExplore:
			sp.N = 100_000
		default:
			sp.N = 1_000_000
		}
	}
	if sp.Kind == KindRun && len(sp.Cores)+len(sp.Custom) == 0 && sp.Bench != "" {
		sp.Cores = []string{sp.Bench}
	}
	if sp.Kind == KindExplore {
		if sp.Explore == nil {
			sp.Explore = &ExploreSpec{}
		}
		if sp.Explore.Mode == "" {
			sp.Explore.Mode = "anneal"
		}
	}
}

// Validate normalizes the spec and reports the first problem with it as a
// descriptive error. A nil return means Execute will not fail on the
// spec's shape (engine-level failures, like a non-terminating
// configuration hitting MaxCycles, can still occur).
func (sp *Spec) Validate() error {
	sp.Normalize()
	switch sp.Kind {
	case KindRun, KindContest, KindExperiment, KindMatrix, KindExplore:
	default:
		return fmt.Errorf("spec: unknown kind %q (want %s)", sp.Kind,
			strings.Join([]string{KindRun, KindContest, KindExperiment, KindMatrix, KindExplore}, ", "))
	}
	if sp.N < 0 {
		return fmt.Errorf("spec: negative trace length n = %d", sp.N)
	}
	if sp.N > MaxN {
		return fmt.Errorf("spec: trace length n = %d exceeds the maximum %d", sp.N, MaxN)
	}
	if sp.LatencyNs < 0 {
		return fmt.Errorf("spec: negative latency_ns %g", sp.LatencyNs)
	}
	if sp.SampleNs < 0 {
		return fmt.Errorf("spec: negative sample_ns %g", sp.SampleNs)
	}
	if sp.Parallelism < 0 {
		return fmt.Errorf("spec: negative parallelism %d", sp.Parallelism)
	}
	if sp.Pairs < 0 {
		return fmt.Errorf("spec: negative pairs %d", sp.Pairs)
	}
	if sp.Pairs > 0 && sp.Kind != KindExperiment {
		return fmt.Errorf("spec: pairs is only meaningful for the experiment kind (got %q)", sp.Kind)
	}

	needsBench := sp.Kind == KindRun || sp.Kind == KindContest || sp.Kind == KindExplore
	if needsBench {
		if sp.Bench == "" {
			return fmt.Errorf("spec: kind %q needs a bench", sp.Kind)
		}
		if _, err := workload.ProfileFor(sp.Bench); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}

	cfgs, err := sp.ResolveCores()
	if err != nil {
		return err
	}
	switch sp.Kind {
	case KindRun:
		if len(cfgs) != 1 {
			return fmt.Errorf("spec: kind run wants exactly one core, got %d", len(cfgs))
		}
	case KindContest:
		if len(cfgs) < 2 || len(cfgs) > 8 {
			return fmt.Errorf("spec: kind contest wants 2..8 cores, got %d", len(cfgs))
		}
	default:
		if len(cfgs) != 0 {
			return fmt.Errorf("spec: kind %q takes no cores", sp.Kind)
		}
	}

	if sp.Contest != nil {
		if sp.Kind != KindContest {
			return fmt.Errorf("spec: contest options on kind %q", sp.Kind)
		}
		if sp.Contest.MaxLag < 0 {
			return fmt.Errorf("spec: contest max_lag %d must be >= 1 (0 selects the default)", sp.Contest.MaxLag)
		}
		if sp.Contest.StoreQueueCap < 0 {
			return fmt.Errorf("spec: contest store_queue_cap %d must be >= 1 (0 selects the default)", sp.Contest.StoreQueueCap)
		}
		if sp.Contest.LatencyNs < 0 {
			return fmt.Errorf("spec: negative contest latency_ns %g", sp.Contest.LatencyNs)
		}
		if sp.Contest.ReforkWarmupNs < 0 {
			return fmt.Errorf("spec: negative contest refork warm-up %g", sp.Contest.ReforkWarmupNs)
		}
		if sp.Contest.LeadChangeWarmupNs < 0 {
			return fmt.Errorf("spec: negative contest lead-change warm-up %g", sp.Contest.LeadChangeWarmupNs)
		}
		if !sp.Contest.ExceptionKillRefork &&
			(sp.Contest.ReforkWarmupNs > 0 || sp.Contest.ReforkColdPredictor || sp.Contest.ReforkColdCaches) {
			return fmt.Errorf("spec: refork warm-up options need exception_kill_refork")
		}
	}
	if sp.Run != nil && sp.Kind != KindRun {
		return fmt.Errorf("spec: run options on kind %q", sp.Kind)
	}

	switch sp.Kind {
	case KindExperiment:
		if sp.Experiment == "" {
			return fmt.Errorf("spec: kind experiment needs an experiment ID")
		}
		if _, ok := experiments.Registry[sp.Experiment]; !ok {
			return fmt.Errorf("spec: unknown experiment %q (see the registry: %s)",
				sp.Experiment, strings.Join(experiments.RegistryOrder, ", "))
		}
	case KindExplore:
		e := sp.Explore
		if e.Mode != "anneal" && e.Mode != "temper" {
			return fmt.Errorf("spec: unknown explore mode %q (anneal or temper)", e.Mode)
		}
		if e.Steps < 0 || e.Lookahead < 0 || e.Chains < 0 || e.ExchangeEvery < 0 {
			return fmt.Errorf("spec: negative explore parameter")
		}
		if e.FastMargin < 0 {
			return fmt.Errorf("spec: negative explore fast margin")
		}
		if e.FastMargin > 0 && !e.FastFilter {
			return fmt.Errorf("spec: fast_margin set without fast_filter")
		}
	}

	if sp.Record && sp.Kind != KindRun && sp.Kind != KindContest {
		return fmt.Errorf("spec: record is only supported for run and contest kinds (got %q)", sp.Kind)
	}
	return nil
}

// ResolveCores materializes Cores (palette names) and Custom (explicit
// configurations, validated) into one configuration list, names first.
func (sp *Spec) ResolveCores() ([]config.CoreConfig, error) {
	cfgs := make([]config.CoreConfig, 0, len(sp.Cores)+len(sp.Custom))
	for _, name := range sp.Cores {
		c, err := config.PaletteCore(name)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		cfgs = append(cfgs, c)
	}
	for i, c := range sp.Custom {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("spec: custom core %d: %w", i, err)
		}
		cfgs = append(cfgs, c)
	}
	return cfgs, nil
}
