// Package contest implements architectural contesting — the paper's primary
// contribution. N cores of a heterogeneous CMP concurrently execute the
// same dynamic instruction stream; each broadcasts its retired results on
// the global result bus (GRB) with a configurable core-to-core latency, and
// each consumes the other cores' results through its own result FIFO: a
// consume cursor (the pop counter) into one arrival ring the system shares.
// The latency is the same for every pair and retirements happen in global
// time order, so a result's earliest arrival at every receiver is the first
// retirer's, and one ring serves all receivers.
//
// A core whose fetch counter has caught up with its pop counter is trailing
// (the paper's Scenario #2): it pairs arriving results with the
// instructions it fetches and completes them without executing them, which
// keeps it within a bounded lagging distance of the leader. When the
// workload behaviour changes, the core best suited to the new region drains
// its FIFO, runs ahead, and becomes the leader — no phase detection, no
// reconfiguration, no migration.
//
// Stores are performed redundantly in each core's private (write-through)
// hierarchy and merged below it by a synchronizing store queue, SRT-style:
// one merged instance proceeds to the shared level once every active core
// has performed the store. A core whose peak consume rate cannot keep up
// with the leader falls MaxLag results behind and is detected as a
// saturated lagger; contesting is disabled for it, exactly as the paper
// prescribes.
package contest

import (
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
)

// Options configures a contested run.
type Options struct {
	// LatencyNs is the core-to-core (GRB propagation) latency in
	// nanoseconds. Zero selects the paper's default of 1ns.
	LatencyNs float64
	// MaxLag is the result-FIFO capacity in instructions: the maximum
	// lagging distance before a core is declared a saturated lagger. The
	// bound must cover the deepest window plus the drain transient of a
	// slow memory phase, so that only a *structural* rate mismatch (a
	// follower whose peak consume rate is below the leader's retire rate)
	// trips it. Zero selects 4096.
	MaxLag int
	// StoreQueueCap is the synchronizing store queue capacity in merged
	// store entries. A full queue backpressures retirement of stores.
	// Zero selects 256.
	StoreQueueCap int
	// RegionSize, if non-zero, logs per-region retirement times on every
	// core (the system-level region log is the winner's).
	RegionSize int
	// NoTrainOnInject disables predictor training on injected branches.
	NoTrainOnInject bool
	// ExceptionEvery, if non-zero, raises a synchronous exception at every
	// ExceptionEvery-th instruction: no core retires it before every active
	// core has reached it and the handler has run (paper Section 4.3).
	ExceptionEvery int64
	// ExceptionHandlerNs is the handler service time once all cores arrive
	// (0 selects 50ns when exceptions are enabled).
	ExceptionHandlerNs float64
	// ExceptionKillRefork models the older terminate-and-refork scheme
	// instead of the paper's parallelized handler: each non-designated
	// core adds a refork penalty of ExceptionReforkNs (0 selects 500ns).
	ExceptionKillRefork bool
	// ExceptionReforkNs is the per-core refork penalty under
	// ExceptionKillRefork.
	ExceptionReforkNs float64
	// ReforkWarmupNs charges an additional state-transfer interval per
	// reforked (non-designated) core under ExceptionKillRefork, on top of
	// ExceptionReforkNs: the time to re-establish the architectural and TLB
	// state the kill destroyed. Zero charges nothing, preserving existing
	// results bit-for-bit.
	ReforkWarmupNs float64
	// ReforkColdPredictor, under ExceptionKillRefork, resets the branch
	// predictor tables of every non-designated core when a kill-refork
	// barrier forms: the reforked thread re-trains from cold state, and the
	// warm-up mispredicts that follow are paid inside the simulation.
	ReforkColdPredictor bool
	// ReforkColdCaches, under ExceptionKillRefork, likewise invalidates the
	// non-designated cores' private cache hierarchies at each kill-refork
	// (statistics and port state are preserved).
	ReforkColdCaches bool
	// LeadChangeWarmupNs charges a post-hoc state-transfer interval per
	// lead change, modelling contesting variants where handing leadership
	// to another core is not free (e.g. migrating privileged state). It is
	// pure accounting: the charge is added to Result.Time after the run and
	// never alters the contest's dynamics. Zero charges nothing.
	LeadChangeWarmupNs float64
	// MaxTimeNs aborts runs exceeding the bound (0 = a generous default
	// derived from the trace length).
	MaxTimeNs float64
	// SingleStep forces the reference cycle-by-cycle scheduler instead of
	// the event-driven one. The two produce bit-identical results (the
	// golden-equivalence tests lock this); single-stepping exists as the
	// reference semantics and for debugging.
	SingleStep bool
	// Observer, if non-nil, attaches a verification observer to the system
	// (see internal/invariant). It never alters the run's result and is
	// excluded from result-cache keys; campaign layers must bypass their
	// caches when an observer is attached, or the checks silently don't
	// run.
	Observer Observer `json:"-"`
	// LegacySched selects the pre-rework heap-based ready queue on every
	// core (see pipeline.Options.LegacySched). It is a test-only shim for
	// the scheduler equivalence suite and must never enter a cache key:
	// both schedulers produce bit-identical results by construction.
	LegacySched bool `json:"-"`
}

// Observer observes a contested run for verification. Implementations
// inspect the system through its read-only accessors and must not mutate
// any simulation state.
type Observer interface {
	// Attach is called once from NewSystem, after the system is fully
	// constructed and before the first cycle.
	Attach(sys *System)
	// CoreChecker returns the per-core pipeline checker for core i, or nil.
	// It is called during system construction, before Attach.
	CoreChecker(core int) pipeline.Checker
	// AfterStep runs after every stepped core cycle (fast-forward jumps,
	// which change no state, are not seen). core is the stepped core.
	AfterStep(sys *System, core int)
}

func (o *Options) applyDefaults(n int) {
	if o.LatencyNs == 0 {
		o.LatencyNs = 1.0
	}
	if o.MaxLag == 0 {
		o.MaxLag = 4096
	}
	if o.StoreQueueCap == 0 {
		o.StoreQueueCap = 256
	}
	if o.ExceptionEvery > 0 && o.ExceptionHandlerNs == 0 {
		o.ExceptionHandlerNs = 50
	}
	if o.ExceptionKillRefork && o.ExceptionReforkNs == 0 {
		o.ExceptionReforkNs = 500
	}
	if o.MaxTimeNs == 0 {
		// At least 100ns, and 100ns per instruction of trace: two orders
		// of magnitude beyond any sane IPT in this repository.
		o.MaxTimeNs = 100 + 100*float64(n)
	}
}

// Result summarizes a contested run.
type Result struct {
	// Benchmark is the trace name; Cores the contestant names.
	Benchmark string
	Cores     []string
	// Insts is the trace length.
	Insts int64
	// Time is when the first core retired the last instruction.
	Time ticks.Time
	// Winner is the index of the core that finished first.
	Winner int
	// LeadChanges counts how often the identity of the most-retired core
	// changed during the run.
	LeadChanges int64
	// Saturated marks cores that fell MaxLag results behind (contesting
	// was disabled for them).
	Saturated []bool
	// PerCore holds each core's final counters.
	PerCore []pipeline.Stats
	// Regions is the winning core's per-region retirement log, if enabled.
	Regions []ticks.Time
	// StateTransfer is the total warm-up time charged for state transfer:
	// the kill-refork warm-up intervals (ReforkWarmupNs, already inside
	// Time via the rendezvous release) plus the post-hoc lead-change
	// charges (LeadChangeWarmupNs, added to Time after the run). Zero when
	// neither knob is set.
	StateTransfer ticks.Duration
}

// IPT reports the system's instructions per nanosecond.
func (r Result) IPT() float64 {
	ns := r.Time.Nanoseconds()
	if ns == 0 {
		return 0
	}
	return float64(r.Insts) / ns
}

// feed is one core's result FIFO on the system's global result bus; it
// implements pipeline.ResultFeed. Results below lo have been consumed or
// discarded; results in [lo, busHi) are retained, each at its earliest
// arrival.
type feed struct {
	sys      *System
	lo       int64 // pop counter: the oldest result still retained
	disabled bool
}

// arrival reports the earliest arrival time of result idx, if it has been
// broadcast and this core has not consumed past it (the result is
// retained, possibly still in flight).
func (f *feed) arrival(idx int64) (ticks.Time, bool) {
	s := f.sys
	if f.disabled || idx < f.lo || idx >= s.busHi {
		return 0, false
	}
	return s.bus[idx%int64(len(s.bus))], true
}

func (f *feed) ResultAvailable(idx int64, t ticks.Time) bool {
	at, ok := f.arrival(idx)
	return ok && at <= t
}

func (f *feed) NextArrival(idx int64) (ticks.Time, bool) { return f.arrival(idx) }

func (f *feed) ConsumeThrough(idx int64) {
	if idx >= f.lo {
		f.lo = idx + 1
	}
}

var _ pipeline.ResultFeed = (*feed)(nil)
