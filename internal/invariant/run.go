package invariant

import (
	"context"
	"errors"
	"fmt"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/obs"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
)

// maxViolations caps how many violations one verified execution keeps, so
// a systematically broken run cannot build an unbounded error chain; the
// rest are only counted.
const maxViolations = 16

// violationLog collects the violations of one verified execution.
type violationLog struct {
	errs []error
	more int
}

func (v *violationLog) add(err error) {
	if len(v.errs) < maxViolations {
		v.errs = append(v.errs, err)
	} else {
		v.more++
	}
}

// err joins the kept violations under a description of what ran; nil when
// there were none.
func (v *violationLog) err(what string) error {
	if len(v.errs) == 0 {
		return nil
	}
	errs := v.errs
	if v.more > 0 {
		errs = append(errs, fmt.Errorf("... and %d further violations", v.more))
	}
	return fmt.Errorf("invariant: verified %s: %w", what, errors.Join(errs...))
}

// Run executes one single-core run with a CoreChecker (structural
// invariants plus oracle replay) attached after any checker opts already
// carries. It returns the run's result, identical to sim.RunContext's, and
// an error listing the violations observed, if any. scanEvery strides the
// O(window) structural scans (0 scans every cycle).
func Run(ctx context.Context, cfg config.CoreConfig, tr *trace.Trace, opts sim.RunOptions, scanEvery int64) (sim.Result, error) {
	var vlog violationLog
	chk := NewCoreChecker(tr, Options{OnViolation: vlog.add, ScanEvery: scanEvery})
	opts.Checker = obs.MultiChecker(opts.Checker, chk)
	res, err := sim.RunContext(ctx, cfg, tr, opts)
	if err != nil {
		return res, err
	}
	chk.Finish(int64(tr.Len()))
	return res, vlog.err(fmt.Sprintf("run of %s on %s", tr.Name(), cfg.Name))
}

// Contest executes one contested run with a SystemObserver (per-core
// checkers plus the contest protocol) attached after any observer opts
// already carries. It returns the run's result, identical to
// contest.RunContext's, and an error listing the violations observed, if
// any. scanEvery is as for Run.
func Contest(ctx context.Context, cfgs []config.CoreConfig, tr *trace.Trace, opts contest.Options, scanEvery int64) (contest.Result, error) {
	var vlog violationLog
	sys := NewSystemObserver(tr, Options{OnViolation: vlog.add, ScanEvery: scanEvery})
	opts.Observer = obs.MultiObserver(opts.Observer, sys)
	res, err := contest.RunContext(ctx, cfgs, tr, opts)
	if err != nil {
		return res, err
	}
	sys.Finish(res)
	return res, vlog.err("contest of " + tr.Name())
}
