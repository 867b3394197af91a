// Package invariant is the cycle-level checking layer of the verification
// subsystem: an opt-in observer that rides along a simulation and asserts,
// every executed cycle, the structural invariants the engine's correctness
// arguments rest on.
//
// The checker attaches through pipeline.Options.Checker (single cores) and
// contest.Options.Observer (contested systems); both hooks are nil-guarded
// single branches, so steady-state simulation with checking disabled stays
// allocation-free and effectively unchanged. With checking enabled, every
// violation is reported through Options.OnViolation (default: panic), which
// makes the package directly usable from tests and from the fuzz harness.
// Run and Contest (run.go) are the one verified-execution path the
// archcontest facade, the experiments Lab and spec all call.
//
// Single-core invariants (CoreChecker):
//
//   - occupancy bounds: issue-queue, LSQ and ROB occupancy within the
//     configured capacities, window within the structural ring;
//   - in-order retirement: the retire stream is exactly 0,1,2,...,N-1,
//     each index once, at non-decreasing times, replayed instruction by
//     instruction against the oracle's in-order reference execution;
//   - ring integrity: no in-flight window slot aliased by a younger fetch;
//   - counter honesty: the engine's iqCount/lsq counters match a naive
//     recount of the window, Stats.Retired matches the window head;
//   - wake-list completeness: every dispatched, unissued instruction is
//     reachable — in the ready queue, scheduled in the wake heap, or
//     parked on the dependent list of an incomplete producer — so no
//     instruction can be lost by the event-driven issue logic (the
//     lost-wakeup deadlock class);
//   - no unready issue: every live ready-queue entry has no incomplete
//     dependence and a ready cycle at or before the current cycle.
//
// Contest invariants live in SystemObserver (contest.go).
package invariant

import (
	"fmt"

	"archcontest/internal/oracle"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
)

// Options configures a checker.
type Options struct {
	// OnViolation receives every violation. Nil panics on the first one,
	// which is the behaviour the fuzz harness wants.
	OnViolation func(error)
	// ScanEvery is the cycle stride of the O(window) structural scans
	// (ring aliasing, occupancy recount, wake-list completeness). The O(1)
	// checks run every executed cycle regardless. 0 selects 1: scan every
	// cycle.
	ScanEvery int64
	// RecordRetirements keeps the full retired-index sequence in memory so
	// tests can replay it against the oracle (oracle.ReplayChecksum).
	RecordRetirements bool
}

func (o Options) report() func(error) {
	if o.OnViolation != nil {
		return o.OnViolation
	}
	return func(err error) { panic(err) }
}

// CoreChecker asserts single-core invariants. It implements
// pipeline.Checker; attach it via pipeline.Options.Checker or
// sim.RunOptions.Checker. A checker is single-run: build a fresh one per
// core per run.
type CoreChecker struct {
	opts      Options
	onViolate func(error)
	oracle    *oracle.Executor

	lastCycle   int64
	lastRetire  ticks.Time
	nextRetire  int64
	scanCounter int64
	violations  int
	retirements []int64

	// scratch buffers reused across scans to keep checking cheap
	ready, wake, waiters []int64
	reachable            map[int64]bool
}

// NewCoreChecker builds a checker for one run of the given trace.
func NewCoreChecker(tr *trace.Trace, opts Options) *CoreChecker {
	if opts.ScanEvery <= 0 {
		opts.ScanEvery = 1
	}
	return &CoreChecker{
		opts:      opts,
		onViolate: opts.report(),
		oracle:    oracle.New(tr),
		lastCycle: -1,
		reachable: make(map[int64]bool),
	}
}

// Violations reports how many invariant violations have been observed.
func (k *CoreChecker) Violations() int { return k.violations }

// Retirements returns the recorded retired-index sequence (empty unless
// Options.RecordRetirements).
func (k *CoreChecker) Retirements() []int64 { return k.retirements }

// Oracle returns the checker's in-order reference executor, positioned
// just past the last retired instruction.
func (k *CoreChecker) Oracle() *oracle.Executor { return k.oracle }

func (k *CoreChecker) violate(format string, args ...any) {
	k.violations++
	k.onViolate(fmt.Errorf("invariant: "+format, args...))
}

// OnRetire implements pipeline.Checker: retirement must be exactly the
// in-order identity sequence, at non-decreasing times, and each retired
// instruction advances the oracle's reference execution in lockstep.
func (k *CoreChecker) OnRetire(c *pipeline.Core, seq int64, at ticks.Time) {
	if seq != k.nextRetire {
		k.violate("out-of-order retirement: got %d, want %d", seq, k.nextRetire)
		k.nextRetire = seq // resynchronize so one bug reports once
	}
	if at < k.lastRetire {
		k.violate("retirement %d at %v before previous retirement at %v", seq, at, k.lastRetire)
	}
	k.lastRetire = at
	k.nextRetire++
	if k.opts.RecordRetirements {
		k.retirements = append(k.retirements, seq)
	}
	if !k.oracle.Done() && k.oracle.Next() == seq {
		k.oracle.Step()
	} else if k.oracle.Next() != seq+1 {
		k.violate("oracle desynchronized at retirement %d (oracle at %d)", seq, k.oracle.Next())
	}
}

// OnInject implements pipeline.Checker. A stand-alone core has no result
// feed; any injection is a bug. The contest observer overrides this with
// the GRB protocol check.
func (k *CoreChecker) OnInject(c *pipeline.Core, seq int64, at ticks.Time) {
	k.violate("result injection of %d in a stand-alone core", seq)
}

// AfterCycle implements pipeline.Checker.
func (k *CoreChecker) AfterCycle(c *pipeline.Core) {
	ins := c.Inspect()
	cfg := c.Config()
	cycle := c.Cycle()

	// O(1) checks, every executed cycle.
	if cycle <= k.lastCycle {
		k.violate("cycle counter not monotonic: %d after %d", cycle, k.lastCycle)
	}
	k.lastCycle = cycle
	head, disp, tail := ins.HeadSeq(), ins.DispSeq(), ins.TailSeq()
	if head > disp || disp > tail {
		k.violate("window pointers disordered: head %d, dispatch %d, tail %d", head, disp, tail)
	}
	if tail-head > ins.RingSize() {
		k.violate("window %d exceeds structural ring %d", tail-head, ins.RingSize())
	}
	if rob := disp - head; rob < 0 || rob > int64(cfg.ROBSize) {
		k.violate("ROB occupancy %d outside [0,%d]", rob, cfg.ROBSize)
	}
	if iq := ins.IQCount(); iq < 0 || iq > cfg.IQSize {
		k.violate("issue-queue occupancy %d outside [0,%d]", iq, cfg.IQSize)
	}
	if lsq := ins.LSQCount(); lsq < 0 || lsq > cfg.LSQSize {
		k.violate("LSQ occupancy %d outside [0,%d]", lsq, cfg.LSQSize)
	}
	if ins.RetiredCount() != head {
		k.violate("retired count %d does not match window head %d", ins.RetiredCount(), head)
	}
	// A pending mispredicted branch must have been fetched; it may already
	// have retired (head passed it), because the fetch redirect clears the
	// gate only on the cycle after the branch completes.
	if pb := ins.PendingBranch(); pb != pipeline.NoSeq {
		if pb < 0 || pb >= tail {
			k.violate("pending branch %d was never fetched (tail %d)", pb, tail)
		} else if pb >= head {
			if e, ok := ins.Entry(pb); ok && !e.Mispredicted && !e.Completed {
				k.violate("pending branch %d is neither mispredicted nor resolved", pb)
			}
		}
	}

	// O(window) structural scans, every ScanEvery-th executed cycle.
	k.scanCounter++
	if k.scanCounter%k.opts.ScanEvery != 0 {
		return
	}
	k.scan(c, cycle)
}

// scan cross-checks the engine's window bookkeeping against a naive
// reconstruction.
func (k *CoreChecker) scan(c *pipeline.Core, cycle int64) {
	ins := c.Inspect()
	head, disp, tail := ins.HeadSeq(), ins.DispSeq(), ins.TailSeq()

	// The reachable set: everything the issue logic can still wake.
	k.ready = ins.ReadySeqs(k.ready[:0])
	k.wake = ins.WakeSeqs(k.wake[:0])
	for s := range k.reachable {
		delete(k.reachable, s)
	}
	for _, s := range k.ready {
		k.reachable[s] = true
	}
	for _, s := range k.wake {
		k.reachable[s] = true
	}

	iqCount, lsqCount := 0, 0
	for seq := head; seq < tail; seq++ {
		e, ok := ins.Entry(seq)
		if !ok {
			k.violate("window slot of in-flight %d aliased by a younger fetch", seq)
			continue
		}
		if seq < disp {
			if e.InIQ {
				iqCount++
			}
			if c.Trace().At(seq).IsMem() {
				lsqCount++
			}
			if !e.Completed {
				// Dependents of an incomplete producer are reachable
				// through its waiter list.
				k.waiters = ins.Waiters(seq, k.waiters[:0])
				for _, w := range k.waiters {
					k.reachable[w] = true
				}
			}
		}
	}
	if iqCount != ins.IQCount() {
		k.violate("issue-queue recount %d does not match counter %d", iqCount, ins.IQCount())
	}
	if lsqCount != ins.LSQCount() {
		k.violate("LSQ recount %d does not match counter %d", lsqCount, ins.LSQCount())
	}

	// Wake-list completeness: a dispatched, unissued instruction that is
	// unreachable can never issue again — the lost-wakeup deadlock.
	for seq := head; seq < disp; seq++ {
		e, ok := ins.Entry(seq)
		if !ok || !e.InIQ || e.Completed {
			continue
		}
		if !k.reachable[seq] {
			k.violate("instruction %d waits in the issue queue but is unreachable by any wake path", seq)
		}
	}

	// No unready issue: live ready-queue entries must have no incomplete
	// dependence and a ready cycle no later than now.
	for _, seq := range k.ready {
		e, ok := ins.Entry(seq)
		if !ok || !e.InIQ || e.Completed {
			continue // lazily-deleted heap entry
		}
		if b := ins.Blocker(seq); b != pipeline.NoSeq {
			k.violate("ready-queue entry %d still blocked on incomplete %d", seq, b)
		}
		if at := ins.ReadyAt(seq); at > cycle {
			k.violate("ready-queue entry %d ready only at cycle %d (now %d)", seq, at, cycle)
		}
	}
}

// Finish runs the end-of-run checks: the core must have retired exactly
// the first `want` instructions (the full trace for stand-alone runs and
// contest winners).
func (k *CoreChecker) Finish(want int64) {
	if k.nextRetire != want {
		k.violate("run finished with %d retirements, want %d", k.nextRetire, want)
	}
}
