package contest

import (
	"context"
	"fmt"

	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
)

// System is an N-way contesting multi-core executing one trace.
type System struct {
	cores   []*pipeline.Core
	feeds   []*feed
	queue   *StoreQueue
	latency ticks.Duration
	opts    Options
	tr      *trace.Trace

	// bus is the global result bus: the earliest arrival of result idx at
	// bus[idx%MaxLag], retained for [busHi-MaxLag, busHi). busHi is one
	// past the newest index any core has broadcast, and sent[i] counts the
	// results core i has broadcast.
	bus   []ticks.Time
	busHi int64
	sent  []int64

	saturated   []bool
	leadChanges int64
	leader      int
	exc         *exceptionCoordinator

	// bounds holds per-core fast-forward bounds: every cycle of core i
	// with a clock edge strictly before bounds[i] is known to be dead. The
	// single-step scheduler leaves every bound at zero. A retirement
	// clamps the bound of every core its result can wake (see broadcast).
	bounds []ticks.Time
}

// NewSystem builds a contesting system over the given core configurations.
// Private hierarchies run write-through, as contesting requires.
func NewSystem(cfgs []config.CoreConfig, tr *trace.Trace, opts Options) (*System, error) {
	if len(cfgs) < 2 {
		return nil, fmt.Errorf("contest: need at least two cores, got %d", len(cfgs))
	}
	if len(cfgs) > 8 {
		return nil, fmt.Errorf("contest: %d cores exceeds the supported 8", len(cfgs))
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("contest: empty trace")
	}
	opts.applyDefaults(tr.Len())
	lat := ticks.FromNanoseconds(opts.LatencyNs)
	if lat < 1 {
		return nil, fmt.Errorf("contest: core-to-core latency %gns below one time-unit", opts.LatencyNs)
	}
	if opts.ReforkWarmupNs < 0 {
		return nil, fmt.Errorf("contest: negative refork warm-up %gns", opts.ReforkWarmupNs)
	}
	if opts.LeadChangeWarmupNs < 0 {
		return nil, fmt.Errorf("contest: negative lead-change warm-up %gns", opts.LeadChangeWarmupNs)
	}

	n := len(cfgs)
	s := &System{
		latency:   lat,
		opts:      opts,
		tr:        tr,
		queue:     NewStoreQueue(n, opts.StoreQueueCap),
		bus:       make([]ticks.Time, opts.MaxLag),
		sent:      make([]int64, n),
		saturated: make([]bool, n),
		bounds:    make([]ticks.Time, n),
		feeds:     make([]*feed, n),
		cores:     make([]*pipeline.Core, n),
	}
	for i := range s.feeds {
		s.feeds[i] = &feed{sys: s}
	}
	if opts.ExceptionEvery > 0 {
		s.exc = &exceptionCoordinator{
			sys:      s,
			interval: opts.ExceptionEvery,
			handler:  ticks.FromNanoseconds(opts.ExceptionHandlerNs),
			barrier:  -1,
		}
		if opts.ExceptionKillRefork {
			s.exc.refork = ticks.FromNanoseconds(opts.ExceptionReforkNs)
			s.exc.warmup = ticks.FromNanoseconds(opts.ReforkWarmupNs)
			s.exc.coldPred = opts.ReforkColdPredictor
			s.exc.coldCaches = opts.ReforkColdCaches
		}
	}
	for i, cfg := range cfgs {
		i := i
		popts := pipeline.Options{
			WritePolicy:     cache.WriteThrough,
			RegionSize:      opts.RegionSize,
			Feed:            s.feeds[i],
			StoreSink:       coreSink{q: s.queue, core: i},
			OnRetire:        func(idx int64, at ticks.Time) { s.broadcast(i, idx, at) },
			NoTrainOnInject: opts.NoTrainOnInject,
			LegacySched:     opts.LegacySched,
		}
		if s.exc != nil {
			popts.RetireGate = func(idx int64, at ticks.Time) bool { return s.exc.gate(i, idx, at) }
		}
		if opts.Observer != nil {
			popts.Checker = opts.Observer.CoreChecker(i)
		}
		core, err := pipeline.NewCore(cfg, tr, popts)
		if err != nil {
			return nil, fmt.Errorf("contest: core %d (%s): %w", i, cfg.Name, err)
		}
		s.cores[i] = core
	}
	if opts.Observer != nil {
		opts.Observer.Attach(s)
	}
	return s, nil
}

// NumCores reports the number of contesting cores.
func (s *System) NumCores() int { return len(s.cores) }

// Core returns core i, for read-only inspection by verification observers.
func (s *System) Core(i int) *pipeline.Core { return s.cores[i] }

// Trace reports the trace the system is executing.
func (s *System) Trace() *trace.Trace { return s.tr }

// Options reports the system's options with defaults applied.
func (s *System) Options() Options { return s.opts }

// Leader reports the index of the current leading core.
func (s *System) Leader() int { return s.leader }

// LeadChanges reports how often the leader has changed so far.
func (s *System) LeadChanges() int64 { return s.leadChanges }

// IsSaturated reports whether core i has been declared a saturated lagger.
func (s *System) IsSaturated(i int) bool { return s.saturated[i] }

// Queue returns the synchronizing store queue, for verification observers
// (read-only, except for installing the Merged callback before the run).
func (s *System) Queue() *StoreQueue { return s.queue }

// FeedState reports receiver's view of sender's results: receiver's pop
// counter (lo), one past the newest result from sender it retains (hi, at
// least lo), and the number of results sender has broadcast (next). ok is
// false when receiver == sender.
func (s *System) FeedState(receiver, sender int) (lo, hi, next int64, ok bool) {
	if receiver == sender {
		return 0, 0, 0, false
	}
	lo, next = s.feeds[receiver].lo, s.sent[sender]
	return lo, max(lo, next), next, true
}

// BusArrival reports the arrival time the global result bus holds for
// result idx; ok is false unless idx is retained, in [busHi-MaxLag, busHi).
func (s *System) BusArrival(idx int64) (at ticks.Time, ok bool) {
	if idx >= s.busHi || idx < s.busHi-int64(len(s.bus)) || idx < 0 {
		return 0, false
	}
	return s.bus[idx%int64(len(s.bus))], true
}

// broadcast puts core `from`'s retired result idx on the global result bus.
// Latency is the same for every pair of cores and retirements happen in
// global time order, so the first core to retire idx delivers it earliest
// to every receiver: its copy is the only one written, and later copies
// change nothing. The first retirer never takes its own copy: it has
// fetched past idx, or idx is its own mispredicted branch, complete and
// redirecting before the copy arrives. A receiver the first copy finds
// MaxLag results behind is a saturated lagger: contesting is disabled for
// it and its stores stop gating the store queue.
func (s *System) broadcast(from int, idx int64, at ticks.Time) {
	if idx != s.sent[from] {
		panic(fmt.Sprintf("contest: core %d broadcast %d out of order, expected %d", from, idx, s.sent[from]))
	}
	s.sent[from]++
	if idx < s.busHi {
		return
	}
	arrival := at.Add(s.latency)
	s.bus[idx%int64(len(s.bus))] = arrival
	s.busHi = idx + 1
	for to, f := range s.feeds {
		// Receivers that already fetched past idx discard it (Scenario
		// #1's late results).
		if to == from || f.disabled || idx < f.lo {
			continue
		}
		if idx-f.lo >= int64(len(s.bus)) {
			s.declareSaturated(to)
			continue
		}
		// A receiver fast-forwarding past the arrival would miss the
		// injection or early branch resolution this result can trigger;
		// clamp its bound to the arrival edge. The queue-drain, saturation,
		// and rendezvous side effects of a retirement need no clamp: a core
		// blocked on them presents itself every cycle (extStalled), and an
		// unblocked core consults them exactly at its own retire candidate,
		// which its bound already includes.
		if s.bounds[to] > arrival {
			s.bounds[to] = arrival
		}
	}
}

func (s *System) declareSaturated(core int) {
	s.saturated[core] = true
	s.feeds[core].disabled = true
	s.queue.DisableCore(core)
}

// ctxPollStride matches sim.ctxPollStride: scheduler iterations between
// context polls. The check never runs per simulated cycle.
const ctxPollStride = 4096

// Run executes the contest to completion: the system finishes when the
// first core retires the whole trace. The event-driven scheduler is used
// unless Options.SingleStep selects the reference cycle-by-cycle loop; both
// produce bit-identical results.
func (s *System) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: both scheduler loops
// poll ctx.Done() every ctxPollStride iterations and return ctx.Err() when
// the context ends. A Background context costs one nil check at entry. A
// system runs once.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	if s.opts.SingleStep {
		return s.runSingleStep(ctx)
	}
	return s.runEventDriven(ctx)
}

// runSingleStep is the reference scheduler: one cycle of one core at a
// time, always the core with the earliest next clock edge. It never sets a
// fast-forward bound, so next picks by clock edge alone.
func (s *System) runSingleStep(ctx context.Context) (Result, error) {
	maxTime := ticks.Time(ticks.FromNanoseconds(s.opts.MaxTimeNs))
	done := ctx.Done()
	var poll int
	for {
		if done != nil {
			if poll++; poll >= ctxPollStride {
				poll = 0
				select {
				case <-done:
					return Result{}, ctx.Err()
				default:
				}
			}
		}
		i := s.next()
		c := s.cores[i]
		if c.Now() > maxTime {
			return Result{}, fmt.Errorf("contest: %s exceeded %gns without finishing", s.tr.Name(), s.opts.MaxTimeNs)
		}
		c.Step()
		if r := c.Retired(); r > s.cores[s.leader].Retired() && i != s.leader {
			s.leader = i
			s.leadChanges++
		}
		if s.opts.Observer != nil {
			s.opts.Observer.AfterStep(s, i)
		}
		if c.Done() {
			return s.result(i), nil
		}
	}
}

// runEventDriven is the fast scheduler. A core that made no progress gets
// a fast-forward bound at its next event, and next picks the core with the
// earliest live edge — the later of its clock edge and its bound. Every
// other core's next state change then lies at or beyond that time, so a
// picked core whose bound is ahead of its clock may jump straight to the
// bound: all the skipped cycles are dead, and nothing another core does in
// the meantime (clamped into the bound by broadcast) can wake it earlier.
//
// The execution it produces is the single-step schedule with dead cycles
// deleted: every progressing step of every core happens at the same cycle,
// in the same global order, with the same inputs, so all reported numbers —
// including each core's dead-cycle-inflated Stats.Cycles, reconstructed at
// the end by settle — are bit-identical to runSingleStep.
func (s *System) runEventDriven(ctx context.Context) (Result, error) {
	maxTime := ticks.Time(ticks.FromNanoseconds(s.opts.MaxTimeNs))
	done := ctx.Done()
	var poll int
	for {
		if done != nil {
			if poll++; poll >= ctxPollStride {
				poll = 0
				select {
				case <-done:
					return Result{}, ctx.Err()
				default:
				}
			}
		}
		i := s.next()
		c := s.cores[i]
		if c.Now() > maxTime {
			return Result{}, fmt.Errorf("contest: %s exceeded %gns without finishing", s.tr.Name(), s.opts.MaxTimeNs)
		}
		if b := s.bounds[i]; b > c.Now() {
			// Fast-forward over the dead cycles to the first edge at or
			// past the bound.
			clk := c.Clock()
			cc := clk.CycleAt(b)
			if clk.TimeOfCycle(cc) < b {
				cc++
			}
			c.SkipTo(cc)
			s.bounds[i] = 0
			continue
		}
		c.Step()
		if r := c.Retired(); r > s.cores[s.leader].Retired() && i != s.leader {
			s.leader = i
			s.leadChanges++
		}
		if s.opts.Observer != nil {
			s.opts.Observer.AfterStep(s, i)
		}
		if c.Done() {
			s.settle(i)
			return s.result(i), nil
		}
		if c.Progressed() {
			s.bounds[i] = 0
		} else if next, ok := c.NextEvent(); ok {
			s.bounds[i] = c.Clock().TimeOfCycle(next)
		} else {
			// Blocked on the store queue or the exception rendezvous:
			// their state changes on other cores' retirements in ways the
			// core cannot bound, and the gate consult itself mutates the
			// coordinator, so the core must present itself every cycle.
			s.bounds[i] = 0
		}
	}
}

// next reports the core to schedule: the one with the earliest live edge,
// ties broken by core index — the paper's round-robin handshake order.
func (s *System) next() int {
	best, bestAt := 0, ticks.Time(0)
	for i, c := range s.cores {
		t := c.Now()
		if b := s.bounds[i]; b > t {
			t = b
		}
		if i == 0 || t < bestAt {
			best, bestAt = i, t
		}
	}
	return best
}

// settle reconstructs the losing cores' cycle counters at the moment the
// single-step scheduler would have exited: each non-winner keeps being
// stepped through its dead tail cycles until its clock edge passes the
// winner's finishing edge (cores after the winner in index order stop at
// the first edge at or past it, cores before it at the first edge strictly
// past it — the tie order of the reference scheduler).
func (s *System) settle(winner int) {
	w := s.cores[winner]
	finish := w.Clock().TimeOfCycle(w.Cycle() - 1)
	for j, c := range s.cores {
		if j == winner {
			continue
		}
		clk := c.Clock()
		cc := clk.CycleAt(finish)
		if j > winner {
			if clk.TimeOfCycle(cc) < finish {
				cc++
			}
		} else {
			cc++
		}
		c.SkipTo(cc)
	}
}

func (s *System) result(winner int) Result {
	res := Result{
		Benchmark:   s.tr.Name(),
		Insts:       int64(s.tr.Len()),
		Time:        s.cores[winner].Stats().FinishTime,
		Winner:      winner,
		LeadChanges: s.leadChanges,
		Saturated:   append([]bool(nil), s.saturated...),
		Regions:     s.cores[winner].RegionTimes(),
	}
	if s.exc != nil {
		res.StateTransfer = s.exc.transfer
	}
	if s.opts.LeadChangeWarmupNs > 0 && s.leadChanges > 0 {
		// Post-hoc accounting: leadership hand-offs are charged against the
		// final time without having altered the contest's dynamics.
		st := ticks.FromNanoseconds(s.opts.LeadChangeWarmupNs) * ticks.Duration(s.leadChanges)
		res.StateTransfer += st
		res.Time = res.Time.Add(st)
	}
	for _, c := range s.cores {
		res.Cores = append(res.Cores, c.Config().Name)
		res.PerCore = append(res.PerCore, c.Stats())
	}
	return res
}

// Run builds and runs a contesting system in one call.
func Run(cfgs []config.CoreConfig, tr *trace.Trace, opts Options) (Result, error) {
	return RunContext(context.Background(), cfgs, tr, opts)
}

// RunContext builds and runs a contesting system in one call, with
// cooperative cancellation (see System.RunContext).
func RunContext(ctx context.Context, cfgs []config.CoreConfig, tr *trace.Trace, opts Options) (Result, error) {
	s, err := NewSystem(cfgs, tr, opts)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx)
}
