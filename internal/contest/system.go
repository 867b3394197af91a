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

	saturated   []bool
	leadChanges int64
	leader      int
	exc         *exceptionCoordinator

	// bounds, allocated only by the event-driven scheduler, holds per-core
	// fast-forward bounds: every cycle of core i with a clock edge strictly
	// before bounds[i] is known to be dead. A retirement anywhere in the
	// system clamps every other core's bound to the retirement time, since
	// its side effects (result arrival, store-queue drain, saturation,
	// exception rendezvous) can wake a core no earlier than that.
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
		saturated: make([]bool, n),
		feeds:     make([]*feed, n),
		cores:     make([]*pipeline.Core, n),
	}
	for i := range s.feeds {
		f := &feed{senders: make([]*senderRing, 0, n-1)}
		for j := 0; j < n-1; j++ {
			f.senders = append(f.senders, newSenderRing(opts.MaxLag))
		}
		s.feeds[i] = f
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

// FeedState reports the state of receiver's result FIFO for sender: the
// pop counter (lo), one past the newest retained result (hi), and the next
// index the sender will broadcast. ok is false when receiver == sender.
func (s *System) FeedState(receiver, sender int) (lo, hi, next int64, ok bool) {
	if receiver == sender {
		return 0, 0, 0, false
	}
	ring := s.feeds[receiver].senders[senderSlot(receiver, sender)]
	return ring.lo, ring.hi, ring.next, true
}

// senderSlot maps sender `from` into receiver `to`'s ring list (receivers
// hold one ring per remote core, ordered by core index with self skipped).
func senderSlot(to, from int) int {
	if from < to {
		return from
	}
	return from - 1
}

// broadcast is core `from`'s global result bus: the retired result of
// instruction idx reaches every other core after the propagation latency.
// A receiver whose FIFO overflows is a saturated lagger: contesting is
// disabled for it and its stores stop gating the store queue.
func (s *System) broadcast(from int, idx int64, at ticks.Time) {
	arrival := at.Add(s.latency)
	for to := range s.cores {
		if to == from || s.saturated[to] || s.feeds[to].disabled {
			continue
		}
		ring := s.feeds[to].senders[senderSlot(to, from)]
		// Drop anything the receiver has already fetched past; the receiver
		// also consumes on its own cycle, but a slow receiver's view must
		// not overflow on what it would discard anyway.
		if !ring.push(idx, arrival) {
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
		if s.bounds != nil && s.bounds[to] > arrival {
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
// the context ends. A Background context costs one nil check at entry.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	if s.opts.SingleStep {
		return s.runSingleStep(ctx)
	}
	return s.runEventDriven(ctx)
}

// runSingleStep is the reference scheduler: one cycle of one core at a
// time, always the core with the earliest next clock edge.
func (s *System) runSingleStep(ctx context.Context) (Result, error) {
	maxTime := ticks.Time(ticks.FromNanoseconds(s.opts.MaxTimeNs))
	n := len(s.cores)
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
		// Step the core with the earliest next clock edge; ties resolve by
		// core index, the paper's round-robin handshake order.
		min := 0
		for i := 1; i < n; i++ {
			if s.cores[i].Now() < s.cores[min].Now() {
				min = i
			}
		}
		c := s.cores[min]
		if c.Now() > maxTime {
			return Result{}, fmt.Errorf("contest: %s exceeded %gns without finishing", s.tr.Name(), s.opts.MaxTimeNs)
		}
		c.Step()
		if r := c.Retired(); r > s.cores[s.leader].Retired() && min != s.leader {
			s.leader = min
			s.leadChanges++
		}
		if s.opts.Observer != nil {
			s.opts.Observer.AfterStep(s, min)
		}
		if c.Done() {
			return s.result(min), nil
		}
	}
}

// runner holds the event-driven scheduler's per-run state (the indexed
// core heap, the fast-forward bounds, the time budget). step executes
// exactly one scheduler iteration — a dead-cycle fast-forward or one core
// cycle — and runEventDriven drives it to completion.
type runner struct {
	s       *System
	h       *coreHeap
	maxTime ticks.Time
	winner  int
}

// newRunner prepares the system for event-driven execution. A system runs
// once: building a second runner on the same system is invalid.
func (s *System) newRunner() *runner {
	s.bounds = make([]ticks.Time, len(s.cores))
	return &runner{
		s:       s,
		h:       newCoreHeap(s),
		maxTime: ticks.Time(ticks.FromNanoseconds(s.opts.MaxTimeNs)),
		winner:  -1,
	}
}

// step executes one scheduler iteration. It reports true when the contest
// finished (the winner is recorded on the runner), and an error when a core
// exceeded the time budget. Calling step after completion is invalid.
//
// The scheduling rule: cores live in an indexed min-heap keyed on each
// core's live edge — the later of its current clock edge and its
// fast-forward bound. Popping the heap minimum guarantees that every other
// core's next state change lies at or beyond that time, so a popped core
// whose bound is ahead of its clock may jump straight to the bound: all the
// skipped cycles are dead, and nothing another core does in the meantime
// (clamped into the bound by broadcast) can wake it earlier.
//
// The execution it produces is the single-step schedule with dead cycles
// deleted: every progressing step of every core happens at the same cycle,
// in the same global order, with the same inputs, so all reported numbers —
// including each core's dead-cycle-inflated Stats.Cycles, reconstructed at
// the end by settle — are bit-identical to runSingleStep.
func (r *runner) step() (bool, error) {
	s := r.s
	i := r.h.min()
	c := s.cores[i]
	if c.Now() > r.maxTime {
		return false, fmt.Errorf("contest: %s exceeded %gns without finishing", s.tr.Name(), s.opts.MaxTimeNs)
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
		r.h.fix()
		return false, nil
	}
	c.Step()
	if ret := c.Retired(); ret > s.cores[s.leader].Retired() && i != s.leader {
		s.leader = i
		s.leadChanges++
	}
	if s.opts.Observer != nil {
		s.opts.Observer.AfterStep(s, i)
	}
	if c.Done() {
		s.settle(i)
		r.winner = i
		return true, nil
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
	// The step may have broadcast retirements that clamped any bound.
	r.h.fix()
	return false, nil
}

// runEventDriven drives a runner to completion (see runner).
func (s *System) runEventDriven(ctx context.Context) (Result, error) {
	r := s.newRunner()
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
		fin, err := r.step()
		if err != nil {
			return Result{}, err
		}
		if fin {
			return s.result(r.winner), nil
		}
	}
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
