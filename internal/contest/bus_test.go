package contest

import (
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/ticks"
	"archcontest/internal/workload"
)

// Unit tests for the global result bus. The event-driven engine
// fast-forwards on NextArrival and the saturation boundary decides which
// cores keep contesting, so the bus semantics are load-bearing for
// correctness, not just performance. The tests drive broadcast directly, in
// the global time order a real run produces.

// busSystem builds an n-core system whose bus holds maxLag results, with a
// 1ns (100-tick) core-to-core latency.
func busSystem(t *testing.T, n, maxLag int) *System {
	t.Helper()
	cfgs := make([]config.CoreConfig, n)
	for i := range cfgs {
		cfgs[i] = fastCore(string(rune('a' + i)))
	}
	s, err := NewSystem(cfgs, workload.MustGenerate("gcc", 1000), Options{MaxLag: maxLag})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const busLatency = ticks.PerNanosecond

func TestBusAvailability(t *testing.T) {
	s := busSystem(t, 2, 4)
	f := s.feeds[1]
	s.broadcast(0, 0, 100)
	s.broadcast(0, 1, 110)
	if !f.ResultAvailable(0, 100+busLatency) {
		t.Error("arrived result unavailable")
	}
	if f.ResultAvailable(0, 99+busLatency) {
		t.Error("result available before its arrival")
	}
	if f.ResultAvailable(2, 1000) {
		t.Error("unbroadcast result available")
	}
	f.ConsumeThrough(0)
	if f.ResultAvailable(0, 1000) {
		t.Error("consumed result still available")
	}
	if !f.ResultAvailable(1, 110+busLatency) {
		t.Error("retained result unavailable after consuming its predecessor")
	}
}

func TestBusOutOfOrderPanics(t *testing.T) {
	s := busSystem(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.broadcast(0, 1, 100)
}

func TestBusLaterCopyIgnored(t *testing.T) {
	s := busSystem(t, 3, 2)
	s.broadcast(0, 0, 100)
	s.broadcast(0, 1, 100)
	// Core 2 has consumed nothing, so it lags 2 = MaxLag results behind
	// core 1's copy of result 1; only a first copy can saturate it.
	s.bounds[2] = 1 << 40
	s.broadcast(1, 0, 150)
	s.broadcast(1, 1, 150)
	if s.IsSaturated(2) {
		t.Error("a later copy saturated a receiver")
	}
	if s.bounds[2] != 1<<40 {
		t.Errorf("a later copy clamped a bound to %d", s.bounds[2])
	}
	if at, ok := s.feeds[2].NextArrival(0); !ok || at != 100+busLatency {
		t.Errorf("NextArrival(0) = %d, %v; want the first copy's %d, true", at, ok, 100+busLatency)
	}
	// Both senders' counters advance.
	if _, _, next, _ := s.FeedState(2, 1); next != 2 {
		t.Errorf("core 1 sent %d, want 2", next)
	}
}

func TestBusNextArrival(t *testing.T) {
	s := busSystem(t, 2, 4)
	f := s.feeds[1]
	s.broadcast(0, 0, 100)
	s.broadcast(0, 1, 110)
	if at, ok := f.NextArrival(0); !ok || at != 100+busLatency {
		t.Errorf("NextArrival(0) = %d, %v; want %d, true", at, ok, 100+busLatency)
	}
	// A result still in flight (arrival in the future) is already known.
	if at, ok := f.NextArrival(1); !ok || at != 110+busLatency {
		t.Errorf("NextArrival(1) = %d, %v; want %d, true", at, ok, 110+busLatency)
	}
	if _, ok := f.NextArrival(2); ok {
		t.Error("NextArrival reported an unbroadcast result")
	}
	f.ConsumeThrough(0)
	if _, ok := f.NextArrival(0); ok {
		t.Error("NextArrival reported a consumed result")
	}
}

// TestFeedMinimumArrivalAcrossSenders: the earliest arrival is the first
// retirer's, whichever core that is.
func TestFeedMinimumArrivalAcrossSenders(t *testing.T) {
	s := busSystem(t, 3, 4)
	s.broadcast(2, 0, 100)
	s.broadcast(0, 0, 150)
	for _, recv := range []int{0, 1} {
		if at, ok := s.feeds[recv].NextArrival(0); !ok || at != 100+busLatency {
			t.Errorf("receiver %d: NextArrival(0) = %d, %v; want core 2's %d, true", recv, at, ok, 100+busLatency)
		}
		if !s.feeds[recv].ResultAvailable(0, 100+busLatency) {
			t.Errorf("receiver %d: result unavailable at the first retirer's arrival", recv)
		}
	}
	// Only core 0 has broadcast the next result; the hint still fires.
	s.broadcast(0, 1, 160)
	if at, ok := s.feeds[1].NextArrival(1); !ok || at != 160+busLatency {
		t.Errorf("NextArrival(1) = %d, %v; want %d, true", at, ok, 160+busLatency)
	}
}

func TestBusSaturationBoundary(t *testing.T) {
	s := busSystem(t, 3, 3)
	s.feeds[2].ConsumeThrough(0)
	for i := int64(0); i < 3; i++ {
		s.broadcast(0, i, 100+ticks.Time(i))
	}
	if s.IsSaturated(1) || s.IsSaturated(2) {
		t.Fatal("receiver saturated below MaxLag behind")
	}
	// Receiver 1 has consumed nothing: result 3 finds it exactly MaxLag
	// behind. Receiver 2 consumed result 0 and is one short of the bound.
	s.broadcast(0, 3, 200)
	if !s.IsSaturated(1) {
		t.Error("receiver MaxLag behind not saturated")
	}
	if s.IsSaturated(2) {
		t.Error("receiver MaxLag-1 behind saturated")
	}
	if s.feeds[1].ResultAvailable(1, 1000) {
		t.Error("saturated receiver's feed still reports results")
	}
	if !s.feeds[2].ResultAvailable(3, 1000) {
		t.Error("result unavailable to the receiver within the bound")
	}
}

func TestBusDropsPassedIndex(t *testing.T) {
	s := busSystem(t, 2, 2)
	f := s.feeds[1]
	f.ConsumeThrough(4)
	s.bounds[1] = 1 << 40
	for i := int64(0); i < 5; i++ {
		s.broadcast(0, i, 100+ticks.Time(i))
	}
	// Results the receiver fetched past are discarded: they neither
	// saturate it (5 results against MaxLag 2), nor clamp its bound, nor
	// become available.
	if s.IsSaturated(1) {
		t.Error("discarded results saturated the receiver")
	}
	if s.bounds[1] != 1<<40 {
		t.Errorf("a discarded result clamped the bound to %d", s.bounds[1])
	}
	if f.ResultAvailable(3, 1000) {
		t.Error("discarded result available")
	}
	s.broadcast(0, 5, 200)
	if !f.ResultAvailable(5, 200+busLatency) {
		t.Error("result past the cursor unavailable")
	}
	if s.bounds[1] != 200+busLatency {
		t.Errorf("bound %d, want clamped to the arrival %d", s.bounds[1], 200+busLatency)
	}
}

func TestDisabledFeedReportsNothing(t *testing.T) {
	s := busSystem(t, 2, 4)
	s.broadcast(0, 0, 100)
	s.feeds[1].disabled = true
	if s.feeds[1].ResultAvailable(0, 1000) {
		t.Error("disabled feed reported an available result")
	}
	if _, ok := s.feeds[1].NextArrival(0); ok {
		t.Error("disabled feed reported an arrival hint")
	}
}
