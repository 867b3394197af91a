package pipeline

// Engine microbenchmarks and allocation regression tests for the
// throughput rework: bitmap vs legacy wake-list scheduling, and hard
// zero-allocation assertions on the steady-state step loop (including the
// divider-retry path, which a missing scratch preallocation would silently
// regress).

import (
	"reflect"
	"runtime"
	"testing"

	"archcontest/internal/isa"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

const benchInsts = 20_000

func benchCore(b *testing.B, name string, opts Options) *Core {
	b.Helper()
	tr := workload.MustGenerate(name, benchInsts)
	c, err := NewCore(testConfig(), tr, opts)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkScheduler compares the bitmap ready-selection scheduler against
// the pre-rework heap-based wake-list it replaced, on the same trace and
// configuration.
func BenchmarkScheduler(b *testing.B) {
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"bitmap", false}, {"wakelist", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := benchCore(b, "mcf", Options{LegacySched: mode.legacy})
				b.StartTimer()
				for !c.Done() {
					c.Advance()
				}
			}
			b.ReportMetric(benchInsts, "insts/op")
		})
	}
}

// mallocsDuring returns the exact number of heap allocations performed by
// f on this goroutine.
func mallocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStepLoopDoesNotAllocate: after construction, running a whole
// mixed-workload trace performs zero heap allocations — every scratch
// structure (timing wheel, overflow heap, retry list, bitmap words) must
// be sized at construction. This is the regression fence for the
// campaign, where per-step allocations multiply across cores.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	for _, bench := range []string{"mcf", "crafty"} {
		tr := workload.MustGenerate(bench, 50_000)
		c, err := NewCore(testConfig(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := mallocsDuring(func() {
			for !c.Done() {
				c.Advance()
			}
		}); n != 0 {
			t.Errorf("%s: step loop performed %d heap allocations, want 0", bench, n)
		}
	}
}

// TestDivRetryDoesNotAllocate drives the divider-retry path hard: a wide
// window full of independent divides keeps the unpipelined divider busy,
// so every scheduling pass defers ready divides through the retry scratch
// list. If that list were not preallocated to IQ capacity at construction
// (the latent regression this test fences), the growth would show up here
// as run-time allocations.
func TestDivRetryDoesNotAllocate(t *testing.T) {
	insts := make([]isa.Inst, 4096)
	for i := range insts {
		insts[i] = isa.Inst{Op: isa.OpDiv, PC: 0x40, Dst: isa.RegID(10 + i%32), Src1: 1}
	}
	c, err := NewCore(testConfig(), trace.New("divs", insts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := mallocsDuring(func() {
		for !c.Done() {
			c.Advance()
		}
	}); n != 0 {
		t.Errorf("div-retry loop performed %d heap allocations, want 0", n)
	}
	if got := c.Stats().Retired; got != int64(len(insts)) {
		t.Fatalf("retired %d of %d", got, len(insts))
	}
}

// TestStaleWakeEquivalence pins the schedulers against each other in the
// regime where their wake bookkeeping differs most: a tiny ROB with a
// memory latency far beyond the timing-wheel horizon, so bitmap mode
// spills wake-ups into the overflow heap while legacy mode heaps
// everything. Any stale-wake mishandling (a slot woken for a previous
// occupant) diverges the two.
func TestStaleWakeEquivalence(t *testing.T) {
	cfg := testConfig()
	cfg.ROBSize = 8
	cfg.IQSize = 8
	cfg.LSQSize = 8
	cfg.MemLatencyCycles = 600

	insts := make([]isa.Inst, 2048)
	for i := range insts {
		switch i % 3 {
		case 0:
			insts[i] = isa.Inst{Op: isa.OpLoad, PC: 0x40, Dst: isa.RegID(10 + i%16), Src1: 1,
				Addr: uint64(0x100000 + i*4096)}
		case 1:
			insts[i] = isa.Inst{Op: isa.OpALU, PC: 0x44, Dst: isa.RegID(10 + i%16),
				Src1: isa.RegID(10 + (i-1)%16)}
		default:
			insts[i] = isa.Inst{Op: isa.OpDiv, PC: 0x48, Dst: isa.RegID(10 + i%16), Src1: 1}
		}
	}
	tr := trace.New("stale-wake", insts)

	run := func(legacy bool) Stats {
		c, err := NewCore(cfg, tr, Options{LegacySched: legacy})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; !c.Done(); i++ {
			c.Advance()
			if i > 10_000_000 {
				t.Fatal("run did not terminate")
			}
		}
		return c.Stats()
	}
	bitmap, legacy := run(false), run(true)
	if !reflect.DeepEqual(bitmap, legacy) {
		t.Errorf("schedulers diverge under overflow-heap pressure\nbitmap: %+v\nlegacy: %+v", bitmap, legacy)
	}
}
