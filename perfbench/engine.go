package main

import (
	"fmt"
	"runtime"
	"time"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// engineN is the engine workload's trace length: the ROADMAP's
// 1M-instruction user path.
const engineN = 1_000_000

// engineOp is one engine operation: a benchmark's trace, run solo on the
// benchmark's own palette core, in a 2-way contest and in a 4-way contest.
type engineOp struct {
	bench string
	solo  config.CoreConfig
	c2    []config.CoreConfig
	c4    []config.CoreConfig
}

// engineRound draws one round of operations from the seed. A round visits
// every benchmark once, in a seeded order. With B the sorted benchmark
// list, benchmark B[p] contests 2-way against B[p+k] and 4-way against
// B[p+1], B[p+2] and B[p+3], all indices mod 11.
//
// The 2-way strides k = 1..10 are dealt to the round's operations in a
// seeded order (the eleventh operation reuses the first), so every round
// spans nearly all pairings. The 4-way membership is fixed, because it
// sets most of an operation's cost; the seed picks the order in which the
// three partners join the contest. Together these keep rounds drawn from
// different seeds within a few percent of each other in cost. engineRound
// never draws a simulation outside the recorded digests.
func engineRound(rng *splitmix64, byName map[string]config.CoreConfig) []engineOp {
	benches := workload.Benchmarks()
	nb := len(benches)
	strides := rng.perm(nb - 1)
	var ops []engineOp
	for i, p := range rng.perm(nb) {
		core := func(j int) config.CoreConfig { return byName[benches[(p+j)%nb]] }
		c4 := []config.CoreConfig{core(0)}
		for _, j := range rng.perm(3) {
			c4 = append(c4, core(1+j))
		}
		ops = append(ops, engineOp{
			bench: benches[p],
			solo:  core(0),
			c2:    []config.CoreConfig{core(0), core(1 + strides[i%len(strides)])},
			c4:    c4,
		})
	}
	return ops
}

func paletteByName() map[string]config.CoreConfig {
	m := map[string]config.CoreConfig{}
	for _, c := range config.Palette() {
		m[c.Name] = c
	}
	return m
}

// engineTimes are the host times one pass over an operation list spent in
// each layer, plus what it simulated.
type engineTimes struct {
	wall, gen, solo, c2, c4 time.Duration
	allocBytes              uint64    // heap allocated by the contests (traced passes only)
	ops                     []float64 // per-op solo+c2+c4 ms
	soloStats               []sim.Result
	contests                []contest.Result
}

// runEngineOps executes ops once, timing only the Run/ContestRun calls for
// the throughput metrics, and verifies every result against its recorded
// digest. A traced pass also reads the heap counters around each contest,
// outside its timer, and calls extra after each operation with its trace.
func runEngineOps(rep *report, ops []engineOp, traced bool, extra func(engineOp, *trace.Trace)) (engineTimes, error) {
	var t engineTimes
	var before, after runtime.MemStats
	heap := func(ms *runtime.MemStats) {
		if traced {
			runtime.ReadMemStats(ms)
		}
	}
	start := time.Now()
	for _, op := range ops {
		// Free the previous operation's trace first, so the peak resident
		// memory is one operation's and does not depend on GC pacing.
		runtime.GC()
		prof, err := workload.ProfileFor(op.bench)
		if err != nil {
			return t, err
		}
		t0 := time.Now()
		tr, err := workload.Generate(prof, engineN)
		if err != nil {
			return t, err
		}
		t1 := time.Now()
		solo, err := sim.Run(op.solo, tr, sim.RunOptions{})
		soloTime := time.Since(t1)
		if err != nil {
			return t, err
		}
		heap(&before)
		t2 := time.Now()
		c2, err := contest.Run(op.c2, tr, contest.Options{})
		t3 := time.Now()
		if err != nil {
			return t, err
		}
		c4, err := contest.Run(op.c4, tr, contest.Options{})
		t4 := time.Now()
		if err != nil {
			return t, err
		}
		heap(&after)
		t.allocBytes += after.TotalAlloc - before.TotalAlloc
		t.gen += t1.Sub(t0)
		t.solo += soloTime
		t.c2 += t3.Sub(t2)
		t.c4 += t4.Sub(t3)
		t.ops = append(t.ops, ms(soloTime+t4.Sub(t2)))
		t.soloStats = append(t.soloStats, solo)
		t.contests = append(t.contests, c2, c4)

		checkDigest(rep, soloKey(op.bench, op.solo), solo)
		checkDigest(rep, contestKey(op.bench, op.c2), c2)
		checkDigest(rep, contestKey(op.bench, op.c4), c4)
		if extra != nil {
			extra(op, tr)
		}
	}
	t.wall = time.Since(start)
	return t, nil
}

// checkDigest counts one attempted operation and fails it when the
// result's digest differs from the recorded one.
func checkDigest(rep *report, key string, result any) {
	rep.attempted++
	want, ok := recordedDigests[key]
	if !ok {
		rep.fail("%s: no recorded digest", key)
		return
	}
	if got := digest(result); got != want {
		rep.fail("%s: result digest %s, recorded %s", key, got, want)
	}
}

func (t engineTimes) minstPerS(n int) float64 {
	return float64(n) * 3 * engineN / 1e6 / (t.solo + t.c2 + t.c4).Seconds()
}

// setupEngine is the engine workload's start-up: the palette and the
// seed's first round of operations.
func setupEngine(cfg runConfig) (func(), error) {
	engineRound(&splitmix64{s: cfg.seed}, paletteByName())
	return func() {}, nil
}

// runEngine is the engine workload: one goroutine runs a closed loop of
// engine operations in whole seeded rounds until the measured time is up.
// The result cache, the Lab and the serving layers are never called.
func runEngine(cfg runConfig) (*report, error) {
	rep := newReport()
	byName := paletteByName()
	rng := &splitmix64{s: cfg.seed}

	// Whole rounds only: another round starts while it would end closer to
	// the measured time than stopping now would.
	var ops []engineOp
	var plain engineTimes
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for rounds := 0; rounds == 0 || plain.wall+plain.wall/time.Duration(2*rounds) < budget; rounds++ {
		round := engineRound(rng, byName)
		t, err := runEngineOps(rep, round, false, nil)
		if err != nil {
			return nil, err
		}
		ops = append(ops, round...)
		plain.add(t)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.values["peak_rss_mb"] = rss
	rep.values["minst_s"] = plain.minstPerS(len(ops))
	rep.sample("op_p50_ms", plain.ops)
	if !cfg.traced {
		return rep, nil
	}
	return rep, engineLayers(rep, cfg, ops, plain)
}

func (t *engineTimes) add(o engineTimes) {
	t.wall += o.wall
	t.gen += o.gen
	t.solo += o.solo
	t.c2 += o.c2
	t.c4 += o.c4
	t.ops = append(t.ops, o.ops...)
	t.soloStats = append(t.soloStats, o.soloStats...)
	t.contests = append(t.contests, o.contests...)
}

// engineLayers repeats the untraced pass's operations under a CPU profile,
// adding the solo runs of every contestant (for the contest excess), heap
// accounting around each contest and fresh-trace fingerprints. The trace
// and pipeline unit costs come from the operations themselves; the result
// cache is never crossed, so its metrics are 0.
func engineLayers(rep *report, cfg runConfig, ops []engineOp, plain engineTimes) error {
	var fp, partnerSolo2, partnerSolo4 time.Duration
	extra := func(op engineOp, tr *trace.Trace) {
		start := time.Now()
		tr.Fingerprint() // nothing has hashed this trace yet
		fp += time.Since(start)
		soloOf := func(c config.CoreConfig) time.Duration {
			start := time.Now()
			res, err := sim.Run(c, tr, sim.RunOptions{})
			d := time.Since(start)
			if err != nil {
				rep.fail("solo %s on %s: %v", c.Name, op.bench, err)
				return d
			}
			checkDigest(rep, soloKey(op.bench, c), res)
			return d
		}
		partnerSolo2 += soloOf(op.c2[1])
		for _, c := range op.c4[1:] {
			partnerSolo4 += soloOf(c)
		}
	}
	prof, err := startProfile(cfg.tmpDir)
	if err != nil {
		return err
	}
	traced, err := runEngineOps(rep, ops, true, extra)
	if perr := prof.stop(rep); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}

	n := float64(len(ops))
	minst := n * engineN / 1e6
	rep.values["engine.solo_minst_s"] = minst / plain.solo.Seconds()
	rep.values["engine.contest2_minst_s"] = minst / plain.c2.Seconds()
	rep.values["engine.contest4_minst_s"] = minst / plain.c4.Seconds()
	wall := plain.wall.Seconds()
	rep.values["workload.busy_share"] = plain.gen.Seconds() / wall
	rep.values["sim.busy_share"] = plain.solo.Seconds() / wall
	rep.values["contest.busy_share"] = (plain.c2 + plain.c4).Seconds() / wall
	rep.values["wall.unattributed"] = 1 - (plain.gen+plain.solo+plain.c2+plain.c4).Seconds()/wall
	rep.values["contest.excess2"] = traced.c2.Seconds() / (traced.solo + partnerSolo2).Seconds()
	rep.values["contest.excess4"] = traced.c4.Seconds() / (traced.solo + partnerSolo4).Seconds()
	rep.values["contest.alloc_mb"] = float64(traced.allocBytes) / (2 * n) / (1 << 20)
	rep.values["tracing.overhead"] = plain.minstPerS(len(ops))/traced.minstPerS(len(ops)) - 1

	var lead, injected, cycles, mispredicts, l1, l2 float64
	for _, c := range plain.contests {
		lead += float64(c.LeadChanges)
		for _, s := range c.PerCore {
			injected += float64(s.Injected)
		}
	}
	for _, r := range plain.soloStats {
		cycles += float64(r.Stats.Cycles)
		mispredicts += float64(r.Stats.Mispredicts)
		l1 += float64(r.Stats.L1D.Misses)
		l2 += float64(r.Stats.L2D.Misses)
	}
	rep.values["contest.lead_changes"] = lead
	rep.values["contest.injected"] = injected
	rep.values["pipeline.cycles"] = cycles
	rep.values["pipeline.mispredicts"] = mispredicts
	rep.values["cache.l1d_misses"] = l1
	rep.values["cache.l2d_misses"] = l2
	rep.values["pipeline.host_ns_per_cycle"] = float64(plain.solo.Nanoseconds()) / cycles
	rep.values["workload.generate_ms_per_minst"] = ms(plain.gen) / minst
	rep.values["trace.fingerprint_ms_per_minst"] = ms(fp) / minst
	zero(rep, "resultcache.key_us", "resultcache.get_ms", "resultcache.put_ms",
		"resultcache.store_get_ms", "resultcache.store_put_ms", "resultcache.store_read_mb", "resultcache.store_write_mb",
		"resultcache.hits", "resultcache.misses", "resultcache.hit_rate",
		"experiments.utilization", "experiments.leaves",
		"jobs.queue_share", "jobs.exec_share", "cluster.overhead_share", "cluster.submit_share",
		"spec.hit_share", "spec.miss_share", "fleet.hit_to_miss", "fleet.p90_to_p50",
		"cluster.affinity_hits", "cluster.sheds", "cluster.reroutes")
	return nil
}

// zero reports layers the workload never crosses.
func zero(rep *report, names ...string) {
	for _, n := range names {
		rep.values[n] = 0
	}
}

func mustProfile(bench string) workload.Profile {
	p, err := workload.ProfileFor(bench)
	if err != nil {
		panic(fmt.Sprintf("perfbench: benchmark %q vanished from the registry: %v", bench, err))
	}
	return p
}
