// Command bench measures simulation throughput of the execution engine —
// simulated instructions per wall-second (MIPS) — for the event-driven
// fast-forward path and the reference single-step path, and emits the
// results as BENCH_engine.json so the perf trajectory is tracked across
// PRs. With -campaign it instead measures the campaign engine: the full
// figures experiment sweep cold-cache with one worker, cold-cache with all
// workers, and warm-cache, emitting BENCH_campaign.json.
//
// Usage:
//
//	bench                      # default scenarios at 200k instructions
//	bench -n 1000000           # longer traces
//	bench -repeat 5            # best-of-5 timing
//	bench -o out.json          # output path (default BENCH_engine.json)
//	bench -fast-only           # skip the slow single-step reference
//	bench -verify=false        # skip the invariant-checker-attached timings
//	bench -record=false        # skip the observability-recorder-attached timings
//	bench -merge               # keep the best time per leg across repeated runs
//	bench -baseline old.json   # report checker-off wall-time ratio vs old run(s)
//	bench -cpuprofile p.prof   # CPU profile (source for cmd/bench/default.pgo)
//	bench -campaign            # campaign benchmark -> BENCH_campaign.json
//	bench -campaign -campaign.n 100000
//	bench -campaign -campaign.workers "1,2,4"  # cold-cache worker scaling rows
//	bench -cluster             # sharded fleet load -> BENCH_cluster.json
//	bench -fastmodel           # fast-model calibration -> BENCH_fastmodel.json
//	bench -statecost           # kill-refork warm-up sweep -> BENCH_statecost.json
//	bench -leaderboard         # component championship -> BENCH_leaderboard.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"archcontest"
	"archcontest/internal/cmdutil"
	"archcontest/internal/obs"
)

type timing struct {
	WallSeconds float64 `json:"wall_seconds"`
	MIPS        float64 `json:"mips"`
}

type scenarioResult struct {
	Name        string  `json:"name"`
	Insts       int     `json:"insts"`
	EventDriven timing  `json:"event_driven"`
	SingleStep  *timing `json:"single_step,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	// Verified times the same scenario with the oracle + invariant checker
	// attached; VerifyOverhead is verified/event_driven wall time. The
	// checker-off leg (event_driven) is the number comparable across PRs:
	// with no checker attached the hooks are single nil checks.
	Verified       *timing `json:"verified,omitempty"`
	VerifyOverhead float64 `json:"verify_overhead,omitempty"`
	// Recorded times the same scenario with the observability recorder
	// attached; RecordOverhead is recorded/event_driven wall time. The
	// recorder-off leg is still event_driven — comparing it against a
	// previous run's BENCH_engine.json (-baseline) is the regression gate
	// for "a detached recorder costs nothing".
	Recorded       *timing `json:"recorded,omitempty"`
	RecordOverhead float64 `json:"record_overhead,omitempty"`
}

type report struct {
	Generated      string           `json:"generated"`
	Insts          int              `json:"insts"`
	Repeat         int              `json:"repeat"`
	NumCPU         int              `json:"num_cpu"`
	Scenarios      []scenarioResult `json:"scenarios"`
	GeomeanSpeedup float64          `json:"geomean_speedup,omitempty"`
	Baseline       *baselineCompare `json:"baseline,omitempty"`
}

// baselineCompare reports the checker-off (event-driven) wall-time ratio of
// this run against a previous BENCH_engine.json, per scenario and as a
// geomean — the regression gate for "attaching the verification hooks costs
// nothing when no checker is attached".
type baselineCompare struct {
	Path              string             `json:"path"`
	Generated         string             `json:"generated"`
	EventRatios       map[string]float64 `json:"event_ratios"`
	GeomeanEventRatio float64            `json:"geomean_event_ratio"`
}

// mergeReport folds a previous report's timings into the fresh one, keeping
// the best (minimum) wall time per scenario leg. Interleaving several
// `bench -merge` invocations with runs of a baseline binary is how to
// compare two engine builds on a noisy machine: slow load drift between the
// two programs' invocations swamps a sub-percent difference, while
// alternating rounds sample the same drift for both sides.
func mergeReport(fresh *report, prev report) {
	byName := make(map[string]scenarioResult, len(prev.Scenarios))
	for _, s := range prev.Scenarios {
		byName[s.Name] = s
	}
	minLeg := func(cur *timing, old *timing) {
		if old != nil && old.WallSeconds < cur.WallSeconds {
			*cur = *old
		}
	}
	logSpeedup, speedups := 0.0, 0
	for i := range fresh.Scenarios {
		s := &fresh.Scenarios[i]
		old, ok := byName[s.Name]
		if !ok || old.Insts != s.Insts {
			continue
		}
		minLeg(&s.EventDriven, &old.EventDriven)
		if s.SingleStep == nil {
			s.SingleStep = old.SingleStep
		} else {
			minLeg(s.SingleStep, old.SingleStep)
		}
		if s.Verified == nil {
			s.Verified = old.Verified
		} else {
			minLeg(s.Verified, old.Verified)
		}
		if s.Recorded == nil {
			s.Recorded = old.Recorded
		} else {
			minLeg(s.Recorded, old.Recorded)
		}
		if s.SingleStep != nil {
			s.Speedup = s.SingleStep.WallSeconds / s.EventDriven.WallSeconds
			logSpeedup += math.Log(s.Speedup)
			speedups++
		}
		if s.Verified != nil {
			s.VerifyOverhead = s.Verified.WallSeconds / s.EventDriven.WallSeconds
		}
		if s.Recorded != nil {
			s.RecordOverhead = s.Recorded.WallSeconds / s.EventDriven.WallSeconds
		}
	}
	if speedups > 0 {
		fresh.GeomeanSpeedup = math.Exp(logSpeedup / float64(speedups))
	}
}

// compareBaseline compares checker-off wall times against one or more
// (comma-separated) previous BENCH_engine.json files, taking the best time
// per scenario across all of them.
func compareBaseline(path string, scenarios []scenarioResult) (*baselineCompare, error) {
	cmp := &baselineCompare{Path: path, EventRatios: map[string]float64{}}
	baseWall := map[string]float64{}
	for _, p := range strings.Split(path, ",") {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var base report
		if err := json.Unmarshal(data, &base); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		cmp.Generated = base.Generated
		for _, s := range base.Scenarios {
			w := s.EventDriven.WallSeconds
			if prev, ok := baseWall[s.Name]; !ok || w < prev {
				baseWall[s.Name] = w
			}
		}
	}
	logSum, count := 0.0, 0
	for _, s := range scenarios {
		w, ok := baseWall[s.Name]
		if !ok || w <= 0 {
			continue
		}
		r := s.EventDriven.WallSeconds / w
		cmp.EventRatios[s.Name] = r
		logSum += math.Log(r)
		count++
	}
	if count == 0 {
		return nil, fmt.Errorf("%s: no overlapping scenarios", path)
	}
	cmp.GeomeanEventRatio = math.Exp(logSum / float64(count))
	return cmp, nil
}

type scenario struct {
	name        string
	run         func(singleStep bool) error
	runVerified func() error
	runRecorded func() error
}

func singleScenario(ctx context.Context, bench, core string, n int) scenario {
	tr := archcontest.MustGenerateTrace(bench, n)
	cfg := archcontest.MustPaletteCore(core)
	return scenario{
		name: fmt.Sprintf("single/%s-on-%s", bench, core),
		run: func(singleStep bool) error {
			r, err := archcontest.RunContext(ctx, cfg, tr, archcontest.RunOptions{SingleStep: singleStep})
			if err != nil {
				return err
			}
			if r.Insts != int64(tr.Len()) {
				return fmt.Errorf("incomplete run: %d of %d", r.Insts, tr.Len())
			}
			return nil
		},
		runVerified: func() error {
			_, err := archcontest.RunVerified(cfg, tr)
			return err
		},
		runRecorded: func() error {
			rec := obs.NewRecorder(obs.Options{})
			r, err := archcontest.RunContext(ctx, cfg, tr, archcontest.RunOptions{Checker: rec.CoreChecker(0)})
			if err != nil {
				return err
			}
			rec.FinishRun(r)
			if len(rec.Events()) == 0 {
				return fmt.Errorf("recorder captured nothing")
			}
			return nil
		},
	}
}

func contestScenario(ctx context.Context, bench string, cores []string, n int) scenario {
	tr := archcontest.MustGenerateTrace(bench, n)
	cfgs := make([]archcontest.CoreConfig, len(cores))
	for i, c := range cores {
		cfgs[i] = archcontest.MustPaletteCore(c)
	}
	name := fmt.Sprintf("contest%d/%s", len(cores), bench)
	return scenario{
		name: name,
		run: func(singleStep bool) error {
			r, err := archcontest.ContestRunContext(ctx, cfgs, tr, archcontest.ContestOptions{SingleStep: singleStep})
			if err != nil {
				return err
			}
			if r.Insts != int64(tr.Len()) {
				return fmt.Errorf("incomplete run: %d of %d", r.Insts, tr.Len())
			}
			return nil
		},
		runVerified: func() error {
			_, err := archcontest.ContestRunVerified(cfgs, tr, archcontest.ContestOptions{})
			return err
		},
		runRecorded: func() error {
			rec := obs.NewRecorder(obs.Options{})
			r, err := archcontest.ContestRunContext(ctx, cfgs, tr, archcontest.ContestOptions{Observer: rec})
			if err != nil {
				return err
			}
			rec.FinishContest(r)
			if len(rec.Events()) == 0 {
				return fmt.Errorf("recorder captured nothing")
			}
			return nil
		},
	}
}

// timeFn measures the best wall-clock time of `repeat` runs.
func timeFn(run func() error, repeat, n int) (timing, error) {
	best := math.MaxFloat64
	for i := 0; i < repeat; i++ {
		start := time.Now()
		if err := run(); err != nil {
			return timing{}, err
		}
		if sec := time.Since(start).Seconds(); sec < best {
			best = sec
		}
	}
	return timing{WallSeconds: best, MIPS: float64(n) / best / 1e6}, nil
}

func timeScenario(s scenario, singleStep bool, repeat, n int) (timing, error) {
	return timeFn(func() error { return s.run(singleStep) }, repeat, n)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	n := flag.Int("n", 200_000, "trace length in instructions")
	repeat := flag.Int("repeat", 3, "runs per scenario (best time wins)")
	out := flag.String("o", "BENCH_engine.json", "output JSON path")
	fastOnly := flag.Bool("fast-only", false, "skip the single-step reference timings")
	verify := flag.Bool("verify", true, "also time each scenario with the invariant checker attached")
	record := flag.Bool("record", true, "also time each scenario with the observability recorder attached")
	baseline := flag.String("baseline", "", "previous BENCH_engine.json file(s), comma-separated, to compare checker-off times against")
	merge := flag.Bool("merge", false, "fold the existing output file's timings in, keeping the best per leg")
	campaign := flag.Bool("campaign", false, "benchmark the campaign engine instead of the execution engine")
	campaignN := flag.Int("campaign.n", 60_000, "campaign trace length in instructions")
	campaignOut := flag.String("campaign.o", "BENCH_campaign.json", "campaign output JSON path")
	campaignWorkers := flag.String("campaign.workers", "", "comma-separated worker counts for the campaign cold-cache scaling series (e.g. \"1,2,4\"); empty skips it")
	clusterBench := flag.Bool("cluster", false, "benchmark the sharded fleet (coordinator + in-process nodes) instead of the execution engine")
	clusterNodes := flag.Int("cluster.nodes", 3, "fleet size for -cluster")
	clusterStreams := flag.Int("cluster.streams", 64, "concurrent job streams for -cluster")
	clusterJobs := flag.Int("cluster.jobs", 128, "jobs per pass for -cluster")
	clusterN := flag.Int("cluster.n", 60_000, "per-job trace length for -cluster")
	clusterOut := flag.String("cluster.o", "BENCH_cluster.json", "cluster output JSON path")
	fastmodelBench := flag.Bool("fastmodel", false, "calibrate the fast interval model and measure the explore filter instead of the execution engine")
	fastmodelN := flag.Int("fastmodel.n", 10_000, "fast-model calibration trace length in instructions")
	fastmodelOut := flag.String("fastmodel.o", "BENCH_fastmodel.json", "fast-model output JSON path")
	statecostBench := flag.Bool("statecost", false, "sweep the kill-refork state-transfer warm-up cost instead of benchmarking the execution engine")
	statecostN := flag.Int("statecost.n", 200_000, "state-transfer sweep trace length in instructions")
	statecostOut := flag.String("statecost.o", "BENCH_statecost.json", "state-transfer sweep output JSON path")
	leaderboardBench := flag.Bool("leaderboard", false, "race every registered predictor x replacement x prefetcher combination over the workload suite instead of benchmarking the execution engine")
	leaderboardN := flag.Int("leaderboard.n", 60_000, "leaderboard trace length in instructions")
	leaderboardOut := flag.String("leaderboard.o", "BENCH_leaderboard.json", "leaderboard output JSON path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this path (source for cmd/bench/default.pgo)")
	flag.Parse()
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("cpuprofile: %v", err)
			}
		}()
	}
	if *campaign {
		runCampaignBench(ctx, *campaignN, *campaignWorkers, *campaignOut)
		return
	}
	if *clusterBench {
		runClusterBench(ctx, *clusterNodes, *clusterStreams, *clusterJobs, *clusterN, *clusterOut)
		return
	}
	if *fastmodelBench {
		runFastmodelBench(ctx, *fastmodelN, *fastmodelOut)
		return
	}
	if *statecostBench {
		runStatecostBench(ctx, *statecostN, *statecostOut)
		return
	}
	if *leaderboardBench {
		runLeaderboardBench(ctx, *leaderboardN, *leaderboardOut)
		return
	}
	if *n <= 0 {
		log.Fatalf("-n must be positive, got %d", *n)
	}
	if *repeat <= 0 {
		log.Fatalf("-repeat must be positive, got %d", *repeat)
	}

	scenarios := []scenario{
		singleScenario(ctx, "mcf", "mcf", *n),
		singleScenario(ctx, "gcc", "gcc", *n),
		singleScenario(ctx, "crafty", "crafty", *n),
		singleScenario(ctx, "twolf", "twolf", *n),
		contestScenario(ctx, "twolf", []string{"twolf", "vpr"}, *n),
		contestScenario(ctx, "mcf", []string{"mcf", "gcc"}, *n),
		contestScenario(ctx, "gcc", []string{"gcc", "mcf", "bzip", "crafty"}, *n),
	}

	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Insts:     *n,
		Repeat:    *repeat,
		NumCPU:    runtime.NumCPU(),
	}
	logSpeedup := 0.0
	speedups := 0
	fmt.Printf("%-24s %12s %12s %9s %12s %12s\n", "scenario", "event MIPS", "naive MIPS", "speedup", "verify cost", "record cost")
	for _, s := range scenarios {
		fast, err := timeScenario(s, false, *repeat, *n)
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		res := scenarioResult{Name: s.name, Insts: *n, EventDriven: fast}
		verifyCol := "-"
		if *verify {
			v, err := timeFn(s.runVerified, *repeat, *n)
			if err != nil {
				log.Fatalf("%s (verified): %v", s.name, err)
			}
			res.Verified = &v
			res.VerifyOverhead = v.WallSeconds / fast.WallSeconds
			verifyCol = fmt.Sprintf("%.2fx", res.VerifyOverhead)
		}
		recordCol := "-"
		if *record {
			r, err := timeFn(s.runRecorded, *repeat, *n)
			if err != nil {
				log.Fatalf("%s (recorded): %v", s.name, err)
			}
			res.Recorded = &r
			res.RecordOverhead = r.WallSeconds / fast.WallSeconds
			recordCol = fmt.Sprintf("%.2fx", res.RecordOverhead)
		}
		if !*fastOnly {
			slow, err := timeScenario(s, true, *repeat, *n)
			if err != nil {
				log.Fatalf("%s (single-step): %v", s.name, err)
			}
			res.SingleStep = &slow
			res.Speedup = slow.WallSeconds / fast.WallSeconds
			logSpeedup += math.Log(res.Speedup)
			speedups++
			fmt.Printf("%-24s %12.2f %12.2f %8.2fx %12s %12s\n", s.name, fast.MIPS, slow.MIPS, res.Speedup, verifyCol, recordCol)
		} else {
			fmt.Printf("%-24s %12.2f %12s %9s %12s %12s\n", s.name, fast.MIPS, "-", "-", verifyCol, recordCol)
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	if speedups > 0 {
		rep.GeomeanSpeedup = math.Exp(logSpeedup / float64(speedups))
		fmt.Printf("%-24s %12s %12s %8.2fx\n", "geomean", "", "", rep.GeomeanSpeedup)
	}
	if *merge {
		if data, err := os.ReadFile(*out); err == nil {
			var prev report
			if err := json.Unmarshal(data, &prev); err != nil {
				log.Fatalf("merge %s: %v", *out, err)
			}
			mergeReport(&rep, prev)
		}
	}
	if *baseline != "" {
		cmp, err := compareBaseline(*baseline, rep.Scenarios)
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
		rep.Baseline = cmp
		fmt.Printf("checker-off vs %s: geomean %.3fx\n", *baseline, cmp.GeomeanEventRatio)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := cmdutil.WriteFileAtomic(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}
