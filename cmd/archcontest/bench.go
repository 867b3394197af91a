package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"archcontest/internal/experiments"
	"archcontest/internal/explore"
	"archcontest/internal/fastmodel"
	"archcontest/internal/workload"
)

// runBench writes the two committed reports that no other subcommand
// produces: the fast-model calibration and explore-filter cut
// (BENCH_fastmodel.json, -fastmodel) and the component championship
// (BENCH_leaderboard.json, -leaderboard). Engine, campaign and fleet
// timings live in perfbench/; the paper's figures, state-cost sweep
// included, come from the figures subcommand.
func runBench(fs *flag.FlagSet, args []string) {
	fastmodelBench := fs.Bool("fastmodel", false, "calibrate the fast interval model and measure the explore filter")
	fastmodelN := fs.Int("fastmodel.n", 10_000, "fast-model calibration trace length in instructions")
	fastmodelOut := fs.String("fastmodel.o", "BENCH_fastmodel.json", "fast-model output JSON path")
	leaderboardBench := fs.Bool("leaderboard", false, "race every registered predictor x replacement x prefetcher combination over the workload suite")
	leaderboardN := fs.Int("leaderboard.n", 60_000, "leaderboard trace length in instructions")
	leaderboardOut := fs.String("leaderboard.o", "BENCH_leaderboard.json", "leaderboard output JSON path")
	fs.Parse(args)
	switch {
	case !*fastmodelBench && !*leaderboardBench:
		usageError(fs, "choose -fastmodel or -leaderboard")
	case *fastmodelN <= 0 || *leaderboardN <= 0:
		usageError(fs, "-fastmodel.n and -leaderboard.n must be positive")
	}
	ctx, stop := signalContext()
	defer stop()
	if *fastmodelBench {
		runFastmodelBench(ctx, *fastmodelN, *fastmodelOut)
		return
	}
	runLeaderboardBench(ctx, *leaderboardN, *leaderboardOut)
}

// reportHeader opens both BENCH reports.
type reportHeader struct {
	Generated string `json:"generated"`
	Insts     int    `json:"insts"`
	NumCPU    int    `json:"num_cpu"`
}

func newReportHeader(n int) reportHeader {
	return reportHeader{Generated: time.Now().UTC().Format(time.RFC3339), Insts: n, NumCPU: runtime.NumCPU()}
}

// writeReport writes a BENCH report atomically, exiting on failure.
func writeReport(path string, rep any) {
	if err := writeJSON(path, rep); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// filterLeg is one explore run measured with the fast filter off and on:
// the detailed-simulation cut the filter buys and whether the walk's
// output survived it.
type filterLeg struct {
	Bench       string  `json:"bench"`
	Seed        uint64  `json:"seed"`
	Steps       int     `json:"steps"`
	Lookahead   int     `json:"lookahead"`
	DetailedOff int     `json:"detailed_off"`
	DetailedOn  int     `json:"detailed_on"`
	Filtered    int     `json:"filtered"`
	Cut         float64 `json:"cut"`
	BestIPTOff  float64 `json:"best_ipt_off"`
	BestIPTOn   float64 `json:"best_ipt_on"`
	// BestUnchanged reports whether the filtered walk produced the same
	// best configuration and IPT as the unfiltered walk.
	BestUnchanged bool `json:"best_unchanged"`
}

// fastmodelReport is BENCH_fastmodel.json.
type fastmodelReport struct {
	reportHeader
	// Calibration is the fast-vs-detailed divergence over the full
	// workload suite and palette at Insts instructions.
	Calibration fastmodel.Calibration `json:"calibration"`
	// Filter measures the filter on explore walks.
	Filter []filterLeg `json:"filter"`
}

// runFastmodelBench calibrates the fast model against the detailed engine
// and measures the explore filter's detailed-simulation cut.
func runFastmodelBench(ctx context.Context, n int, out string) {
	rep := fastmodelReport{reportHeader: newReportHeader(n)}
	cal, err := fastmodel.Calibrate(ctx, nil, nil, n)
	if err != nil {
		log.Fatalf("fastmodel: calibrate: %v", err)
	}
	rep.Calibration = cal
	fmt.Printf("calibration over %d rows: mean |rel| %.3f, max |rel| %.3f, max spread %.3f, rank agreement %.3f\n",
		len(cal.Rows), cal.MeanAbsRelError, cal.MaxAbsRelError, cal.MaxSpread, cal.RankAgreement)

	const steps, lookahead = 60, 8
	for _, bench := range []string{"gcc", "mcf", "twolf"} {
		for _, seed := range []uint64{1, 7} {
			tr := workload.MustGenerate(bench, n)
			opts := explore.Options{Seed: seed, Steps: steps, Lookahead: lookahead}
			off, err := explore.Customize(ctx, tr, opts)
			if err != nil {
				log.Fatalf("fastmodel: explore %s: %v", bench, err)
			}
			opts.FastFilter = true
			on, err := explore.Customize(ctx, tr, opts)
			if err != nil {
				log.Fatalf("fastmodel: explore %s: %v", bench, err)
			}
			leg := filterLeg{
				Bench: bench, Seed: seed, Steps: steps, Lookahead: lookahead,
				DetailedOff: off.Detailed, DetailedOn: on.Detailed, Filtered: on.Filtered,
				BestIPTOff: off.BestIPT, BestIPTOn: on.BestIPT,
				BestUnchanged: on.Best.String() == off.Best.String() && on.BestIPT == off.BestIPT,
			}
			if on.Detailed > 0 {
				leg.Cut = float64(off.Detailed) / float64(on.Detailed)
			}
			rep.Filter = append(rep.Filter, leg)
			fmt.Printf("filter %-7s seed=%d  detailed %4d -> %4d (%.2fx cut, %d filtered), best unchanged: %v\n",
				bench, seed, leg.DetailedOff, leg.DetailedOn, leg.Cut, leg.Filtered, leg.BestUnchanged)
		}
	}
	writeReport(out, rep)
}

// leaderboardReport is BENCH_leaderboard.json: the full-suite championship
// of every registered predictor x replacement policy x prefetcher
// combination, ranked per workload and overall, with each workload's top
// two combos contested head-to-head.
type leaderboardReport struct {
	reportHeader
	// Combos is the size of the cross-product actually raced.
	Combos int `json:"combos"`
	experiments.LeaderboardReport
}

// runLeaderboardBench races the registered component cross-product over the
// whole workload suite and writes the ranking report.
func runLeaderboardBench(ctx context.Context, n int, out string) {
	l := experiments.NewLab(experiments.Config{N: n})
	start := time.Now()
	rep, err := experiments.LeaderboardRun(ctx, l, l.Benchmarks())
	if err != nil {
		log.Fatalf("leaderboard: %v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("%-28s %14s %6s\n", "combo", "geomean (norm)", "wins")
	for i, s := range rep.Standings {
		if i >= 10 {
			fmt.Printf("... %d more combos\n", len(rep.Standings)-i)
			break
		}
		fmt.Printf("%-28s %14.3f %6d\n", s.Name, s.Geomean, s.Wins)
	}
	for _, h := range rep.HeadToHead {
		fmt.Printf("head-to-head %-8s %s vs %s: contest %.2f IPT (%+.1f%% vs best single, %d lead changes)\n",
			h.Bench, h.A, h.B, h.ContestIPT, 100*h.Speedup, h.LeadChanges)
	}
	stats := l.CampaignStats()
	fmt.Printf("raced %d combos over %d workloads in %.1fs (%d simulations, %d contests)\n",
		len(rep.Standings), len(rep.Benches), elapsed.Seconds(), stats.Simulations, stats.Contests)

	writeReport(out, leaderboardReport{
		reportHeader:      newReportHeader(n),
		Combos:            len(rep.Standings),
		LeaderboardReport: *rep,
	})
}
