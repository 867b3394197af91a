// Command bench writes the two committed reports that no other command
// produces: the fast-model calibration and explore-filter cut
// (BENCH_fastmodel.json) and the component championship
// (BENCH_leaderboard.json). Engine, campaign and fleet timings live in
// perfbench/; the paper's figures, state-cost sweep included, come from
// cmd/figures.
//
// Usage:
//
//	bench -fastmodel           # fast-model calibration -> BENCH_fastmodel.json
//	bench -leaderboard         # component championship -> BENCH_leaderboard.json
package main

import (
	"flag"
	"log"
	"os"

	"archcontest/internal/cmdutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	fastmodelBench := flag.Bool("fastmodel", false, "calibrate the fast interval model and measure the explore filter")
	fastmodelN := flag.Int("fastmodel.n", 10_000, "fast-model calibration trace length in instructions")
	fastmodelOut := flag.String("fastmodel.o", "BENCH_fastmodel.json", "fast-model output JSON path")
	leaderboardBench := flag.Bool("leaderboard", false, "race every registered predictor x replacement x prefetcher combination over the workload suite")
	leaderboardN := flag.Int("leaderboard.n", 60_000, "leaderboard trace length in instructions")
	leaderboardOut := flag.String("leaderboard.o", "BENCH_leaderboard.json", "leaderboard output JSON path")
	flag.Parse()
	if !*fastmodelBench && !*leaderboardBench {
		log.Print("choose -fastmodel or -leaderboard")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if *fastmodelBench {
		runFastmodelBench(ctx, *fastmodelN, *fastmodelOut)
		return
	}
	runLeaderboardBench(ctx, *leaderboardN, *leaderboardOut)
}
