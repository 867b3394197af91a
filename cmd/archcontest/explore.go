package main

import (
	"flag"
	"fmt"
	"log"

	"archcontest/internal/config"
	"archcontest/internal/obs"
	"archcontest/internal/spec"
)

// runExplore customizes a core for a benchmark by design-space exploration
// (the XpScalar stand-in): speculative parallel simulated annealing, or
// parallel tempering with -mode temper. Evaluations go through the spec
// environment, so they are memoized in the result cache and a repeated
// exploration re-simulates only new points.
func runExplore(fs *flag.FlagSet, args []string) {
	bench := fs.String("bench", "gcc", "benchmark to customize for")
	n := fs.Int("n", 100_000, "objective trace length in instructions")
	steps := fs.Int("steps", 120, "annealing steps (tempering: rounds per chain)")
	seed := fs.Uint64("seed", 1, "exploration seed")
	mode := fs.String("mode", "anneal", "anneal (speculative annealing) or temper (parallel tempering)")
	lookahead := fs.Int("K", 8, "speculative lookahead window (annealing; 1 = sequential)")
	chains := fs.Int("chains", 4, "tempering chains")
	exchange := fs.Int("exchange", 10, "tempering rounds between replica exchanges")
	par := fs.Int("par", 0, "max concurrent evaluations (0 = NumCPU)")
	fastFilter := fs.Bool("fast.filter", false, "screen candidates with the fast interval model before detailed simulation")
	fastMargin := fs.Float64("fast.margin", 0, "fast-filter relative margin (0 = calibrated default)")
	verbose := fs.Bool("v", false, "log accepted moves")
	shared := registerShared(fs)
	shared.parse(fs, args)

	ctx, stop := signalContext()
	defer stop()

	env := spec.NewEnv(shared.openCache())
	if shared.wanted() {
		env.Artifacts = obs.NewArtifactLog()
	}

	var hooks spec.Hooks
	if *verbose {
		hooks.ExploreMove = func(chain, step int, cfg config.CoreConfig, ipt float64) {
			if *mode == "temper" {
				fmt.Printf("chain %d step %3d: IPT %.3f  %v\n", chain, step, ipt, cfg)
			} else {
				fmt.Printf("step %3d: IPT %.3f  %v\n", step, ipt, cfg)
			}
		}
	}
	out, err := spec.Execute(ctx, spec.Spec{
		Kind: spec.KindExplore, Bench: *bench, N: *n, Parallelism: *par,
		Explore: &spec.ExploreSpec{
			Mode: *mode, Seed: *seed, Steps: *steps,
			Lookahead: *lookahead, Chains: *chains, ExchangeEvery: *exchange,
			FastFilter: *fastFilter, FastMargin: *fastMargin,
		},
	}, env, hooks)
	if err != nil {
		log.Fatal(err)
	}
	res := *out.Explore
	fmt.Printf("evaluated %d design points (%d speculative evaluations discarded)\n", res.Evaluated, res.Wasted)
	if *fastFilter {
		fmt.Printf("detailed simulations %d, fast-filtered %d\n", res.Detailed, res.Filtered)
	}
	fmt.Printf("best IPT %.3f\n%v\n", res.BestIPT, res.Best)

	// Compare against the paper's customized core for the benchmark, through
	// the same spec path (so the reference run is cached too).
	refOut, err := spec.Execute(ctx, spec.Spec{
		Kind: spec.KindRun, Bench: *bench, N: *n, Cores: []string{*bench},
	}, env, spec.Hooks{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper palette core %q on the same trace: IPT %.3f\n", *bench, refOut.Run.IPT())
	shared.finish(env.Cache, env.Artifacts.WriteChromeTrace, func() any {
		return struct {
			Evaluated int                 `json:"evaluated"`
			Wasted    int                 `json:"wasted"`
			Detailed  int                 `json:"detailed"`
			Filtered  int                 `json:"filtered"`
			BestIPT   float64             `json:"best_ipt"`
			Artifacts obs.CampaignSummary `json:"artifacts"`
		}{res.Evaluated, res.Wasted, res.Detailed, res.Filtered, res.BestIPT, env.Artifacts.Summary()}
	})
}
