package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"archcontest/internal/experiments"
	"archcontest/internal/obs"
	"archcontest/internal/spec"
)

// runFigures regenerates the tables and figures of the paper's evaluation
// (every registered experiment, or the comma-separated -experiment IDs).
// The experiments are declarative scenarios (internal/spec) executed in one
// shared environment, so each artifact is computed once per process, leaf
// simulations run on all cores, and with the persistent result cache (the
// default) a re-run simulates only what changed. Ctrl-C abandons
// un-started leaves; the cache keeps every completed one.
func runFigures(fs *flag.FlagSet, args []string) {
	n := fs.Int("n", 1_000_000, "trace length in instructions")
	experiment := fs.String("experiment", "", "experiment ID (empty = all); comma-separated IDs allowed")
	latency := fs.Float64("latency", 1.0, "core-to-core latency in ns")
	pairs := fs.Int("pairs", 3, "oracle-shortlisted candidate pairs per benchmark")
	par := fs.Int("par", 0, "max concurrent simulations (0 = NumCPU)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	shared := registerShared(fs)
	shared.parse(fs, args)

	if *list {
		for _, id := range experiments.RegistryOrder {
			fmt.Println(id)
		}
		return
	}

	ctx, stop := signalContext()
	defer stop()

	ids := experiments.RegistryOrder
	if *experiment != "" {
		ids = strings.Split(*experiment, ",")
	}
	env := spec.NewEnv(shared.openCache())
	env.Parallelism = *par
	if shared.wanted() {
		env.Artifacts = obs.NewArtifactLog()
	}
	// The expvar handler reads campaign from the pprof listener's goroutine.
	var campaign atomic.Pointer[func() experiments.CampaignStats]
	hooks := spec.Hooks{Campaign: func(stats func() experiments.CampaignStats) { campaign.Store(&stats) }}
	stats := func() (st experiments.CampaignStats) {
		if f := campaign.Load(); f != nil {
			st = (*f)()
		}
		return st
	}
	publish("archcontest.campaign", func() any { return stats() })
	campaignStart := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		out, err := spec.Execute(ctx, spec.Spec{
			Kind: spec.KindExperiment, Experiment: id,
			N: *n, LatencyNs: *latency, Pairs: *pairs,
		}, env, hooks)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		out.Table.Fprint(os.Stdout)
		fmt.Printf("(%s computed in %v at n=%d)\n\n", id, time.Since(start).Round(time.Millisecond), *n)
	}
	st := stats()
	fmt.Fprintf(os.Stderr, "campaign: %v wall, %d traces generated, %d simulations, %d contests executed\n",
		time.Since(campaignStart).Round(time.Millisecond), st.TraceGens, st.Simulations, st.Contests)
	shared.finish(env.Cache, env.Artifacts.WriteChromeTrace, func() any {
		return struct {
			Campaign  experiments.CampaignStats `json:"campaign"`
			Artifacts obs.CampaignSummary       `json:"artifacts"`
		}{st, env.Artifacts.Summary()}
	})
}
