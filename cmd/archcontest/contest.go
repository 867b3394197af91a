package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"archcontest/internal/cache"
	"archcontest/internal/sim"
	"archcontest/internal/spec"
)

// runContest runs one benchmark trace contested on N named palette cores,
// next to each contestant alone and the benchmark's own customized core,
// through the declarative scenario spec (internal/spec) that serve jobs
// also take: results are cached, and recorded runs bypass the cache.
func runContest(fs *flag.FlagSet, args []string) {
	bench := fs.String("bench", "gcc", "benchmark name")
	cores := fs.String("cores", "", "comma-separated palette core names (default: best pair search input required)")
	n := fs.Int("n", 500000, "trace length in instructions")
	latency := fs.Float64("latency", 1.0, "core-to-core latency in ns")
	sampleNs := fs.Float64("sample", 100, "observability sampling interval in simulated ns")
	verify := fs.Bool("verify", false, "attach the verification subsystem to every run")
	shared := registerShared(fs)
	shared.parse(fs, args)

	ctx, stop := signalContext()
	defer stop()

	var names []string
	for _, name := range strings.Split(*cores, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) < 2 {
		log.Fatal("need -cores with at least two palette names, e.g. -cores bzip,crafty")
	}

	env := spec.NewEnv(shared.openCache())

	// Stand-alone reference runs: each contestant alone (write-through, the
	// policy contesting forces) and the benchmark's own customized core.
	for _, name := range names {
		out, err := spec.Execute(ctx, spec.Spec{
			Kind: spec.KindRun, Bench: *bench, N: *n, Cores: []string{name},
			Run:    &sim.RunOptions{WritePolicy: cache.WriteThrough},
			Verify: *verify,
		}, env, spec.Hooks{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s alone: IPT %.3f\n", name, out.Run.IPT())
	}
	ownOut, err := spec.Execute(ctx, spec.Spec{
		Kind: spec.KindRun, Bench: *bench, N: *n, Cores: []string{*bench},
		Verify: *verify,
	}, env, spec.Hooks{})
	if err != nil {
		log.Fatal(err)
	}
	own := *ownOut.Run
	fmt.Printf("%-22s own customized core (write-back): IPT %.3f\n", *bench, own.IPT())

	// The contested run. Recording rides on the spec: recorded runs bypass
	// the result cache by construction (the record happens during
	// execution), cached plain runs are served without simulating.
	out, err := spec.Execute(ctx, spec.Spec{
		Kind: spec.KindContest, Bench: *bench, N: *n, Cores: names,
		LatencyNs: *latency,
		Record:    shared.wanted(),
		SampleNs:  *sampleNs,
		Verify:    *verify,
	}, env, spec.Hooks{})
	if err != nil {
		log.Fatal(err)
	}
	res := *out.Contest
	fmt.Printf("contested %v @ %.3gns: IPT %.3f  (speedup over own core %.1f%%)\n",
		res.Cores, *latency, res.IPT(), 100*(res.IPT()/own.IPT()-1))
	injected := make([]int64, len(res.PerCore))
	for i, pc := range res.PerCore {
		injected[i] = pc.Injected
	}
	fmt.Printf("winner=%s leadChanges=%d saturated=%v injected=%v\n",
		res.Cores[res.Winner], res.LeadChanges, res.Saturated, injected)
	shared.finish(env.Cache, out.WriteChromeTrace, func() any { return out.Metrics })
	if out.Metrics != nil {
		fmt.Printf("recorded metrics (%s), %d lead changes", out.Metrics.Schema, res.LeadChanges)
		if shared.timeline != "" {
			fmt.Printf("; timeline -> %s (open in chrome://tracing or Perfetto)", shared.timeline)
		}
		if shared.metrics != "" {
			fmt.Printf("; metrics -> %s", shared.metrics)
		}
		fmt.Println()
	}
}
