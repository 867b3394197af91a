// Command contest runs one contesting experiment: a benchmark trace
// executed on N named palette cores in a leader-follower arrangement. It
// is a thin shell over the declarative scenario spec (internal/spec) —
// the same path cmd/serve jobs take — so results are cached, recorded
// runs bypass the cache, and Ctrl-C cancels the simulation cooperatively
// instead of killing the process mid-write.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"archcontest/internal/cache"
	"archcontest/internal/cmdutil"
	"archcontest/internal/sim"
	"archcontest/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("contest: ")
	bench := flag.String("bench", "gcc", "benchmark name")
	cores := flag.String("cores", "", "comma-separated palette core names (default: best pair search input required)")
	n := flag.Int("n", 500000, "trace length in instructions")
	latency := flag.Float64("latency", 1.0, "core-to-core latency in ns")
	sampleNs := flag.Float64("sample", 100, "observability sampling interval in simulated ns")
	verify := flag.Bool("verify", false, "attach the verification subsystem to every run")
	openCache := cmdutil.CacheFlags(nil)
	obsFlags := cmdutil.ObsFlags(nil)
	flag.Parse()
	obsFlags.StartPprof()

	ctx, stop := cmdutil.SignalContext()
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

	env := spec.NewEnv(openCache())

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
		Record:    obsFlags.Wanted(),
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
	if out.Metrics != nil {
		if err := obsFlags.WriteTimeline(out.WriteChromeTrace); err != nil {
			log.Fatalf("timeline: %v", err)
		}
		if err := obsFlags.WriteMetricsJSON(out.Metrics); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("recorded metrics (%s), %d lead changes", out.Metrics.Schema, res.LeadChanges)
		if obsFlags.Timeline != "" {
			fmt.Printf("; timeline -> %s (open in chrome://tracing or Perfetto)", obsFlags.Timeline)
		}
		if obsFlags.Metrics != "" {
			fmt.Printf("; metrics -> %s", obsFlags.Metrics)
		}
		fmt.Println()
	}
	cmdutil.PrintCacheStats(env.Cache)
}
