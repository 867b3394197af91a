package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"archcontest/internal/cmdutil"
	"archcontest/internal/experiments"
	"archcontest/internal/resultcache"
)

// campaignLeg is one measured configuration of the figures campaign.
type campaignLeg struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	Simulations int64   `json:"simulations"`
	Contests    int64   `json:"contests"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	// Scaling is the cold-campaign wall-time speedup of this worker count
	// over the workers=1 row of the same series (scaling rows only).
	Scaling float64 `json:"scaling,omitempty"`
}

type campaignReport struct {
	Generated   string      `json:"generated"`
	Insts       int         `json:"insts"`
	NumCPU      int         `json:"num_cpu"`
	Experiments []string    `json:"experiments"`
	ColdSingle  campaignLeg `json:"cold_single"`
	// ColdWorkers is the per-worker-count cold-cache series (see
	// -campaign.workers): each row runs the full sweep against a fresh
	// cache with that many workers, and Scaling reports its wall-time
	// speedup over the workers=1 row. Interpret it against NumCPU — a
	// single-CPU runner honestly bounds the series at ~1.0x.
	ColdWorkers     []campaignLeg `json:"cold_workers,omitempty"`
	ColdParallel    campaignLeg   `json:"cold_parallel"`
	WarmParallel    campaignLeg   `json:"warm_parallel"`
	ParallelSpeedup float64       `json:"parallel_speedup"`
	WarmSpeedup     float64       `json:"warm_speedup"`
}

// parseWorkerList parses a comma-separated list of worker counts.
func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w, err := strconv.Atoi(f)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, w)
	}
	sort.Ints(out)
	return out, nil
}

// campaignLegRun executes the full figures experiment sweep once on a lab
// with the given parallelism and cache, and reports what it measured.
func campaignLegRun(ctx context.Context, name string, n, workers int, cache *resultcache.Cache) campaignLeg {
	lab := experiments.NewLab(experiments.Config{N: n, Parallelism: workers, Cache: cache})
	start := time.Now()
	for _, id := range experiments.RegistryOrder {
		if _, err := experiments.Registry[id](ctx, lab); err != nil {
			log.Fatalf("campaign %s: %s: %v", name, id, err)
		}
	}
	wall := time.Since(start).Seconds()
	st := lab.CampaignStats()
	leg := campaignLeg{
		Name:        name,
		Workers:     workers,
		WallSeconds: wall,
		Simulations: st.Simulations,
		Contests:    st.Contests,
		CacheHits:   st.CacheHits,
		CacheMisses: st.CacheMisses,
	}
	fmt.Printf("%-14s %2d workers  %8.2fs  %4d sims %4d contests  %4d cache hits\n",
		name, workers, wall, leg.Simulations, leg.Contests, leg.CacheHits)
	return leg
}

// runCampaignBench measures the campaign engine on the figures sweep:
// cold-cache single-worker, an optional per-worker-count cold series, a
// cold-cache all-workers leg (fresh cache), then a warm-cache re-run
// against that leg's cache directory.
func runCampaignBench(ctx context.Context, n int, workerList, out string) {
	if n <= 0 {
		log.Fatalf("-campaign.n must be positive, got %d", n)
	}
	workers := runtime.NumCPU()
	var workerCounts []int
	if workerList != "" {
		var err error
		if workerCounts, err = parseWorkerList(workerList); err != nil {
			log.Fatalf("-campaign.workers: %v", err)
		}
	}

	dirSingle, err := os.MkdirTemp("", "archcontest-campaign-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dirSingle)
	dirParallel, err := os.MkdirTemp("", "archcontest-campaign-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dirParallel)
	open := func(dir string) *resultcache.Cache {
		c, err := resultcache.Open(dir, resultcache.Options{})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	rep := campaignReport{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Insts:       n,
		NumCPU:      runtime.NumCPU(),
		Experiments: experiments.RegistryOrder,
	}
	rep.ColdSingle = campaignLegRun(ctx, "cold/single", n, 1, open(dirSingle))
	var baseWall float64
	for _, w := range workerCounts {
		dir, err := os.MkdirTemp("", "archcontest-campaign-*")
		if err != nil {
			log.Fatal(err)
		}
		leg := campaignLegRun(ctx, fmt.Sprintf("cold/workers=%d", w), n, w, open(dir))
		os.RemoveAll(dir)
		if baseWall == 0 {
			baseWall = leg.WallSeconds
		}
		if baseWall > 0 && leg.WallSeconds > 0 {
			leg.Scaling = baseWall / leg.WallSeconds
		}
		rep.ColdWorkers = append(rep.ColdWorkers, leg)
	}
	rep.ColdParallel = campaignLegRun(ctx, "cold/parallel", n, workers, open(dirParallel))
	rep.WarmParallel = campaignLegRun(ctx, "warm/parallel", n, workers, open(dirParallel))
	if rep.ColdParallel.WallSeconds > 0 {
		rep.ParallelSpeedup = rep.ColdSingle.WallSeconds / rep.ColdParallel.WallSeconds
	}
	if rep.WarmParallel.WallSeconds > 0 {
		rep.WarmSpeedup = rep.ColdParallel.WallSeconds / rep.WarmParallel.WallSeconds
	}
	fmt.Printf("%-14s cold parallel %.2fx over single, warm %.2fx over cold\n",
		"speedups", rep.ParallelSpeedup, rep.WarmSpeedup)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := cmdutil.WriteFileAtomic(out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}
