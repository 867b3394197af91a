package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"archcontest/internal/experiments"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/workload"
)

const (
	// campaignN is the campaign workload's trace length. It is the
	// smallest length at which a cold pass still takes seconds, so a run
	// holds several cold passes and reports their median.
	campaignN = 20_000
	// campaignParallelism is the Lab's leaf-simulation bound: nproc on the
	// recorded 2-CPU machine.
	campaignParallelism = 2
	// warmPerCold is how many warm passes follow each cold pass.
	warmPerCold = 8
)

// passResult is what one pass over the experiment set did.
type passResult struct {
	wall  time.Duration
	stats experiments.CampaignStats
	cache resultcache.Stats
}

// openLab opens a result cache over dir and builds a Lab on it, as every
// campaign pass does before its first experiment. wrap, if non-nil, wraps
// the disk store (the traced run's timing boundary); spans, if non-nil,
// receives the Lab's leaf spans.
func openLab(dir string, wrap func(resultcache.Store) resultcache.Store, spans *obs.ArtifactLog) (*experiments.Lab, *resultcache.Cache, error) {
	disk, err := resultcache.NewDiskStore(dir)
	if err != nil {
		return nil, nil, err
	}
	var store resultcache.Store = disk
	if wrap != nil {
		store = wrap(disk)
	}
	cache := resultcache.New(store, resultcache.Options{})
	lab := experiments.NewLab(experiments.Config{
		N: campaignN, Parallelism: campaignParallelism, Cache: cache, Artifacts: spans,
	})
	return lab, cache, nil
}

// campaignPass runs every registered experiment once, in registry order,
// on a new Lab over a freshly opened result cache rooted at dir (see
// openLab), and returns the JSON of the tables it produced.
func campaignPass(dir string, wrap func(resultcache.Store) resultcache.Store, spans *obs.ArtifactLog) ([]byte, passResult, error) {
	var pr passResult
	lab, cache, err := openLab(dir, wrap, spans)
	if err != nil {
		return nil, pr, err
	}
	ctx := context.Background()
	tables := make([]*experiments.Table, 0, len(experiments.RegistryOrder))
	start := time.Now()
	for _, id := range experiments.RegistryOrder {
		t, err := experiments.Registry[id](ctx, lab)
		if err != nil {
			return nil, pr, fmt.Errorf("experiment %s: %w", id, err)
		}
		tables = append(tables, t)
	}
	pr.wall = time.Since(start)
	pr.stats = lab.CampaignStats()
	pr.cache = cache.Stats()
	data, err := json.Marshal(tables)
	return data, pr, err
}

// campaignCycle is one cold pass over a new cache directory followed by
// warmPerCold warm passes over the same directory, each on a new Lab and
// a freshly opened cache, so every warm hit is read from disk and decoded.
type campaignCycle struct {
	cold passResult
	warm []passResult
}

// runCampaignCycle runs and verifies one cycle: the cold tables must match
// the recorded digest, and every warm pass's tables must be byte-identical
// to the cold pass's.
func runCampaignCycle(rep *report, dir string, wrap func(resultcache.Store) resultcache.Store, spans *obs.ArtifactLog) (campaignCycle, error) {
	var cy campaignCycle
	cold, pr, err := campaignPass(dir, wrap, spans)
	if err != nil {
		return cy, fmt.Errorf("cold pass: %w", err)
	}
	cy.cold = pr
	rep.attempted++
	if got, want := digest(json.RawMessage(cold)), recordedDigests[campaignDigestKey]; got != want {
		rep.fail("cold pass tables digest %s, recorded %s", got, want)
	}
	for i := 0; i < warmPerCold; i++ {
		warm, pr, err := campaignPass(dir, wrap, nil)
		if err != nil {
			return cy, fmt.Errorf("warm pass: %w", err)
		}
		cy.warm = append(cy.warm, pr)
		rep.attempted++
		if string(warm) != string(cold) {
			rep.fail("warm pass %d tables differ from the cold pass", i)
		}
		if pr.stats.Simulations+pr.stats.Contests != 0 {
			rep.fail("warm pass %d simulated %d leaves", i, pr.stats.Simulations+pr.stats.Contests)
		}
	}
	return cy, nil
}

// leafMinstPerS is a cold pass's simulated leaf instructions per host
// second.
func (p passResult) leafMinstPerS() float64 {
	return float64(p.stats.Simulations+p.stats.Contests) * campaignN / 1e6 / p.wall.Seconds()
}

// setupCampaign is the campaign workload's start-up: the first cold
// pass's cache over a new directory and its Lab.
func setupCampaign(cfg runConfig) (func(), error) {
	dir := filepath.Join(cfg.tmpDir, fmt.Sprintf("perfbench-setup-%d", os.Getpid()))
	if _, _, err := openLab(dir, nil, nil); err != nil {
		return nil, err
	}
	return func() { os.RemoveAll(dir) }, nil
}

// runCampaign is the campaign workload: a closed loop of cold-then-warm
// cycles over the full registered experiment set, until the measured time
// is up. Its input is fixed; the seed does not change it.
func runCampaign(cfg runConfig) (*report, error) {
	rep := newReport()
	next := 0
	freshDir := func() string {
		next++
		return filepath.Join(cfg.tmpDir, fmt.Sprintf("cache-%d", next))
	}

	var cold, coldS, warm []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(cold) == 0 || time.Now().Before(deadline) {
		dir := freshDir()
		cy, err := runCampaignCycle(rep, dir, nil, nil)
		if err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
		cold = append(cold, cy.cold.leafMinstPerS())
		coldS = append(coldS, cy.cold.wall.Seconds())
		for _, w := range cy.warm {
			warm = append(warm, ms(w.wall))
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.values["peak_rss_mb"] = rss
	rep.sample("minst_s", cold)
	rep.sample("op_p50_ms", warm)
	if !cfg.traced {
		return rep, nil
	}
	plainCost := quantile(coldS, 0.5) + quantile(warm, 0.5)/1e3
	return rep, campaignLayers(rep, cfg, freshDir(), plainCost)
}

// campaignLayers runs one traced cycle: a timed store under the cache,
// the Lab's artifact spans and a CPU profile. plainCost is the untraced
// median cold plus median warm pass, in seconds, that the tracing overhead
// is taken against.
func campaignLayers(rep *report, cfg runConfig, dir string, plainCost float64) error {
	store := &timedStore{}
	wrap := func(s resultcache.Store) resultcache.Store {
		store.inner = s
		return store
	}
	spans := obs.NewArtifactLog()
	prof, err := startProfile(cfg.tmpDir)
	if err != nil {
		return err
	}
	cy, err := runCampaignCycle(rep, dir, wrap, spans)
	if perr := prof.stop(rep); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}

	capacity := cy.cold.wall.Seconds() * campaignParallelism
	busy := map[string]float64{}
	var total float64
	for _, s := range spans.Spans() {
		d := s.End.Sub(s.Start).Seconds()
		busy[strings.TrimSuffix(s.Kind, "-batch")] += d
		total += d
	}
	rep.values["workload.busy_share"] = busy["trace"] / capacity
	rep.values["sim.busy_share"] = busy["run"] / capacity
	rep.values["contest.busy_share"] = busy["contest"] / capacity
	rep.values["experiments.utilization"] = total / capacity
	rep.values["wall.unattributed"] = 1 - total/capacity
	st := cy.cold.stats
	rep.values["experiments.leaves"] = float64(st.TraceGens + st.Simulations + st.Contests)

	var hits, misses float64
	var warmMs []float64
	for _, p := range append([]passResult{cy.cold}, cy.warm...) {
		hits += float64(p.cache.Hits)
		misses += float64(p.cache.Misses)
	}
	for _, w := range cy.warm {
		warmMs = append(warmMs, ms(w.wall))
	}
	rep.values["resultcache.hits"] = hits
	rep.values["resultcache.misses"] = misses
	rep.values["resultcache.hit_rate"] = ratio(hits, hits+misses)
	tracedCost := cy.cold.wall.Seconds() + quantile(warmMs, 0.5)/1e3
	rep.values["tracing.overhead"] = tracedCost/plainCost - 1

	var probe []probeItem
	byName := paletteByName()
	for _, b := range workload.Benchmarks() {
		probe = append(probe, probeItem{b, campaignN, byName[b]})
	}
	// The probe's cache sits on a disk store, as the campaign's does; the
	// store_* figures come from the campaign's own traffic.
	disk, err := resultcache.NewDiskStore(filepath.Join(cfg.tmpDir, "probe-cache"))
	if err != nil {
		return err
	}
	if err := probeLayers(rep, disk, probe); err != nil {
		return err
	}
	store.report(rep)
	zero(rep, "engine.solo_minst_s", "engine.contest2_minst_s", "engine.contest4_minst_s",
		"contest.excess2", "contest.excess4", "contest.lead_changes", "contest.injected", "contest.alloc_mb",
		"pipeline.cycles", "pipeline.mispredicts", "cache.l1d_misses", "cache.l2d_misses",
		"jobs.queue_share", "jobs.exec_share", "cluster.overhead_share", "cluster.submit_share",
		"spec.hit_share", "spec.miss_share", "fleet.hit_to_miss", "fleet.p90_to_p50",
		"cluster.affinity_hits", "cluster.sheds", "cluster.reroutes")
	return nil
}
