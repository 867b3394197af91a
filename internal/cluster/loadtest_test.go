package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"archcontest/internal/resultcache"
)

// TestClusterLoad drives the full load harness: a 3-node fleet under 64
// concurrent job streams (16 under -short), cold and warm passes, against
// both routers. It asserts the load completes losslessly and that
// cache-aware routing's warm pass beats (or at worst matches) the
// round-robin baseline's cache hit rate — the property the router exists
// to deliver.
func TestClusterLoad(t *testing.T) {
	opts := LoadTestOptions{Nodes: 3, Streams: 64, Jobs: 128, Specs: 24, N: 60_000}
	if testing.Short() {
		opts.Streams, opts.Jobs, opts.Specs = 16, 32, 12
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	affinity, err := RunLoadTest(ctx, opts)
	if err != nil {
		t.Fatalf("affinity run: %v", err)
	}
	base := opts
	base.RoundRobin = true
	baseline, err := RunLoadTest(ctx, base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	for name, r := range map[string]*LoadTestResult{"affinity": affinity, "baseline": baseline} {
		for pass, ps := range map[string]PassStats{"cold": r.Cold, "warm": r.Warm} {
			if ps.Failed != 0 {
				t.Errorf("%s %s pass: %d/%d jobs failed", name, pass, ps.Failed, ps.Jobs)
			}
			if ps.P50Ms <= 0 || ps.P99Ms < ps.P50Ms {
				t.Errorf("%s %s pass: implausible latency percentiles p50=%.2fms p99=%.2fms",
					name, pass, ps.P50Ms, ps.P99Ms)
			}
		}
		if r.Coord.Lost != 0 {
			t.Errorf("%s run lost %d jobs", name, r.Coord.Lost)
		}
	}

	// Cache-aware routing must turn the warm pass into cache hits at least
	// as well as blind round-robin placement does.
	if affinity.Warm.HitRate < baseline.Warm.HitRate {
		t.Errorf("cache-aware warm hit rate %.3f below round-robin baseline %.3f",
			affinity.Warm.HitRate, baseline.Warm.HitRate)
	}
	// And in absolute terms the warm pass should mostly hit: every shape
	// was cached somewhere during the cold pass, and affinity routing
	// sends repeats back to that node.
	if affinity.Warm.HitRate < 0.9 {
		t.Errorf("cache-aware warm hit rate %.3f, want >=0.9", affinity.Warm.HitRate)
	}
	t.Logf("affinity: cold p50=%.1fms p99=%.1fms hit=%.3f | warm p50=%.1fms p99=%.1fms hit=%.3f",
		affinity.Cold.P50Ms, affinity.Cold.P99Ms, affinity.Cold.HitRate,
		affinity.Warm.P50Ms, affinity.Warm.P99Ms, affinity.Warm.HitRate)
	t.Logf("baseline: warm p50=%.1fms p99=%.1fms hit=%.3f",
		baseline.Warm.P50Ms, baseline.Warm.P99Ms, baseline.Warm.HitRate)
}

// LoadTestOptions sizes one cluster load run: an in-process fleet hammered
// by Streams concurrent clients, each submitting jobs through the facade
// and watching them to completion. The same job set is driven twice — a
// cold pass that fills the per-node result caches and a warm pass that
// measures how well routing exploits them.
type LoadTestOptions struct {
	// Nodes is the fleet size (default 3).
	Nodes int
	// Streams is the number of concurrent submit-and-watch clients
	// (default 64).
	Streams int
	// Jobs is the number of jobs per pass (default 2×Streams).
	Jobs int
	// Specs is the number of distinct scenario shapes the jobs cycle
	// through (default 24). Distinct shapes spread across the fleet;
	// repeats of one shape exercise affinity.
	Specs int
	// N is the per-job instruction count (default 60k: long enough to
	// dominate HTTP overhead, short enough to finish a pass quickly).
	N int64
	// Workers is each node's concurrency (default 2).
	Workers int
	// MaxQueue is each node's queue bound (default 4×Streams so the load
	// run measures latency, not shed-retry behaviour).
	MaxQueue int
	// RoundRobin switches the coordinator to the baseline router, giving
	// the control leg for the cache-aware routing comparison.
	RoundRobin bool
}

// PassStats describes one pass of a load run.
type PassStats struct {
	Jobs      int     `json:"jobs"`
	Failed    int     `json:"failed"`
	Retries   int     `json:"retries"` // submit retries after 429/503 sheds
	P50Ms     float64 `json:"p50_ms"`  // submit-to-terminal latency
	P99Ms     float64 `json:"p99_ms"`
	WallMs    float64 `json:"wall_ms"`
	CacheHits int64   `json:"cache_hits"` // fleet-wide result-cache hits during the pass
	CacheGets int64   `json:"cache_gets"`
	HitRate   float64 `json:"hit_rate"`
}

// LoadTestResult is the full outcome of RunLoadTest; TestClusterLoad
// compares the cache-aware and round-robin results.
type LoadTestResult struct {
	Nodes      int        `json:"nodes"`
	Streams    int        `json:"streams"`
	Specs      int        `json:"specs"`
	N          int64      `json:"n"`
	RoundRobin bool       `json:"round_robin"`
	Cold       PassStats  `json:"cold"`
	Warm       PassStats  `json:"warm"`
	Coord      CoordStats `json:"coord"`
}

var loadBenches = []string{"gcc", "mcf", "twolf", "vpr", "bzip", "crafty", "gap", "gzip", "parser", "perl", "vortex"}

func (o *LoadTestOptions) defaults() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Streams <= 0 {
		o.Streams = 64
	}
	if o.Jobs <= 0 {
		o.Jobs = 2 * o.Streams
	}
	if o.Specs <= 0 {
		o.Specs = 24
	}
	if o.N <= 0 {
		o.N = 60_000
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.Streams
	}
}

// loadSpecs builds the distinct scenario shapes for a run. Shapes differ
// in benchmark and instruction count, so every shape has its own route key
// and its own result-cache entries.
func loadSpecs(opts LoadTestOptions) []string {
	specs := make([]string, opts.Specs)
	for i := range specs {
		bench := loadBenches[i%len(loadBenches)]
		specs[i] = fmt.Sprintf(`{"kind":"run","bench":%q,"cores":[%q],"n":%d}`,
			bench, bench, opts.N+int64(i/len(loadBenches)))
	}
	return specs
}

// RunLoadTest starts a fleet, drives the cold and warm passes, and tears
// the fleet down.
func RunLoadTest(ctx context.Context, opts LoadTestOptions) (*LoadTestResult, error) {
	opts.defaults()
	f, err := StartFleet(opts.Nodes, FleetOptions{
		Workers:    opts.Workers,
		MaxQueue:   opts.MaxQueue,
		RoundRobin: opts.RoundRobin,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	specs := loadSpecs(opts)
	res := &LoadTestResult{
		Nodes:      opts.Nodes,
		Streams:    opts.Streams,
		Specs:      opts.Specs,
		N:          opts.N,
		RoundRobin: opts.RoundRobin,
	}
	cold, err := runPass(ctx, f, opts, specs)
	if err != nil {
		return nil, fmt.Errorf("cold pass: %w", err)
	}
	res.Cold = cold
	warm, err := runPass(ctx, f, opts, specs)
	if err != nil {
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	res.Warm = warm
	res.Coord = f.Coord.Stats()

	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := f.Drain(dctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return res, nil
}

// runPass pushes opts.Jobs jobs through the facade with opts.Streams
// concurrent clients and reports latency percentiles plus the fleet-wide
// cache-hit delta for the pass.
func runPass(ctx context.Context, f *Fleet, opts LoadTestOptions, specs []string) (PassStats, error) {
	before := fleetCacheStats(f)
	jobCh := make(chan int)
	latencies := make([]time.Duration, opts.Jobs)
	var failed, retries int64
	var mu sync.Mutex

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, opts.Streams)
	for s := 0; s < opts.Streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				lat, nretry, err := runJob(ctx, f.CoordURL, specs[idx%len(specs)])
				mu.Lock()
				latencies[idx] = lat
				retries += int64(nretry)
				if err != nil {
					failed++
				}
				mu.Unlock()
				if err != nil && ctx.Err() != nil {
					errCh <- ctx.Err()
					return
				}
			}
		}()
	}
	for i := 0; i < opts.Jobs; i++ {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return PassStats{}, err
	default:
	}

	after := fleetCacheStats(f)
	ps := PassStats{
		Jobs:      opts.Jobs,
		Failed:    int(failed),
		Retries:   int(retries),
		WallMs:    float64(time.Since(start)) / float64(time.Millisecond),
		CacheHits: after.Hits - before.Hits,
		CacheGets: (after.Hits + after.Misses) - (before.Hits + before.Misses),
	}
	if ps.CacheGets > 0 {
		ps.HitRate = float64(ps.CacheHits) / float64(ps.CacheGets)
	}
	ps.P50Ms, ps.P99Ms = percentiles(latencies)
	return ps, nil
}

// runJob submits one spec and watches it to its terminal state, returning
// the submit-to-terminal latency. 429/503 sheds are retried after the
// server's advice (bounded, so a wedged fleet fails rather than hangs).
func runJob(ctx context.Context, coordURL, specJSON string) (time.Duration, int, error) {
	start := time.Now()
	var id string
	nretry := 0
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coordURL+"/v1/jobs", strings.NewReader(specJSON))
		if err != nil {
			return 0, nretry, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nretry, err
		}
		var v map[string]any
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			id, _ = v["id"].(string)
			break
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			nretry++
			if nretry > 200 {
				return 0, nretry, fmt.Errorf("fleet shed the job %d times", nretry)
			}
			select {
			case <-time.After(25 * time.Millisecond):
			case <-ctx.Done():
				return 0, nretry, ctx.Err()
			}
			continue
		}
		return 0, nretry, fmt.Errorf("submit: status %d: %v", resp.StatusCode, v)
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		coordURL+"/v1/jobs/"+id+"?watch=1", nil)
	if err != nil {
		return 0, nretry, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nretry, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var snap map[string]any
		if json.Unmarshal(sc.Bytes(), &snap) != nil {
			continue
		}
		switch snap["state"] {
		case "done":
			return time.Since(start), nretry, nil
		case "failed", "cancelled":
			return time.Since(start), nretry, fmt.Errorf("job %s ended %v: %v", id, snap["state"], snap["error"])
		}
	}
	return 0, nretry, fmt.Errorf("watch of %s ended without a terminal event", id)
}

// fleetCacheStats sums the per-node result-cache counters.
func fleetCacheStats(f *Fleet) resultcache.Stats {
	var sum resultcache.Stats
	for _, n := range f.Nodes {
		st := n.Cache.Stats()
		sum.Hits += st.Hits
		sum.MemHits += st.MemHits
		sum.Misses += st.Misses
		sum.Stores += st.Stores
		sum.Corrupt += st.Corrupt
		sum.Errors += st.Errors
	}
	return sum
}

func percentiles(lats []time.Duration) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.99)
}
