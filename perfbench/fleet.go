package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"archcontest/internal/cluster"
	"archcontest/internal/resultcache"
	"archcontest/internal/spec"
	"archcontest/internal/workload"
)

const (
	// fleetNodes is the in-process fleet size behind the coordinator.
	fleetNodes = 3
	// fleetClients is the number of closed-loop clients: nproc on the
	// recorded 2-CPU machine, so latency measures the program rather than a
	// queue the clients build themselves (see README.md).
	fleetClients = 2
	// fleetN is the base trace length of a job: the spec default for run
	// and contest kinds. Each new shape adds a small offset so that every
	// shape has its own trace and cache key.
	fleetN = 200_000
	// fleetRepeat is the share of jobs that repeat an earlier shape: the
	// mix's stated hit share. At two thirds the job p50 falls inside the
	// hit mode and the p90 inside the miss mode, never on the gap between
	// them, where a median would jump from run to run.
	fleetRepeat = 2.0 / 3
)

// fleetShape is one distinct job spec.
type fleetShape struct {
	json  string
	bench string
	n     int
}

// fleetStream is one client's seeded job sequence. Each job is a new
// shape or, with probability fleetRepeat, a repeat of a shape this client
// already completed. A client's repeats are therefore cache hits on the
// node that routing sends the shape to, and hits and misses interleave.
// Clients draw disjoint shapes (the trace-length offset is per client).
type fleetStream struct {
	client int
	rng    splitmix64
	shapes []fleetShape
}

func newFleetStream(seed uint64, client int) *fleetStream {
	return &fleetStream{client: client, rng: splitmix64{s: seed*0x9e3779b97f4a7c15 + uint64(client) + 1}}
}

// next returns the next job's shape and whether it repeats an earlier one.
func (s *fleetStream) next() (fleetShape, bool) {
	if len(s.shapes) > 0 && s.rng.float() < fleetRepeat {
		return s.shapes[s.rng.intn(len(s.shapes))], true
	}
	benches := workload.Benchmarks()
	p := s.rng.intn(len(benches))
	sh := fleetShape{
		bench: benches[p],
		n:     fleetN + fleetClients*len(s.shapes) + s.client,
	}
	if s.rng.intn(2) == 0 {
		sh.json = fmt.Sprintf(`{"kind":"run","bench":%q,"cores":[%q],"n":%d}`, sh.bench, sh.bench, sh.n)
	} else {
		partner := benches[(p+1+s.rng.intn(len(benches)-1))%len(benches)]
		sh.json = fmt.Sprintf(`{"kind":"contest","bench":%q,"cores":[%q,%q],"n":%d}`, sh.bench, sh.bench, partner, sh.n)
	}
	s.shapes = append(s.shapes, sh)
	return sh, false
}

// fleetJob is one completed client request.
type fleetJob struct {
	shape   fleetShape
	hit     bool // a repeat, so the node serves it from its cache
	latency time.Duration
	submit  time.Duration // the POST round trip
	final   terminalView
}

// terminalView is the facade's terminal job snapshot.
type terminalView struct {
	State       string        `json:"state"`
	Error       string        `json:"error"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at"`
	FinishedAt  *time.Time    `json:"finished_at"`
	Result      *spec.Outcome `json:"result"`
}

// startFleet starts the in-process fleet: nodes with private in-memory
// result caches, and a coordinator over them.
func startFleet() (*cluster.Fleet, error) {
	return cluster.StartFleet(fleetNodes, cluster.FleetOptions{})
}

// setupFleet is the fleet workload's start-up: starting the fleet.
func setupFleet(runConfig) (func(), error) {
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	return func() { stopFleet(f) }, nil
}

// stopFleet drains the fleet, then closes it; both wait for the fleet's
// goroutines and listeners.
func stopFleet(f *cluster.Fleet) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.Drain(ctx) // a drain cut short still ends in Close, which stops everything
	f.Close()
}

// fleetHTTP bounds every request, so a wedged fleet fails the run instead
// of hanging it.
var fleetHTTP = &http.Client{Timeout: time.Minute}

// runFleetJob submits one spec through the coordinator and watches it to
// its terminal state; the latency runs from the POST to the arrival of the
// stream's terminal line.
func runFleetJob(coordURL string, sh fleetShape) (fleetJob, error) {
	job := fleetJob{shape: sh}
	start := time.Now()
	resp, err := fleetHTTP.Post(coordURL+"/v1/jobs", "application/json", strings.NewReader(sh.json))
	if err != nil {
		return job, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&accepted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	job.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		return job, fmt.Errorf("submit %s: status %d", sh.json, resp.StatusCode)
	}
	resp, err = fleetHTTP.Get(coordURL + "/v1/jobs/" + accepted.ID + "?watch=1")
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	// The facade's stream ends with the terminal snapshot, the one that
	// embeds the result. An earlier line can already read "done" without
	// the result, so the job is judged by the stream's last line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	lines := 0
	for sc.Scan() {
		var v terminalView
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return job, fmt.Errorf("watch %s: %w", accepted.ID, err)
		}
		job.latency = time.Since(start)
		job.final = v
		lines++
	}
	if err := sc.Err(); err != nil {
		return job, fmt.Errorf("watch %s: %w", accepted.ID, err)
	}
	switch v := job.final; {
	case lines == 0:
		return job, fmt.Errorf("watch of %s sent no snapshot", accepted.ID)
	case v.State == "failed" || v.State == "cancelled":
		return job, fmt.Errorf("job %s ended %s: %s", accepted.ID, v.State, v.Error)
	case v.State != "done":
		return job, fmt.Errorf("watch of %s ended at state %q, not a terminal one", accepted.ID, v.State)
	}
	return job, nil
}

// fleetWindow drives fleetClients closed-loop clients against the fleet
// until the measured time is up, each from its own seeded stream.
func fleetWindow(rep *report, f *cluster.Fleet, seed uint64, seconds float64) ([]fleetJob, time.Duration) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	results := make([][]fleetJob, fleetClients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := newFleetStream(seed, c)
			for time.Now().Before(deadline) {
				sh, hit := stream.next()
				job, err := runFleetJob(f.CoordURL, sh)
				job.hit = hit
				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail("fleet job: %v", err)
				} else {
					results[c] = append(results[c], job)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []fleetJob
	for _, r := range results {
		all = append(all, r...)
	}
	return all, wall
}

// fleetVerifier executes each distinct shape in process with spec.Execute
// on one Env, and compares every fleet job's outcome with it.
type fleetVerifier struct {
	env      *spec.Env
	expected map[string]string // shape JSON -> outcome digest
	missMs   []float64         // spec.Execute time of each first (uncached) execution
}

func newFleetVerifier() *fleetVerifier {
	return &fleetVerifier{
		env:      spec.NewEnv(resultcache.New(nil, resultcache.Options{})),
		expected: map[string]string{},
	}
}

// verify fails every job whose outcome differs from the in-process one.
// Distinct shapes execute on fleetClients goroutines.
func (v *fleetVerifier) verify(rep *report, jobs []fleetJob) error {
	var todo []string
	seen := map[string]bool{}
	for _, j := range jobs {
		if _, ok := v.expected[j.shape.json]; !ok && !seen[j.shape.json] {
			seen[j.shape.json] = true
			todo = append(todo, j.shape.json)
		}
	}
	var mu sync.Mutex
	var firstErr error
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < fleetClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for raw := range work {
				d, took, err := v.execute(raw)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				v.expected[raw] = d
				v.missMs = append(v.missMs, took)
				mu.Unlock()
			}
		}()
	}
	for _, raw := range todo {
		work <- raw
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, j := range jobs {
		if j.final.Result == nil {
			rep.fail("job %s returned no outcome", j.shape.json)
		} else if got := digest(j.final.Result); got != v.expected[j.shape.json] {
			rep.fail("job %s: fleet outcome %s, in-process outcome %s", j.shape.json, got, v.expected[j.shape.json])
		}
	}
	return nil
}

// execute runs one shape in process and returns its outcome digest and
// the spec.Execute time in ms.
func (v *fleetVerifier) execute(raw string) (string, float64, error) {
	sp, err := spec.Parse([]byte(raw))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	out, err := spec.Execute(context.Background(), sp, v.env, spec.Hooks{})
	took := ms(time.Since(start))
	if err != nil {
		return "", 0, fmt.Errorf("in-process %s: %w", raw, err)
	}
	return digest(out), took, nil
}

// latencies splits job latencies (ms) into all, hits and misses.
func latencies(jobs []fleetJob) (all, hits, misses []float64) {
	for _, j := range jobs {
		l := ms(j.latency)
		all = append(all, l)
		if j.hit {
			hits = append(hits, l)
		} else {
			misses = append(misses, l)
		}
	}
	return all, hits, misses
}

// cacheTotals sums the fleet nodes' result-cache counters.
func cacheTotals(f *cluster.Fleet) (hits, misses int64) {
	for _, n := range f.Nodes {
		st := n.Cache.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// runFleet is the fleet workload: fleetClients closed-loop clients submit
// run and 2-way contest specs to an in-process fleet and watch each job to
// its terminal state.
func runFleet(cfg runConfig) (*report, error) {
	rep := newReport()
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	jobs, wall := fleetWindow(rep, f, cfg.seed, cfg.seconds)
	rss, err := peakRSSMB()
	stopFleet(f)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no fleet job completed")
	}
	v := newFleetVerifier()
	if err := v.verify(rep, jobs); err != nil {
		return nil, err
	}

	all, _, _ := latencies(jobs)
	var minst float64
	for _, j := range jobs {
		minst += float64(j.shape.n) / 1e6
	}
	rep.values["peak_rss_mb"] = rss
	rep.values["minst_s"] = minst / wall.Seconds()
	rep.sample("op_p50_ms", all)
	if !cfg.traced {
		return rep, nil
	}
	return rep, fleetLayers(rep, cfg, v, quantile(all, 0.5))
}

// fleetLayers runs a second window, on a fresh fleet with the same seed,
// under a CPU profile, and splits each job's latency at the node's
// SubmittedAt/StartedAt/FinishedAt timestamps. plainP50 is the untraced
// job p50 the overhead is taken against.
func fleetLayers(rep *report, cfg runConfig, v *fleetVerifier, plainP50 float64) error {
	f, err := startFleet()
	if err != nil {
		return err
	}
	h0, m0 := cacheTotals(f)
	prof, err := startProfile(cfg.tmpDir)
	if err != nil {
		stopFleet(f)
		return err
	}
	jobs, _ := fleetWindow(rep, f, cfg.seed, cfg.seconds)
	perr := prof.stop(rep)
	h1, m1 := cacheTotals(f)
	cs := f.Coord.Stats()
	stopFleet(f)
	if perr != nil {
		return perr
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no traced fleet job completed")
	}
	if err := v.verify(rep, jobs); err != nil {
		return err
	}

	var total, queue, exec, submit float64
	for _, j := range jobs {
		if j.final.StartedAt == nil || j.final.FinishedAt == nil {
			return fmt.Errorf("terminal snapshot of %s lacks timestamps", j.shape.json)
		}
		total += ms(j.latency)
		queue += ms(j.final.StartedAt.Sub(j.final.SubmittedAt))
		exec += ms(j.final.FinishedAt.Sub(*j.final.StartedAt))
		submit += ms(j.submit)
	}
	all, hits, misses := latencies(jobs)
	rep.values["jobs.queue_share"] = queue / total
	rep.values["jobs.exec_share"] = exec / total
	// What neither node timestamp covers is the coordinator's and HTTP's
	// share, and no other timer splits it: it is also the residual.
	overhead := 1 - (queue+exec)/total
	rep.values["cluster.overhead_share"] = overhead
	rep.values["wall.unattributed"] = overhead
	rep.values["cluster.submit_share"] = submit / total
	rep.values["tracing.overhead"] = quantile(all, 0.5)/plainP50 - 1
	hitP50, missP50 := quantile(hits, 0.5), quantile(misses, 0.5)
	rep.values["fleet.hit_to_miss"] = hitP50 / missP50
	rep.values["fleet.p90_to_p50"] = quantile(all, 0.9) / quantile(all, 0.5)

	hitN, missN := float64(h1-h0), float64(m1-m0)
	rep.values["resultcache.hits"] = hitN
	rep.values["resultcache.misses"] = missN
	rep.values["resultcache.hit_rate"] = ratio(hitN, hitN+missN)
	rep.values["cluster.affinity_hits"] = float64(cs.AffinityHits)
	rep.values["cluster.sheds"] = float64(cs.Sheds)
	rep.values["cluster.reroutes"] = float64(cs.Reroutes)

	// Replay repeats in process: the verifier's Env already holds every
	// shape, so these are spec.Execute cache hits.
	var hitMs []float64
	for _, j := range jobs {
		if j.hit && len(hitMs) < 64 {
			_, took, err := v.execute(j.shape.json)
			if err != nil {
				return err
			}
			hitMs = append(hitMs, took)
		}
	}
	rep.values["spec.hit_share"] = quantile(hitMs, 0.5) / hitP50
	rep.values["spec.miss_share"] = quantile(v.missMs, 0.5) / missP50

	// Probe the first few distinct shapes, as solo runs on the benchmark's
	// own core, over a memory-only cache like the nodes'. The nodes have no
	// backing store, so the store_* metrics are 0.
	var probe []probeItem
	byName := paletteByName()
	for _, j := range jobs {
		if !j.hit && len(probe) < 4 {
			probe = append(probe, probeItem{j.shape.bench, j.shape.n, byName[j.shape.bench]})
		}
	}
	if err := probeLayers(rep, nil, probe); err != nil {
		return err
	}
	zero(rep, "resultcache.store_get_ms", "resultcache.store_put_ms", "resultcache.store_read_mb", "resultcache.store_write_mb",
		"engine.solo_minst_s", "engine.contest2_minst_s", "engine.contest4_minst_s",
		"workload.busy_share", "sim.busy_share", "contest.busy_share",
		"contest.excess2", "contest.excess4", "contest.lead_changes", "contest.injected", "contest.alloc_mb",
		"pipeline.cycles", "pipeline.mispredicts", "cache.l1d_misses", "cache.l2d_misses",
		"experiments.utilization", "experiments.leaves")
	return nil
}
