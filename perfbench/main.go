// Command perfbench is the repository's benchmark: three closed-loop
// workloads (engine, campaign, fleet) that each print every end-to-end
// metric by name with its unit, check the program's outputs, and count
// failed operations against attempted ones. With -trace 1 the same
// workload runs once untraced and once traced, and the traced pass reports
// per-layer metrics instead: timers around calls into each internal
// package, a CPU profile bucketed by package, and the tracing overhead.
//
// Usage (from the repository root; run.sh builds and invokes this):
//
//	perfbench -workload engine|campaign|fleet -seed N -seconds S -trace 0|1
//	perfbench -record   # print a fresh digests.go for the current engine
//
// An untraced run also starts this binary with -setup, setupReps times
// before its measured window and setupReps times after it. Each such
// process does the workload's start-up, prints "ready" and exits; setup_s
// is the median time from exec to "ready".
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for what each
// workload measures and why.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultSeed is used when -seed is not given. HeldOutSeed was kept out
// of tuning, so a later performance claim can be re-checked on inputs
// nobody optimized against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// setupReps is how many fresh processes time the workload's start-up on
// each side of the measured window. setup_s is the median of both bursts,
// so neither one slow start nor one slow moment of the host moves it.
const setupReps = 25

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports untraced, in output
// order. Each workload defines them for its own unit of work (README.md).
// There is no tail percentile: the engine's 11 operations and the
// campaign's few dozen warm passes per run leave fewer than ten samples
// beyond any percentile above the median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"minst_s", "Minst/s"},
	{"op_p50_ms", "ms"},
}

// perLayer lists the metrics every workload reports traced, in output
// order. A workload that does not cross a layer reports 0 for that
// layer's metrics. The engine times the trace and pipeline layers on its
// own operations; campaign and fleet, which cross them inside the Lab and
// the nodes, time them with the layer probe.
var perLayer = []metricDef{
	{"workload.generate_ms_per_minst", "ms/Minst"},
	{"trace.fingerprint_ms_per_minst", "ms/Minst"},
	{"resultcache.key_us", "us"},
	{"resultcache.get_ms", "ms"},
	{"resultcache.put_ms", "ms"},
	{"resultcache.store_get_ms", "ms"},
	{"resultcache.store_put_ms", "ms"},
	{"resultcache.store_read_mb", "MB"},
	{"resultcache.store_write_mb", "MB"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.hit_rate", "share"},
	{"pipeline.host_ns_per_cycle", "ns"},
	{"engine.solo_minst_s", "Minst/s"},
	{"engine.contest2_minst_s", "Minst/s"},
	{"engine.contest4_minst_s", "Minst/s"},
	{"workload.busy_share", "share"},
	{"sim.busy_share", "share"},
	{"contest.busy_share", "share"},
	{"contest.excess2", "x"},
	{"contest.excess4", "x"},
	{"contest.lead_changes", "count"},
	{"contest.injected", "count"},
	{"contest.alloc_mb", "MB"},
	{"pipeline.cycles", "count"},
	{"pipeline.mispredicts", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.l2d_misses", "count"},
	{"experiments.utilization", "share"},
	{"experiments.leaves", "count"},
	{"jobs.queue_share", "share"},
	{"jobs.exec_share", "share"},
	{"cluster.overhead_share", "share"},
	{"cluster.submit_share", "share"},
	{"spec.hit_share", "share"},
	{"spec.miss_share", "share"},
	{"fleet.hit_to_miss", "x"},
	{"fleet.p90_to_p50", "x"},
	{"cluster.affinity_hits", "count"},
	{"cluster.sheds", "count"},
	{"cluster.reroutes", "count"},
	{"cpu.pipeline", "share"},
	{"cpu.cache", "share"},
	{"cpu.branch", "share"},
	{"cpu.contest", "share"},
	{"cpu.workload", "share"},
	{"cpu.trace", "share"},
	{"cpu.resultcache", "share"},
	{"cpu.encoding", "share"},
	{"cpu.net", "share"},
	{"cpu.runtime", "share"},
	{"cpu.unattributed", "share"},
	{"wall.unattributed", "share"},
	{"tracing.overhead", "share"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	tmpDir  string // scratch space inside the checkout, removed at exit (-setup: the temp root)
}

// report is one workload run's outcome: operation counts and metric
// values, plus optional per-metric sample spreads for the human summary.
type report struct {
	attempted, failed int
	values            map[string]float64
	spread            map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, spread: map[string]string{}}
}

// fail records one failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// sample sets name to the median of xs and records its quartiles and
// 90th percentile for the human-readable lines.
func (r *report) sample(name string, xs []float64) {
	r.values[name] = quantile(xs, 0.5)
	r.spread[name] = fmt.Sprintf("q1 %.4g  q3 %.4g  p90 %.4g  n=%d",
		quantile(xs, 0.25), quantile(xs, 0.75), quantile(xs, 0.9), len(xs))
}

var workloads = map[string]func(runConfig) (*report, error){
	"engine":   runEngine,
	"campaign": runCampaign,
	"fleet":    runFleet,
}

// setups holds each workload's start-up: everything its process does
// before the first timed operation, using the same calls the workload
// makes. Each returns a function that releases what it started.
var setups = map[string]func(runConfig) (func(), error){
	"engine":   setupEngine,
	"campaign": setupCampaign,
	"fleet":    setupFleet,
}

func main() {
	workload := flag.String("workload", "", "engine, campaign or fleet")
	seed := flag.Uint64("seed", DefaultSeed, "input seed (the held-out seed is "+strconv.Itoa(HeldOutSeed)+")")
	seconds := flag.Float64("seconds", 20, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass instead of end-to-end metrics")
	record := flag.Bool("record", false, "print a regenerated digests.go and exit")
	setupOnly := flag.Bool("setup", false, "do the workload's start-up, print ready and exit (times setup_s)")
	flag.Parse()

	if *record {
		if err := recordDigests(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want engine, campaign or fleet)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1}
	if *setupOnly {
		// Nothing but the workload's start-up runs before "ready": no
		// scratch directory of the benchmark's own.
		cfg.tmpDir = os.TempDir()
		release, err := setups[*workload](cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println("ready")
		release()
		return
	}
	tmp, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		fatal(err)
	}
	cfg.tmpDir = tmp
	var setupS []float64
	if !cfg.traced {
		if setupS, err = measureSetup(*workload, *seed); err != nil {
			os.RemoveAll(tmp)
			fatal(err)
		}
	}
	rep, err := run(cfg)
	if err == nil && !cfg.traced {
		var after []float64
		after, err = measureSetup(*workload, *seed)
		setupS = append(setupS, after...)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	defs := perLayer
	if !cfg.traced {
		rep.sample("setup_s", setupS)
		defs = endToEnd
	}
	emit(*workload, rep, defs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints one human-readable line per metric, then the JSON result
// line. A metric the workload failed to produce is an error, never a
// silent zero.
func emit(workload string, rep *report, defs []metricDef) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "workload %s  attempted %d  failed %d\n", workload, rep.attempted, rep.failed)
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("workload %s produced no value for %s", workload, d.name))
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-32s %14.6g %-8s %s\n", d.name, v, d.unit, rep.spread[d.name])
	}
	data, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	w.Write(data)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never crossed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureSetup starts this binary with -setup setupReps times, one process
// after another, and returns each one's time in seconds from exec until it
// reports that the workload is ready for its first timed operation. Each
// process is waited for before the next starts.
func measureSetup(workload string, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "-setup", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		took := time.Since(start)
		io.Copy(io.Discard, out)
		werr := cmd.Wait()
		if werr != nil || rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up process: %v (read %q: %v)", werr, line, rerr)
		}
		times = append(times, took.Seconds())
	}
	return times, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// procfs. There is no fallback: another figure under this name would
// change the metric's meaning.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak_rss_mb: no VmHWM in /proc/self/status")
}

// splitmix64 is the benchmark's own seeded generator, so the inputs it
// derives from -seed never depend on the program under test.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a seeded permutation of [0, n).
func (r *splitmix64) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
