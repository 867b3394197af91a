// Engine-throughput benchmarks: the event-driven fast-forward path against
// the reference single-cycle/single-step path, on the scenarios where dead
// cycles dominate (memory-bound workloads on deep-window cores) and where
// they don't, plus recorder-attached and verified legs that price the
// observability recorder and the oracle + invariant checker. All report
// simulated instructions per wall-second so the perf trajectory is
// comparable across PRs; perfbench's engine workload times the detached
// path end to end.
package archcontest

import (
	"testing"

	"archcontest/internal/obs"
)

// engineHook selects what rides along each timed run. Detached is the
// production path, where every hook is a single nil check.
type engineHook int

const (
	detached engineHook = iota
	recorded
	verified
)

func benchmarkEngineRun(b *testing.B, bench, core string, singleStep bool, hook engineHook) {
	b.Helper()
	tr := MustGenerateTrace(bench, 100_000)
	cfg := MustPaletteCore(core)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r RunResult
		var err error
		switch hook {
		case recorded:
			rec := obs.NewRecorder(obs.Options{})
			r, err = Run(cfg, tr, RunOptions{SingleStep: singleStep, Checker: rec.CoreChecker(0)})
			rec.FinishRun(r)
		case verified:
			r, err = RunVerified(cfg, tr, RunOptions{SingleStep: singleStep})
		default:
			r, err = Run(cfg, tr, RunOptions{SingleStep: singleStep})
		}
		if err != nil {
			b.Fatal(err)
		}
		if r.Insts != int64(tr.Len()) {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
}

func benchmarkEngineContest(b *testing.B, bench string, cores []string, singleStep bool, hook engineHook) {
	b.Helper()
	tr := MustGenerateTrace(bench, 100_000)
	cfgs := paletteCores(cores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r ContestResult
		var err error
		switch hook {
		case recorded:
			rec := obs.NewRecorder(obs.Options{})
			r, err = ContestRun(cfgs, tr, ContestOptions{SingleStep: singleStep, Observer: rec})
			rec.FinishContest(r)
		case verified:
			r, err = ContestRunVerified(cfgs, tr, ContestOptions{SingleStep: singleStep})
		default:
			r, err = ContestRun(cfgs, tr, ContestOptions{SingleStep: singleStep})
		}
		if err != nil {
			b.Fatal(err)
		}
		if r.Insts != int64(tr.Len()) {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
}

// mcf on the mcf core: the paper's most memory-bound benchmark on a
// 1024-entry-ROB core — long stalls, the fast-forward path's best case.
func BenchmarkEngineMemBound(b *testing.B) { benchmarkEngineRun(b, "mcf", "mcf", false, detached) }
func BenchmarkEngineMemBoundSingleStep(b *testing.B) {
	benchmarkEngineRun(b, "mcf", "mcf", true, detached)
}

// gcc on the gcc core: mixed behaviour, moderate stalls. The Recorded and
// Verified legs price the observability recorder and the oracle +
// invariant checker when they are attached.
func BenchmarkEngineMixed(b *testing.B) { benchmarkEngineRun(b, "gcc", "gcc", false, detached) }
func BenchmarkEngineMixedSingleStep(b *testing.B) {
	benchmarkEngineRun(b, "gcc", "gcc", true, detached)
}
func BenchmarkEngineMixedRecorded(b *testing.B) { benchmarkEngineRun(b, "gcc", "gcc", false, recorded) }
func BenchmarkEngineMixedVerified(b *testing.B) { benchmarkEngineRun(b, "gcc", "gcc", false, verified) }

// crafty on the crafty core: high-IPC compute, few dead cycles — the
// fast-forward path's worst case (measures wake-list overhead alone).
func BenchmarkEngineCompute(b *testing.B) { benchmarkEngineRun(b, "crafty", "crafty", false, detached) }
func BenchmarkEngineComputeSingleStep(b *testing.B) {
	benchmarkEngineRun(b, "crafty", "crafty", true, detached)
}

// 2-way contested co-simulation with the event-driven scheduler; the
// Verified leg adds the system observer asserting the contest protocol.
func BenchmarkEngineContest(b *testing.B) {
	benchmarkEngineContest(b, "twolf", []string{"twolf", "vpr"}, false, detached)
}
func BenchmarkEngineContestSingleStep(b *testing.B) {
	benchmarkEngineContest(b, "twolf", []string{"twolf", "vpr"}, true, detached)
}
func BenchmarkEngineContestRecorded(b *testing.B) {
	benchmarkEngineContest(b, "twolf", []string{"twolf", "vpr"}, false, recorded)
}
func BenchmarkEngineContestVerified(b *testing.B) {
	benchmarkEngineContest(b, "twolf", []string{"twolf", "vpr"}, false, verified)
}

// 4-way contested co-simulation with fixed membership: three remote
// senders per receiver on the result bus.
func BenchmarkEngineContest4(b *testing.B) {
	benchmarkEngineContest(b, "twolf", []string{"twolf", "vpr", "gcc", "mcf"}, false, detached)
}
