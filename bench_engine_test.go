// Engine-throughput benchmarks: the event-driven fast-forward path against
// the reference single-cycle/single-step path, on the scenarios where dead
// cycles dominate (memory-bound workloads on deep-window cores) and where
// they don't. All report simulated instructions per wall-second so the
// perf trajectory is comparable across PRs; cmd/bench runs the same
// scenarios standalone and emits BENCH_engine.json.
package archcontest

import "testing"

func benchmarkEngineRun(b *testing.B, bench, core string, singleStep bool) {
	b.Helper()
	tr := MustGenerateTrace(bench, 100_000)
	cfg := MustPaletteCore(core)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(cfg, tr, RunOptions{SingleStep: singleStep})
		if err != nil {
			b.Fatal(err)
		}
		if r.Insts != int64(tr.Len()) {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
}

func benchmarkEngineContest(b *testing.B, bench, a, c string, singleStep bool) {
	b.Helper()
	tr := MustGenerateTrace(bench, 100_000)
	pair := []CoreConfig{MustPaletteCore(a), MustPaletteCore(c)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ContestRun(pair, tr, ContestOptions{SingleStep: singleStep})
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
func BenchmarkEngineMemBound(b *testing.B)           { benchmarkEngineRun(b, "mcf", "mcf", false) }
func BenchmarkEngineMemBoundSingleStep(b *testing.B) { benchmarkEngineRun(b, "mcf", "mcf", true) }

// gcc on the gcc core: mixed behaviour, moderate stalls.
func BenchmarkEngineMixed(b *testing.B)           { benchmarkEngineRun(b, "gcc", "gcc", false) }
func BenchmarkEngineMixedSingleStep(b *testing.B) { benchmarkEngineRun(b, "gcc", "gcc", true) }

// crafty on the crafty core: high-IPC compute, few dead cycles — the
// fast-forward path's worst case (measures wake-list overhead alone).
func BenchmarkEngineCompute(b *testing.B)           { benchmarkEngineRun(b, "crafty", "crafty", false) }
func BenchmarkEngineComputeSingleStep(b *testing.B) { benchmarkEngineRun(b, "crafty", "crafty", true) }

// 2-way contested co-simulation with the heap scheduler.
func BenchmarkEngineContest(b *testing.B) { benchmarkEngineContest(b, "twolf", "twolf", "vpr", false) }
func BenchmarkEngineContestSingleStep(b *testing.B) {
	benchmarkEngineContest(b, "twolf", "twolf", "vpr", true)
}
