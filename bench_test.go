// Benchmarks: one per table and figure of the paper's evaluation, each
// printing the same rows/series the paper reports (at a reduced trace
// length — run archcontest figures for full-scale numbers), plus engine
// micro-benchmarks that report simulated instructions per wall-second.
package archcontest

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"archcontest/internal/experiments"
)

// benchN is the trace length used by the experiment benchmarks. Full-scale
// runs (archcontest figures, default 1M) take minutes; this keeps
// `go test -bench` in seconds per experiment while preserving every code
// path.
const benchN = 60_000

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func sharedLab() *experiments.Lab {
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Config{N: benchN, CandidatePairs: 2})
	})
	return benchLab
}

var printedExperiments sync.Map

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	lab := sharedLab()
	for i := 0; i < b.N; i++ {
		tab, err := exp(context.Background(), lab)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printedExperiments.LoadOrStore(id, true); !done {
			fmt.Fprintf(os.Stdout, "\n[n=%d instructions]\n", benchN)
			tab.Fprint(os.Stdout)
		}
	}
}

func BenchmarkFigure1(b *testing.B)  { benchmarkExperiment(b, "fig1") }
func BenchmarkFigure6(b *testing.B)  { benchmarkExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchmarkExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchmarkExperiment(b, "fig8") }
func BenchmarkTable1(b *testing.B)   { benchmarkExperiment(b, "table1") }
func BenchmarkFigure9(b *testing.B)  { benchmarkExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchmarkExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchmarkExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchmarkExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchmarkExperiment(b, "fig13") }
func BenchmarkAppendixA(b *testing.B) {
	benchmarkExperiment(b, "appendixA")
}
func BenchmarkAblationStoreQueue(b *testing.B) { benchmarkExperiment(b, "ablationQueue") }
func BenchmarkAblationMaxLag(b *testing.B)     { benchmarkExperiment(b, "ablationLag") }
func BenchmarkAblationTraining(b *testing.B)   { benchmarkExperiment(b, "ablationTrain") }
func BenchmarkMigrationBaseline(b *testing.B)  { benchmarkExperiment(b, "migration") }
func BenchmarkPower(b *testing.B)              { benchmarkExperiment(b, "power") }
func BenchmarkNWayContesting(b *testing.B)     { benchmarkExperiment(b, "nway") }
func BenchmarkExceptions(b *testing.B)         { benchmarkExperiment(b, "exceptions") }

// BenchmarkSingleCoreEngine measures raw simulation throughput of the
// out-of-order core model.
func BenchmarkSingleCoreEngine(b *testing.B) {
	tr := MustGenerateTrace("gcc", 100_000)
	cfg := MustPaletteCore("gcc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := MustRun(cfg, tr)
		if r.Insts != int64(tr.Len()) {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
}

// BenchmarkContestEngine measures the throughput of 2-way contested
// co-simulation.
func BenchmarkContestEngine(b *testing.B) {
	tr := MustGenerateTrace("twolf", 100_000)
	pair := []CoreConfig{MustPaletteCore("twolf"), MustPaletteCore("vpr")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ContestRun(pair, tr, ContestOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Insts != int64(tr.Len()) {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := MustGenerateTrace("mcf", 100_000)
		if tr.Len() != 100_000 {
			b.Fatal("short trace")
		}
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
