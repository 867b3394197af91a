package experiments

import (
	"context"
	"strings"
	"testing"
)

// testLab is sized for CI: small traces exercise every code path; the
// absolute numbers are validated at full scale by archcontest figures runs.
func testLab() *Lab {
	return NewLab(Config{N: 30_000, CandidatePairs: 2})
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "Figure X", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("hello %d", 7)
	s := tab.String()
	for _, want := range []string{"Figure X", "demo", "333", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q in:\n%s", want, s)
		}
	}
}

func TestLabCaching(t *testing.T) {
	l := testLab()
	tr1, err := l.Trace(context.Background(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr2, _ := l.Trace(context.Background(), "gcc")
	if tr1 != tr2 {
		t.Error("trace not cached")
	}
	if tr1.Len() != 30_000 {
		t.Errorf("trace length %d", tr1.Len())
	}
}

func TestMatrixAndDesigns(t *testing.T) {
	l := testLab()
	m, err := l.Matrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Benchmarks) != 11 || len(m.Cores) != 11 {
		t.Fatalf("matrix %dx%d", len(m.Benchmarks), len(m.Cores))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m2, _ := l.Matrix(context.Background())
	if m != m2 {
		t.Error("matrix not cached")
	}
	d, err := m.DerivePaperDesigns()
	if err != nil {
		t.Fatal(err)
	}
	hom := m.HarmonicMeanBest(d.Hom.Cores)
	all := m.HarmonicMeanBest(d.HetAll.Cores)
	if all < hom {
		t.Errorf("HET-ALL %.3f below HOM %.3f", all, hom)
	}
}

func TestBestPairContests(t *testing.T) {
	l := testLab()
	r, err := l.BestPair(context.Background(), "twolf")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cores) != 2 {
		t.Fatalf("pair %v", r.Cores)
	}
	if r.IPT() <= 0 {
		t.Fatal("non-positive contest IPT")
	}
	r2, _ := l.BestPair(context.Background(), "twolf")
	if r2.Time != r.Time {
		t.Error("best pair not cached")
	}
}

// Run every registered experiment end to end at small scale.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in short mode")
	}
	l := testLab()
	if len(RegistryOrder) != len(Registry) {
		t.Fatalf("registry order lists %d of %d experiments", len(RegistryOrder), len(Registry))
	}
	for _, id := range RegistryOrder {
		exp := Registry[id]
		if exp == nil {
			t.Fatalf("experiment %s not registered", id)
		}
		tab, err := exp(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tab.ID == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if s := tab.String(); len(s) < 40 {
			t.Errorf("%s: suspiciously short rendering", id)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("contesting sweep in short mode")
	}
	l := testLab()
	tab, err := Figure6(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// The headline shape: contesting never loses badly to the own core, and
	// the average speedup is positive. (Exact magnitudes are validated at
	// full scale; 30k-instruction traces still warm up caches.)
	neg := 0
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[4], "-") {
			neg++
		}
	}
	if neg > 3 {
		t.Errorf("%d/11 benchmarks slowed down by contesting", neg)
	}
}
