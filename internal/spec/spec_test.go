package spec

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/contest"
)

const testInsts = 10_000

// roundTrip encodes sp to JSON, strictly re-parses it, and returns both
// outcomes: the original spec's and the decoded spec's, executed with no
// cache so the second execution really re-simulates.
func roundTrip(t *testing.T, sp Spec) (*Outcome, *Outcome) {
	t.Helper()
	out1, err := Execute(context.Background(), sp, NewEnv(nil), Hooks{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sp2, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse %s: %v", data, err)
	}
	out2, err := Execute(context.Background(), sp2, NewEnv(nil), Hooks{})
	if err != nil {
		t.Fatalf("re-execute: %v", err)
	}
	return out1, out2
}

// TestSpecRoundTripGoldenGridSingles: every single-core golden-grid
// configuration survives encode -> decode -> re-execute bit-identically.
func TestSpecRoundTripGoldenGridSingles(t *testing.T) {
	benches := []string{"gcc", "mcf", "bzip", "crafty", "twolf"}
	cores := []string{"bzip", "crafty", "gap", "gcc", "gzip", "mcf", "twolf", "vpr"}
	for _, b := range benches {
		for _, c := range cores {
			sp := Spec{Kind: KindRun, Bench: b, N: testInsts, Cores: []string{c}}
			out1, out2 := roundTrip(t, sp)
			if !reflect.DeepEqual(out1.Run, out2.Run) {
				t.Errorf("%s on %s: decoded spec re-executes differently\n%+v\n%+v", b, c, out1.Run, out2.Run)
			}
		}
	}
}

// TestSpecRoundTripGoldenGridContested: the contested golden grid — six
// option variants (latency, exception rendezvous both styles, lag bound,
// store-queue pressure) across four benchmarks — also round-trips.
func TestSpecRoundTripGoldenGridContested(t *testing.T) {
	pairs := []struct {
		a, b string
		opts contest.Options
	}{
		{"gcc", "mcf", contest.Options{}},
		{"bzip", "crafty", contest.Options{LatencyNs: 5}},
		{"twolf", "vpr", contest.Options{ExceptionEvery: 512}},
		{"gzip", "perl", contest.Options{MaxLag: 64}},
		{"gap", "vortex", contest.Options{ExceptionEvery: 768, ExceptionKillRefork: true}},
		{"mcf", "parser", contest.Options{StoreQueueCap: 8}},
	}
	benches := []string{"gcc", "mcf", "twolf", "gzip"}
	for _, p := range pairs {
		opts := p.opts
		opts.RegionSize = 20
		for _, b := range benches {
			sp := Spec{Kind: KindContest, Bench: b, N: testInsts,
				Cores: []string{p.a, p.b}, Contest: &opts}
			out1, out2 := roundTrip(t, sp)
			if !reflect.DeepEqual(out1.Contest, out2.Contest) {
				t.Errorf("%s vs %s on %s: decoded spec re-executes differently\n%+v\n%+v",
					p.a, p.b, b, out1.Contest, out2.Contest)
			}
		}
	}
}

// TestSpecRoundTripCustomCore: an explicit custom configuration (not a
// palette name) survives the JSON round trip too.
func TestSpecRoundTripCustomCore(t *testing.T) {
	custom := config.MustPaletteCore("gcc")
	custom.Name = "tweaked"
	custom.ROBSize = 96
	sp := Spec{Kind: KindRun, Bench: "gcc", N: testInsts, Custom: []config.CoreConfig{custom}}
	out1, out2 := roundTrip(t, sp)
	if !reflect.DeepEqual(out1.Run, out2.Run) {
		t.Errorf("custom core spec re-executes differently\n%+v\n%+v", out1.Run, out2.Run)
	}
	if out1.Run.Core != "tweaked" {
		t.Errorf("ran on %q, want the custom core", out1.Run.Core)
	}
}

func TestSpecInferKind(t *testing.T) {
	cases := []struct {
		sp   Spec
		want string
	}{
		{Spec{Bench: "gcc"}, KindRun},
		{Spec{Bench: "gcc", Cores: []string{"gcc", "mcf"}}, KindContest},
		{Spec{Bench: "gcc", Contest: &contest.Options{}}, KindContest},
		{Spec{Experiment: "appendixA"}, KindExperiment},
		{Spec{Bench: "gcc", Explore: &ExploreSpec{}}, KindExplore},
	}
	for _, c := range cases {
		c.sp.Normalize()
		if c.sp.Kind != c.want {
			t.Errorf("inferred kind %q, want %q (%+v)", c.sp.Kind, c.want, c.sp)
		}
	}
}

// TestSpecInvalid: malformed scenarios are descriptive errors, never
// panics deep inside the engines.
func TestSpecInvalid(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{"unknown field", `{"kind":"run","bench":"gcc","frobnicate":1}`, "frobnicate"},
		{"trailing data", `{"kind":"run","bench":"gcc"} {"more":1}`, "trailing"},
		{"unknown kind", `{"kind":"dance","bench":"gcc"}`, "unknown kind"},
		{"unknown bench", `{"kind":"run","bench":"doom"}`, "doom"},
		{"unknown core", `{"kind":"run","bench":"gcc","cores":["z80"]}`, "z80"},
		{"zero-width custom core", `{"kind":"run","bench":"gcc","custom":[{"Name":"bad","Width":0}]}`, "custom core 0"},
		{"run with two cores", `{"kind":"run","bench":"gcc","cores":["gcc","mcf"]}`, "exactly one core"},
		{"contest with one core", `{"kind":"contest","bench":"gcc","cores":["gcc"]}`, "2..8"},
		{"negative n", `{"kind":"run","bench":"gcc","n":-5}`, "negative trace length"},
		{"n above MaxN", `{"kind":"run","bench":"gcc","n":2000000000}`, "exceeds the maximum"},
		{"negative max_lag", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"contest":{"MaxLag":-1}}`, "max_lag"},
		{"negative store queue", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"contest":{"StoreQueueCap":-2}}`, "store_queue_cap"},
		{"unknown experiment", `{"kind":"experiment","experiment":"figZZ"}`, "unknown experiment"},
		{"run options on contest", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"run":{}}`, "run options"},
		{"record on matrix", `{"kind":"matrix","record":true}`, "record"},
		{"unknown explore mode", `{"kind":"explore","bench":"gcc","explore":{"mode":"hillclimb"}}`, "explore mode"},
		{"pairs on run", `{"kind":"run","bench":"gcc","pairs":2}`, "pairs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp, err := Parse([]byte(c.json))
			if err == nil {
				err = sp.Validate()
			}
			if err == nil {
				t.Fatalf("accepted invalid spec %s", c.json)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestSpecValidateDefaults: a minimal valid spec normalizes to runnable
// defaults.
func TestSpecValidateDefaults(t *testing.T) {
	sp, err := Parse([]byte(`{"bench":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindRun || sp.N != 200_000 || len(sp.Cores) != 1 || sp.Cores[0] != "gcc" {
		t.Errorf("normalized spec %+v", sp)
	}
}

// TestRouteKey: the cluster routing identity must follow artifact
// identity — observation toggles leave it fixed, artifact-changing fields
// move it, and it is deterministic across normalized/unnormalized copies.
func TestRouteKey(t *testing.T) {
	base := Spec{Kind: KindContest, Bench: "twolf", N: 20000, Cores: []string{"twolf", "vpr"}}
	k := base.RouteKey()
	if k == "" || k != base.RouteKey() {
		t.Fatal("RouteKey not deterministic")
	}

	// Normalization-invariant: an empty kind that infers to contest and an
	// explicit one route identically.
	inferred := Spec{Bench: "twolf", N: 20000, Cores: []string{"twolf", "vpr"}}
	if inferred.RouteKey() != k {
		t.Error("inferred-kind spec routes differently from its explicit twin")
	}

	// Observation-only fields keep the key: a recorded or verified re-run
	// of a scenario still lands on the node holding its artifacts.
	obs := base
	obs.Record = true
	obs.Verify = true
	obs.SampleNs = 50
	obs.Parallelism = 4
	if obs.RouteKey() != k {
		t.Error("observation-only fields changed the route key")
	}

	// Artifact-changing fields must move the key.
	for name, mut := range map[string]func(*Spec){
		"bench": func(s *Spec) { s.Bench = "vpr" },
		"n":     func(s *Spec) { s.N = 40000 },
		"cores": func(s *Spec) { s.Cores = []string{"twolf", "gcc"} },
		"lat":   func(s *Spec) { s.LatencyNs = 9 },
		"opts":  func(s *Spec) { s.Contest = &contest.Options{MaxLag: 7} },
	} {
		mutated := base
		mut(&mutated)
		if mutated.RouteKey() == k {
			t.Errorf("%s change did not change the route key", name)
		}
	}
}
