package archcontest

// Golden-equivalence tests for the event-driven engine: the fast-forward
// path (wake-list issue, dead-cycle skipping, fast-forwarding contests) must
// reproduce the reference single-cycle/single-step semantics bit for bit —
// every Stats counter, FinishTime, RegionTimes, winner, lead changes, and
// saturation flags, across a grid of palette cores × workloads, stand-alone
// and 2-, 3- and 4-way contested, under store-queue pressure, saturation,
// and exception rendezvous.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
)

const goldenInsts = 20_000

func TestGoldenEquivalenceSingleCore(t *testing.T) {
	benches := []string{"gcc", "mcf", "bzip", "crafty", "twolf"}
	cores := []string{"bzip", "crafty", "gap", "gcc", "gzip", "mcf", "twolf", "vpr"}
	for _, b := range benches {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, cn := range cores {
			cfg := MustPaletteCore(cn)
			slow, err := Run(cfg, tr, RunOptions{LogRegions: true, SingleStep: true})
			if err != nil {
				t.Fatalf("%s on %s (single-step): %v", b, cn, err)
			}
			fast, err := Run(cfg, tr, RunOptions{LogRegions: true})
			if err != nil {
				t.Fatalf("%s on %s (event-driven): %v", b, cn, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s on %s: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", b, cn, slow, fast)
			}
		}
	}
}

// goldenContests is the contested golden grid. Each system runs under a
// different option variant so the grid also covers high latency, exception
// rendezvous (both handler styles), saturated laggers and store-queue
// backpressure; the 3- and 4-way systems exercise the result bus and the
// core scheduler with more than one remote sender per receiver.
var goldenContests = []struct {
	cores []string
	opts  ContestOptions
}{
	{[]string{"gcc", "mcf"}, ContestOptions{}},
	{[]string{"bzip", "crafty"}, ContestOptions{LatencyNs: 5}},
	{[]string{"twolf", "vpr"}, ContestOptions{ExceptionEvery: 512}},
	{[]string{"gzip", "perl"}, ContestOptions{MaxLag: 64}},
	{[]string{"gap", "vortex"}, ContestOptions{ExceptionEvery: 768, ExceptionKillRefork: true}},
	{[]string{"mcf", "parser"}, ContestOptions{StoreQueueCap: 8}},
	{[]string{"gcc", "mcf", "twolf"}, ContestOptions{}},
	{[]string{"gzip", "perl", "mcf"}, ContestOptions{MaxLag: 64}},
	{[]string{"bzip", "vpr", "gap"}, ContestOptions{ExceptionEvery: 512}},
	{[]string{"twolf", "gcc", "vpr", "mcf"}, ContestOptions{}},
	{[]string{"perl", "gzip", "mcf", "crafty"}, ContestOptions{MaxLag: 64}},
	{[]string{"vortex", "parser", "gap", "bzip"}, ContestOptions{ExceptionEvery: 768}},
}

// goldenContestBenches are the workloads every goldenContests system runs.
var goldenContestBenches = []string{"gcc", "mcf", "twolf", "gzip"}

func paletteCores(names []string) []CoreConfig {
	cfgs := make([]CoreConfig, len(names))
	for i, n := range names {
		cfgs[i] = MustPaletteCore(n)
	}
	return cfgs
}

func TestGoldenEquivalenceContested(t *testing.T) {
	for _, sys := range goldenContests {
		cfgs := paletteCores(sys.cores)
		saturated := false
		for _, b := range goldenContestBenches {
			tr := MustGenerateTrace(b, goldenInsts)
			slowOpts := sys.opts
			slowOpts.RegionSize = 20
			slowOpts.SingleStep = true
			fastOpts := sys.opts
			fastOpts.RegionSize = 20
			slow, err := ContestRun(cfgs, tr, slowOpts)
			if err != nil {
				t.Fatalf("%v on %s (single-step): %v", sys.cores, b, err)
			}
			fast, err := ContestRun(cfgs, tr, fastOpts)
			if err != nil {
				t.Fatalf("%v on %s (event-driven): %v", sys.cores, b, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%v on %s: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", sys.cores, b, slow, fast)
			}
			for _, sat := range fast.Saturated {
				saturated = saturated || sat
			}
		}
		if sys.opts.MaxLag > 0 && !saturated {
			t.Errorf("%v: no MaxLag %d run saturated a core; the grid lost its saturation coverage", sys.cores, sys.opts.MaxLag)
		}
	}
}

// contestDigests pins a SHA-256 (first 8 bytes, hex) of the JSON encoding
// of every goldenContests result, keyed "cores/bench". The golden grid is
// differential — both schedulers share the result bus and the store queue —
// so only these digests catch a change that moves every scheduler alike.
var contestDigests = map[string]string{
	"gcc,mcf/gcc":                  "7008e9ad17f10446",
	"gcc,mcf/mcf":                  "9b91f7e2d53c29f4",
	"gcc,mcf/twolf":                "535d60edc75c888e",
	"gcc,mcf/gzip":                 "f739d37210d0ae1b",
	"bzip,crafty/gcc":              "afe9208630b8eb32",
	"bzip,crafty/mcf":              "dcdaff0ae4c2516e",
	"bzip,crafty/twolf":            "427c3d25ac9f9ae7",
	"bzip,crafty/gzip":             "941bda749682520e",
	"twolf,vpr/gcc":                "c9b7e10f62e2321a",
	"twolf,vpr/mcf":                "666b473f241a1cf6",
	"twolf,vpr/twolf":              "8d0ac8f710df1555",
	"twolf,vpr/gzip":               "72d408df3d71b0a8",
	"gzip,perl/gcc":                "8bf88d1ac5ad0163",
	"gzip,perl/mcf":                "cb66e230ee4f24cc",
	"gzip,perl/twolf":              "ef31eb7be3f83be7",
	"gzip,perl/gzip":               "0228e54984704791",
	"gap,vortex/gcc":               "d51e8de0ce9869e1",
	"gap,vortex/mcf":               "0d454c3ebf06a737",
	"gap,vortex/twolf":             "19c839a447ae9b72",
	"gap,vortex/gzip":              "1c36eef0f43ff571",
	"mcf,parser/gcc":               "cca6ce0fb63b48e8",
	"mcf,parser/mcf":               "73a8e228580b554e",
	"mcf,parser/twolf":             "0527a676f5356e4b",
	"mcf,parser/gzip":              "69d8a63dbbff8573",
	"gcc,mcf,twolf/gcc":            "edc52e26f1b01c99",
	"gcc,mcf,twolf/mcf":            "d7ecf98a9c7540f5",
	"gcc,mcf,twolf/twolf":          "1533c8db77e8a628",
	"gcc,mcf,twolf/gzip":           "52ccfc7d9dc1b3c6",
	"gzip,perl,mcf/gcc":            "76ccd9a3a8485392",
	"gzip,perl,mcf/mcf":            "0c28832c995232be",
	"gzip,perl,mcf/twolf":          "d056370182aca7c6",
	"gzip,perl,mcf/gzip":           "38f9e8e1859f2cfe",
	"bzip,vpr,gap/gcc":             "f9e04c4bf4c1ac06",
	"bzip,vpr,gap/mcf":             "a67ba158e0127e9d",
	"bzip,vpr,gap/twolf":           "2b41717e166b5c14",
	"bzip,vpr,gap/gzip":            "9580e1d38222fd7e",
	"twolf,gcc,vpr,mcf/gcc":        "506dfa056b89f509",
	"twolf,gcc,vpr,mcf/mcf":        "7e679eb2824aaa31",
	"twolf,gcc,vpr,mcf/twolf":      "510104f295b133e8",
	"twolf,gcc,vpr,mcf/gzip":       "c54049812e3d82fc",
	"perl,gzip,mcf,crafty/gcc":     "ca2a73f3a383ba1e",
	"perl,gzip,mcf,crafty/mcf":     "8200ccbe7673ec24",
	"perl,gzip,mcf,crafty/twolf":   "6938b2de20ac9254",
	"perl,gzip,mcf,crafty/gzip":    "da2689ae94f3bf7f",
	"vortex,parser,gap,bzip/gcc":   "8c126456b9e3e646",
	"vortex,parser,gap,bzip/mcf":   "c525d31d17f1d315",
	"vortex,parser,gap,bzip/twolf": "e6e130140c3a0e23",
	"vortex,parser,gap,bzip/gzip":  "611970882a986624",
}

// TestContestDigests checks the contested golden grid against history. A
// mismatch means simulated results changed: bump sim.EngineVersion, so no
// persisted cache serves stale results, and paste the logged table into
// contestDigests.
func TestContestDigests(t *testing.T) {
	var table strings.Builder
	changed := false
	for _, sys := range goldenContests {
		cfgs := paletteCores(sys.cores)
		for _, b := range goldenContestBenches {
			tr := MustGenerateTrace(b, goldenInsts)
			opts := sys.opts
			opts.RegionSize = 20
			res, err := ContestRun(cfgs, tr, opts)
			if err != nil {
				t.Fatalf("%v on %s: %v", sys.cores, b, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			key := strings.Join(sys.cores, ",") + "/" + b
			got := hex.EncodeToString(sum[:8])
			fmt.Fprintf(&table, "\t%q: %q,\n", key, got)
			if want := contestDigests[key]; got != want {
				t.Errorf("%s: digest %s, pinned %q", key, got, want)
				changed = true
			}
		}
	}
	if len(contestDigests) != len(goldenContests)*len(goldenContestBenches) {
		t.Errorf("contestDigests pins %d results, the grid has %d", len(contestDigests), len(goldenContests)*len(goldenContestBenches))
		changed = true
	}
	if changed {
		t.Fatalf("results changed: bump sim.EngineVersion and regenerate contestDigests:\n%s", table.String())
	}
}

// goldenPredictors are the non-default predictor variants of the golden
// grid: the palette is all-gshare, so without these legs the bimodal
// interface fallback and the TAGE fast path in doFetch had no golden
// coverage at all.
var goldenPredictors = []struct {
	name string
	cfg  branch.Config
}{
	{"bimodal", branch.Config{Kind: "bimodal", LogSize: 12}},
	{"tage", branch.DefaultTAGEConfig()},
}

func TestGoldenEquivalencePredictorPalette(t *testing.T) {
	for _, b := range []string{"gcc", "twolf", "crafty"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, p := range goldenPredictors {
			cfg := MustPaletteCore(b)
			cfg.Name = b + "-" + p.name
			cfg.Predictor = p.cfg
			slow, err := Run(cfg, tr, RunOptions{LogRegions: true, SingleStep: true})
			if err != nil {
				t.Fatalf("%s on %s (single-step): %v", b, cfg.Name, err)
			}
			fast, err := Run(cfg, tr, RunOptions{LogRegions: true})
			if err != nil {
				t.Fatalf("%s on %s (event-driven): %v", b, cfg.Name, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s on %s: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", b, cfg.Name, slow, fast)
			}
		}
	}
}

// goldenComponents are the non-default cache-component variants of the
// golden grid: the palette is all-LRU with no prefetching, so without these
// legs the generic replacer path and the prefetch fill timing had no golden
// coverage. Each entry swaps the replacement policy on both cache levels
// and/or attaches a prefetcher to the hierarchy.
var goldenComponents = []struct {
	name, repl, pref string
}{
	{"srrip", "srrip", ""},
	{"random", "random", ""},
	{"nextline", "", "nextline"},
	{"stride", "", "stride"},
	{"srrip-stride", "srrip", "stride"},
}

// componentCore equips the bench's own palette core with the named
// replacement policy (both levels) and prefetcher.
func componentCore(bench, name, repl, pref string) CoreConfig {
	cfg := MustPaletteCore(bench)
	cfg.Name = bench + "-" + name
	cfg.L1D.Replacement = repl
	cfg.L2D.Replacement = repl
	cfg.Prefetch = cache.PrefetchConfig{Name: pref}
	return cfg
}

func TestGoldenEquivalenceComponentPalette(t *testing.T) {
	for _, b := range []string{"gcc", "mcf", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, c := range goldenComponents {
			cfg := componentCore(b, c.name, c.repl, c.pref)
			slow, err := Run(cfg, tr, RunOptions{LogRegions: true, SingleStep: true})
			if err != nil {
				t.Fatalf("%s on %s (single-step): %v", b, cfg.Name, err)
			}
			fast, err := Run(cfg, tr, RunOptions{LogRegions: true})
			if err != nil {
				t.Fatalf("%s on %s (event-driven): %v", b, cfg.Name, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s on %s: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", b, cfg.Name, slow, fast)
			}
		}
	}
}

// TestGoldenEquivalenceComponentContested contests a component-equipped core
// against the unmodified default core, so the generic replacer and prefetch
// paths are also locked under broadcast/inject traffic and lead changes.
func TestGoldenEquivalenceComponentContested(t *testing.T) {
	legs := []struct {
		name, repl, pref string
		opts             ContestOptions
	}{
		{"srrip-stride", "srrip", "stride", ContestOptions{}},
		{"random-nextline", "random", "nextline", ContestOptions{ExceptionEvery: 640, ExceptionKillRefork: true, ReforkWarmupNs: 250, ReforkColdCaches: true}},
	}
	for _, b := range []string{"gcc", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, leg := range legs {
			cfgs := []CoreConfig{MustPaletteCore(b), componentCore(b, leg.name, leg.repl, leg.pref)}
			slowOpts := leg.opts
			slowOpts.RegionSize = 20
			slowOpts.SingleStep = true
			fastOpts := leg.opts
			fastOpts.RegionSize = 20
			slow, err := ContestRun(cfgs, tr, slowOpts)
			if err != nil {
				t.Fatalf("%s %s (single-step): %v", b, leg.name, err)
			}
			fast, err := ContestRun(cfgs, tr, fastOpts)
			if err != nil {
				t.Fatalf("%s %s (event-driven): %v", b, leg.name, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s %s: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", b, leg.name, slow, fast)
			}
		}
	}
}

// TestGoldenEquivalenceWarmupContested covers the state-transfer model in
// the contested golden grid: gshare vs TAGE on the same structural core
// under kill-refork with warm-up charges, cold-state reforks, and the
// lead-change accounting — the paths the base contested grid never takes.
func TestGoldenEquivalenceWarmupContested(t *testing.T) {
	variants := []struct {
		name string
		opts ContestOptions
	}{
		{"warmup", ContestOptions{ExceptionEvery: 640, ExceptionKillRefork: true, ReforkWarmupNs: 250}},
		{"cold", ContestOptions{ExceptionEvery: 640, ExceptionKillRefork: true,
			ReforkWarmupNs: 250, ReforkColdPredictor: true, ReforkColdCaches: true,
			LeadChangeWarmupNs: 25}},
	}
	for _, b := range []string{"gcc", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		cfgG := MustPaletteCore(b)
		cfgT := cfgG
		cfgT.Name = b + "-tage"
		cfgT.Predictor = branch.DefaultTAGEConfig()
		cfgs := []CoreConfig{cfgG, cfgT}
		for _, v := range variants {
			slowOpts := v.opts
			slowOpts.RegionSize = 20
			slowOpts.SingleStep = true
			fastOpts := v.opts
			fastOpts.RegionSize = 20
			slow, err := ContestRun(cfgs, tr, slowOpts)
			if err != nil {
				t.Fatalf("%s %s (single-step): %v", b, v.name, err)
			}
			fast, err := ContestRun(cfgs, tr, fastOpts)
			if err != nil {
				t.Fatalf("%s %s (event-driven): %v", b, v.name, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s %s: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", b, v.name, slow, fast)
			}
		}
	}
}
