package fuzz

// The native fuzz targets. Each decodes its input with the total decoder
// (decode.go), runs the engine with the full verification subsystem
// attached, and fails on any invariant violation, oracle divergence, or
// event-driven/single-step mismatch. Sustained runs:
//
//	go test -fuzz=FuzzPipeline      -fuzztime=30s -run '^$' ./fuzz/
//	go test -fuzz=FuzzContest       -fuzztime=30s -run '^$' ./fuzz/
//	go test -fuzz=FuzzResultCacheKey -fuzztime=30s -run '^$' ./fuzz/

import (
	"reflect"
	"testing"

	"archcontest/internal/contest"
	"archcontest/internal/invariant"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
)

func addSeeds(f *testing.F) {
	for _, s := range SeedCorpus() {
		f.Add(s)
	}
}

// FuzzPipeline: any decodable single-core run retires the whole trace in
// order with clean invariants, replays the oracle, and is bit-identical
// between the event-driven and single-step schedulers.
func FuzzPipeline(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := decodePipeline(data)
		chk := invariant.NewCoreChecker(tr, invariant.Options{
			OnViolation: func(err error) { t.Error(err) },
			ScanEvery:   4,
		})
		fast, err := sim.Run(cfg, tr, sim.RunOptions{Checker: chk, MaxCycles: 50_000_000})
		if err != nil {
			t.Fatalf("event-driven run failed (deadlock?): %v", err)
		}
		chk.Finish(int64(tr.Len()))

		slow, err := sim.Run(cfg, tr, sim.RunOptions{SingleStep: true, MaxCycles: 50_000_000})
		if err != nil {
			t.Fatalf("single-step run failed: %v", err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("event-driven diverges from single-step\nfast: %+v\nslow: %+v", fast, slow)
		}

		legacy, err := sim.Run(cfg, tr, sim.RunOptions{LegacySched: true, MaxCycles: 50_000_000})
		if err != nil {
			t.Fatalf("legacy-scheduler run failed: %v", err)
		}
		if !reflect.DeepEqual(fast, legacy) {
			t.Errorf("bitmap scheduler diverges from legacy wake-list\nbitmap: %+v\nlegacy: %+v", fast, legacy)
		}
	})
}

// FuzzContest: any decodable contested run finishes with clean contest
// invariants (bounded lag, GRB protocol, leader accounting, store-merge
// prefix, exception rendezvous) and is bit-identical between the
// event-driven and single-step schedulers.
func FuzzContest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfgs, opts := decodeContest(data)
		obs := invariant.NewSystemObserver(tr, invariant.Options{
			OnViolation: func(err error) { t.Error(err) },
			ScanEvery:   8,
		})
		vopts := opts
		vopts.Observer = obs
		fast, err := contest.Run(cfgs, tr, vopts)
		if err != nil {
			t.Fatalf("event-driven contest failed (deadlock?): %v", err)
		}
		obs.Finish(fast)

		sopts := opts
		sopts.SingleStep = true
		slow, err := contest.Run(cfgs, tr, sopts)
		if err != nil {
			t.Fatalf("single-step contest failed: %v", err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("event-driven diverges from single-step\nfast: %+v\nslow: %+v", fast, slow)
		}

		lopts := opts
		lopts.LegacySched = true
		legacy, err := contest.Run(cfgs, tr, lopts)
		if err != nil {
			t.Fatalf("legacy-scheduler contest failed: %v", err)
		}
		if !reflect.DeepEqual(fast, legacy) {
			t.Errorf("bitmap scheduler diverges from legacy wake-list\nbitmap: %+v\nlegacy: %+v", fast, legacy)
		}
	})
}

// FuzzResultCacheKey: the campaign cache key is deterministic, blind to
// attached checkers (they are not part of the result), and sensitive to
// every decoded input dimension — so a cache can neither split on checker
// attachment nor collide across different runs.
func FuzzResultCacheKey(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfgs, opts := decodeContest(data)
		cfg := cfgs[0]

		runKey := func(ro sim.RunOptions) string {
			return resultcache.Key("run", sim.EngineVersion, tr.Fingerprint(), tr.Name(), tr.Len(), cfg, ro)
		}
		contestKey := func(co contest.Options) string {
			return resultcache.Key("contest", sim.EngineVersion, tr.Fingerprint(), tr.Name(), tr.Len(), cfgs, co)
		}

		// Determinism.
		if runKey(sim.RunOptions{}) != runKey(sim.RunOptions{}) {
			t.Error("run key not deterministic")
		}
		if contestKey(opts) != contestKey(opts) {
			t.Error("contest key not deterministic")
		}

		// Checker blindness: attaching verification must not change a key,
		// or verified and plain results would occupy distinct cache slots
		// and the bypass rule would silently stop mattering.
		chk := invariant.NewCoreChecker(tr, invariant.Options{})
		if runKey(sim.RunOptions{Checker: chk}) != runKey(sim.RunOptions{}) {
			t.Error("run key sees the attached checker")
		}
		vopts := opts
		vopts.Observer = invariant.NewSystemObserver(tr, invariant.Options{})
		if contestKey(vopts) != contestKey(opts) {
			t.Error("contest key sees the attached observer")
		}

		// Sensitivity: every decoded dimension must move the key.
		seen := map[string]string{contestKey(opts): "base"}
		mutate := func(label string, co contest.Options) {
			k := contestKey(co)
			if prev, dup := seen[k]; dup {
				t.Errorf("contest key collision: %s == %s", label, prev)
			}
			seen[k] = label
		}
		m := opts
		m.LatencyNs += 0.25
		mutate("latency", m)
		m = opts
		m.MaxLag++
		mutate("maxlag", m)
		m = opts
		m.StoreQueueCap++
		mutate("sqcap", m)
		m = opts
		m.ExceptionEvery++
		mutate("exception", m)
		m = opts
		m.NoTrainOnInject = !m.NoTrainOnInject
		mutate("train", m)

		wider := cfg
		wider.Width++
		if k := resultcache.Key("run", sim.EngineVersion, tr.Fingerprint(), tr.Name(), tr.Len(), wider, sim.RunOptions{}); k == runKey(sim.RunOptions{}) {
			t.Error("run key blind to the configuration")
		}
		if tr.Len() > 1 {
			short := tr.Prefix(tr.Len() - 1)
			if k := resultcache.Key("run", sim.EngineVersion, short.Fingerprint(), short.Name(), short.Len(), cfg, sim.RunOptions{}); k == runKey(sim.RunOptions{}) {
				t.Error("run key blind to the trace")
			}
		}
	})
}

// TestDecoderTotal locks the decoder's contract directly: every seed (and a
// byte sweep) decodes to validating inputs.
func TestDecoderTotal(t *testing.T) {
	inputs := SeedCorpus()
	for b := 0; b < 256; b += 17 {
		inputs = append(inputs, []byte{byte(b), byte(b ^ 0x5a), byte(b * 3)})
	}
	for _, data := range inputs {
		tr, cfgs, opts := decodeContest(data)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", data, err)
		}
		if tr.Len() < 64 || tr.Len() > maxFuzzInsts {
			t.Fatalf("%v: trace length %d out of range", data, tr.Len())
		}
		for _, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%v: %v", data, err)
			}
		}
		if opts.MaxTimeNs <= 0 {
			t.Fatalf("%v: no time budget", data)
		}
	}
}

// TestSeedRegimes locks that the constructed seeds really reach the regimes
// they claim: the saturation seed saturates a core, the backpressure seed
// fills the store queue, the exception seeds rendezvous.
func TestSeedRegimes(t *testing.T) {
	seeds := SeedCorpus()

	_, _, exc := decodeContest(seeds[1])
	if exc.ExceptionEvery == 0 {
		t.Error("exception seed decodes without exceptions")
	}
	_, _, kill := decodeContest(seeds[2])
	if !kill.ExceptionKillRefork {
		t.Error("kill-refork seed decodes without kill-refork")
	}

	trS, cfgsS, optsS := decodeContest(seeds[3])
	resS, err := contest.Run(cfgsS, trS, optsS)
	if err != nil {
		t.Fatal(err)
	}
	sat := false
	for _, s := range resS.Saturated {
		sat = sat || s
	}
	if !sat {
		t.Error("saturation seed saturates no core")
	}

	trB, cfgsB, optsB := decodeContest(seeds[4])
	if optsB.StoreQueueCap >= 256 {
		t.Fatalf("backpressure seed decodes store queue cap %d", optsB.StoreQueueCap)
	}
	if _, err := contest.Run(cfgsB, trB, optsB); err != nil {
		t.Fatal(err)
	}

	_, cfgs3, _ := decodeContest(seeds[5])
	if len(cfgs3) != 3 {
		t.Errorf("3-way seed decodes %d cores", len(cfgs3))
	}
}
