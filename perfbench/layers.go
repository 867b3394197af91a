package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"archcontest/internal/config"
	"archcontest/internal/experiments"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/workload"
)

// timedStore wraps a resultcache.Store and accumulates the time and bytes
// of every Get and Put that crosses it: the storage layer's boundary.
type timedStore struct {
	inner                    resultcache.Store
	getNs, putNs, gets, puts atomic.Int64
	readBytes, writeBytes    atomic.Int64
}

func (s *timedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	blob, err := s.inner.Get(key)
	s.getNs.Add(int64(time.Since(start)))
	s.gets.Add(1)
	s.readBytes.Add(int64(len(blob)))
	return blob, err
}

func (s *timedStore) Put(key string, blob []byte) error {
	start := time.Now()
	err := s.inner.Put(key, blob)
	s.putNs.Add(int64(time.Since(start)))
	s.puts.Add(1)
	s.writeBytes.Add(int64(len(blob)))
	return err
}

func (s *timedStore) Delete(key string) error { return s.inner.Delete(key) }
func (s *timedStore) Location() string        { return s.inner.Location() }

// report sets the resultcache.store_* metrics from the accumulated
// traffic.
func (s *timedStore) report(rep *report) {
	rep.values["resultcache.store_get_ms"] = ratio(float64(s.getNs.Load())/1e6, float64(s.gets.Load()))
	rep.values["resultcache.store_put_ms"] = ratio(float64(s.putNs.Load())/1e6, float64(s.puts.Load()))
	rep.values["resultcache.store_read_mb"] = float64(s.readBytes.Load()) / (1 << 20)
	rep.values["resultcache.store_write_mb"] = float64(s.writeBytes.Load()) / (1 << 20)
}

// probeItem is one input of the layer probe: a benchmark trace request and
// the core to run it on.
type probeItem struct {
	bench string
	n     int
	core  config.CoreConfig
}

// probeLayers times the trace, key, cache and pipeline layers directly on
// the inputs of a workload that cannot time them on its own traffic:
// workload.Generate and Trace.Fingerprint on fresh traces, RunKey with the
// fingerprint memoized, sim.Run per simulated cycle, and Cache.Put then
// Cache.Get over store, the backend the workload's caches use. With a
// store, the get runs on a freshly opened cache, so it reads the store and
// decodes; a nil store is a memory-only cache, whose get decodes from the
// memory tier.
func probeLayers(rep *report, store resultcache.Store, items []probeItem) error {
	var genNs, fpNs, keyNs, runNs, putNs, getNs time.Duration
	var insts, cycles, keys float64
	writer := resultcache.New(store, resultcache.Options{})
	type stored struct {
		key string
		res sim.Result
	}
	var all []stored
	for _, it := range items {
		prof, err := workload.ProfileFor(it.bench)
		if err != nil {
			return err
		}
		start := time.Now()
		tr, err := workload.Generate(prof, it.n)
		if err != nil {
			return err
		}
		genNs += time.Since(start)
		start = time.Now()
		tr.Fingerprint()
		fpNs += time.Since(start)
		insts += float64(tr.Len())

		const keyReps = 200
		var key string
		start = time.Now()
		for i := 0; i < keyReps; i++ {
			key = experiments.RunKey(tr, it.core, sim.RunOptions{})
		}
		keyNs += time.Since(start)
		keys += keyReps

		start = time.Now()
		res, err := sim.Run(it.core, tr, sim.RunOptions{})
		if err != nil {
			return err
		}
		runNs += time.Since(start)
		cycles += float64(res.Stats.Cycles)

		start = time.Now()
		writer.Put(key, res)
		putNs += time.Since(start)
		all = append(all, stored{key, res})
	}
	reader := writer
	if store != nil {
		reader = resultcache.New(store, resultcache.Options{})
	}
	for _, s := range all {
		var got sim.Result
		start := time.Now()
		ok := reader.Get(s.key, &got)
		getNs += time.Since(start)
		if !ok || got.Stats != s.res.Stats {
			return fmt.Errorf("layer probe: cache round trip of %s lost the result", s.res.Benchmark)
		}
	}
	n := float64(len(items))
	rep.values["workload.generate_ms_per_minst"] = ms(genNs) / (insts / 1e6)
	rep.values["trace.fingerprint_ms_per_minst"] = ms(fpNs) / (insts / 1e6)
	rep.values["resultcache.key_us"] = float64(keyNs) / 1e3 / keys
	rep.values["resultcache.put_ms"] = ms(putNs) / n
	rep.values["resultcache.get_ms"] = ms(getNs) / n
	rep.values["pipeline.host_ns_per_cycle"] = float64(runNs.Nanoseconds()) / cycles
	return nil
}
