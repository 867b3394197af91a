package experiments

import (
	"context"
	"reflect"
	"testing"

	"archcontest/internal/contest"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
)

// A verified Lab must produce byte-identical results to a plain one — the
// checkers observe, never perturb.
func TestVerifiedLabMatchesPlain(t *testing.T) {
	plain := NewLab(Config{N: 12_000})
	verified := NewLab(Config{N: 12_000, Verify: true, VerifyScanEvery: 16})

	cfg := plain.Cores()[0]
	pr, err := plain.RunOn(context.Background(), "gcc", cfg, sim.RunOptions{LogRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := verified.RunOn(context.Background(), "gcc", cfg, sim.RunOptions{LogRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, vr) {
		t.Errorf("verified single run diverges:\nplain:    %+v\nverified: %+v", pr, vr)
	}

	pc, err := plain.Contest(context.Background(), "gcc", []string{"gcc", "mcf"}, contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := verified.Contest(context.Background(), "gcc", []string{"gcc", "mcf"}, contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pc, vc) {
		t.Errorf("verified contest diverges:\nplain:    %+v\nverified: %+v", pc, vc)
	}
}

// A verified Lab must bypass its result cache in both directions: no leaf
// is served from cache (a hit would skip the checks) and no verified leaf
// is persisted into it.
func TestVerifiedLabBypassesCache(t *testing.T) {
	cache, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache with a plain lab.
	warm := NewLab(Config{N: 12_000, Cache: cache})
	cfg := warm.Cores()[0]
	if _, err := warm.RunOn(context.Background(), "gcc", cfg, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	warmPuts := cache.Stats().Stores
	if warmPuts == 0 {
		t.Fatal("plain lab did not populate the cache")
	}

	v := NewLab(Config{N: 12_000, Cache: cache, Verify: true, VerifyScanEvery: 16})
	if _, err := v.RunOn(context.Background(), "gcc", cfg, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st := v.CampaignStats()
	if st.Simulations != 1 {
		t.Errorf("verified lab executed %d simulations, want 1 (cache must not serve it)", st.Simulations)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("verified lab touched the cache: %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
	if got := cache.Stats().Stores; got != warmPuts {
		t.Errorf("verified lab persisted into the cache: %d puts, want %d", got, warmPuts)
	}
}

// The acceptance sweep: every registered experiment runs clean under full
// verification (CI-scaled; the figures themselves are validated at full
// scale by archcontest figures).
func TestVerifiedFiguresSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("verified experiment sweep in short mode")
	}
	l := NewLab(Config{N: 12_000, CandidatePairs: 2, Verify: true, VerifyScanEvery: 16})
	for _, id := range RegistryOrder {
		tab, err := Registry[id](context.Background(), l)
		if err != nil {
			t.Fatalf("%s under verification: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}
