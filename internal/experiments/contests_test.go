package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/resultcache"
)

// contestList builds a small candidate list with a duplicate entry.
func contestList(l *Lab) [][]config.CoreConfig {
	cores := l.Cores()
	return [][]config.CoreConfig{
		{cores[0], cores[1]},
		{cores[2], cores[3]},
		{cores[0], cores[1]}, // duplicate of the first
		{cores[1], cores[4]},
		{cores[5], cores[0]},
	}
}

// TestContestsConfigsBatchEquivalence: evaluating a list of contests in
// one ContestsConfigs call must be bit-identical to per-leaf ContestConfigs
// calls at every parallelism, and duplicate configurations must be
// computed once.
func TestContestsConfigsBatchEquivalence(t *testing.T) {
	ctx := context.Background()
	base := NewLab(Config{N: 8_000, Parallelism: 1})
	list := contestList(base)
	want := make([]contest.Result, len(list))
	for i, cfgs := range list {
		r, err := base.ContestConfigs(ctx, "gcc", cfgs, contest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, par := range []int{1, 2} {
		l := NewLab(Config{N: 8_000, Parallelism: par})
		got, err := l.ContestsConfigs(ctx, "gcc", contestList(l), contest.Options{})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism=%d: results diverged from per-leaf execution", par)
		}
		if c := l.CampaignStats().Contests; c != 4 {
			t.Errorf("parallelism=%d: executed %d contests, want 4 (duplicate shared)", par, c)
		}
	}
}

// TestContestsConfigsConcurrentDedupe races ContestsConfigs against
// per-leaf ContestConfigs callers over the same list: every key, whether
// requested by the list or by a leaf caller, in flight or completed, must
// execute exactly once.
func TestContestsConfigsConcurrentDedupe(t *testing.T) {
	ctx := context.Background()
	l := NewLab(Config{N: 8_000, Parallelism: 2})
	list := contestList(l)
	var wg sync.WaitGroup
	var listed []contest.Result
	var listErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		listed, listErr = l.ContestsConfigs(ctx, "gcc", list, contest.Options{})
	}()
	leaves := make([]contest.Result, len(list))
	errs := make([]error, len(list))
	for i := range list {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leaves[i], errs[i] = l.ContestConfigs(ctx, "gcc", list[i], contest.Options{})
		}()
	}
	wg.Wait()
	if listErr != nil {
		t.Fatal(listErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(listed, leaves) {
		t.Error("ContestsConfigs diverged from concurrent per-leaf results")
	}
	if c := l.CampaignStats().Contests; c != 4 {
		t.Errorf("executed %d contests, want 4 (one per unique key)", c)
	}
}

// ContestsConfigs must serve the result cache and the singleflight memo:
// a warm second call executes nothing, and a later per-leaf Contest of the
// same key gets the memoized value.
func TestContestsConfigsBatchCacheAndMemo(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cache, err := resultcache.Open(dir, resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLab(Config{N: 8_000, Cache: cache})
	list := contestList(l)
	first, err := l.ContestsConfigs(ctx, "gcc", list, contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := l.CampaignStats().Contests; c != 4 {
		t.Fatalf("cold call executed %d contests, want 4", c)
	}

	// A per-leaf Contest of a listed key must hit the singleflight memo.
	r, err := l.ContestConfigs(ctx, "gcc", list[0], contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, first[0]) {
		t.Error("per-leaf Contest diverged from the listed result")
	}
	if c := l.CampaignStats().Contests; c != 4 {
		t.Errorf("memoized per-leaf Contest re-executed (contests=%d)", c)
	}

	// A fresh Lab over the same cache dir must serve everything warm.
	warm := NewLab(Config{N: 8_000, Cache: cache})
	second, err := warm.ContestsConfigs(ctx, "gcc", contestList(warm), contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Error("warm results diverged")
	}
	st := warm.CampaignStats()
	if st.Contests != 0 || st.CacheHits != 4 {
		t.Errorf("warm call: contests=%d cache hits=%d, want 0 executed / 4 hits", st.Contests, st.CacheHits)
	}
}

// BestPair evaluates its candidate pairs as one ContestsConfigs list; the
// winner must not depend on how the Lab's workers split that list.
func TestBestPairBatchedMatchesPerLeaf(t *testing.T) {
	ctx := context.Background()
	serial := NewLab(Config{N: 10_000, CandidatePairs: 3, Parallelism: 1})
	want, err := serial.BestPair(ctx, "twolf")
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewLab(Config{N: 10_000, CandidatePairs: 3, Parallelism: 2})
	got, err := parallel.BestPair(ctx, "twolf")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BestPair depends on parallelism:\n got %+v\nwant %+v", got, want)
	}
}
