package spec

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
)

var (
	memoRun     = Spec{Kind: KindRun, Bench: "gcc", N: testInsts, Cores: []string{"mcf"}}
	memoContest = Spec{Kind: KindContest, Bench: "twolf", N: testInsts, Cores: []string{"twolf", "vpr"}, LatencyNs: 5}
)

func mustExecute(t testing.TB, sp Spec, env *Env) *Outcome {
	t.Helper()
	out, err := Execute(context.Background(), sp, env, Hooks{})
	if err != nil {
		t.Fatalf("execute %+v: %v", sp, err)
	}
	return out
}

func wantStats(t *testing.T, c *resultcache.Cache, hits, misses, stores int64) {
	t.Helper()
	if s := c.Stats(); s.Hits != hits || s.Misses != misses || s.Stores != stores {
		t.Errorf("cache stats %+v, want %d hits, %d misses, %d stores", s, hits, misses, stores)
	}
}

func freshTrace(t *testing.T, sp Spec) *trace.Trace {
	t.Helper()
	tr, err := generateTrace(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceMemoRepeat: a repeated run or contest spec on one Env is served
// from the cache through the remembered trace identity, with exactly one
// miss, and returns what a fresh Env computes.
func TestTraceMemoRepeat(t *testing.T) {
	for _, sp := range []Spec{memoRun, memoContest} {
		t.Run(sp.Kind, func(t *testing.T) {
			want := mustExecute(t, sp, NewEnv(nil))
			env := NewEnv(resultcache.New(nil, resultcache.Options{}))
			for i, hits := range []int64{0, 1} {
				got := mustExecute(t, sp, env)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("execution %d differs from a fresh Env\n%+v\n%+v", i, got, want)
				}
				wantStats(t, env.Cache, hits, 1, 1)
			}

			// The lookup trusts the memo, not a trace: a forged identity
			// for the shape misses.
			shape := traceShape{sp.Bench, sp.N}
			env.mu.Lock()
			id := env.ids[shape]
			id.fp++
			env.ids[shape] = id
			env.mu.Unlock()
			mustExecute(t, sp, env)
			wantStats(t, env.Cache, 1, 2, 2)
		})
	}
}

// TestTraceMemoKeys: the keys derived from remembered identities are
// exactly RunKey/ContestKey of a freshly generated trace, including the
// contest's latency_ns override.
func TestTraceMemoKeys(t *testing.T) {
	env := NewEnv(resultcache.New(nil, resultcache.Options{}))
	mustExecute(t, memoRun, env)
	mustExecute(t, memoContest, env)

	id, ok := env.traceID(memoRun)
	if !ok {
		t.Fatal("run trace identity not remembered")
	}
	tr := freshTrace(t, memoRun)
	mcf := config.MustPaletteCore("mcf")
	want := experiments.RunKey(tr, mcf, sim.RunOptions{})
	if got := experiments.RunKey(id, mcf, sim.RunOptions{}); got != want {
		t.Errorf("memo RunKey %s, want %s", got, want)
	}
	var r sim.Result
	if !env.Cache.Get(want, &r) {
		t.Error("run result not stored under RunKey of a fresh trace")
	}

	id, ok = env.traceID(memoContest)
	if !ok {
		t.Fatal("contest trace identity not remembered")
	}
	tr = freshTrace(t, memoContest)
	cfgs := []config.CoreConfig{config.MustPaletteCore("twolf"), config.MustPaletteCore("vpr")}
	opts := contest.Options{LatencyNs: memoContest.LatencyNs}
	want = experiments.ContestKey(tr, cfgs, opts)
	if got := experiments.ContestKey(id, cfgs, opts); got != want {
		t.Errorf("memo ContestKey %s, want %s", got, want)
	}
	var c contest.Result
	if !env.Cache.Get(want, &c) {
		t.Error("contest result not stored under ContestKey of a fresh trace")
	}
}

// TestTraceMemoBypass: verify and record specs neither read nor write the
// cache, whether or not their shape is remembered, and return the plain
// spec's result: the progress tracker, recorder and checker they compose
// never perturb the run.
func TestTraceMemoBypass(t *testing.T) {
	for _, base := range []Spec{memoRun, memoContest} {
		for _, watch := range []string{"verify", "record", "verify+record"} {
			t.Run(base.Kind+"/"+watch, func(t *testing.T) {
				sp := base
				sp.Verify = strings.Contains(watch, "verify")
				sp.Record = strings.Contains(watch, "record")
				env := NewEnv(resultcache.New(nil, resultcache.Options{}))
				progress := Hooks{Progress: func(done, total int64) {}}

				// Cold: the watched spec runs, remembers its shape, stores nothing.
				cold, err := Execute(context.Background(), sp, env, progress)
				if err != nil {
					t.Fatal(err)
				}
				wantStats(t, env.Cache, 0, 0, 0)
				// So the plain spec misses once and stores.
				plain := mustExecute(t, base, env)
				wantStats(t, env.Cache, 0, 1, 1)
				// Warm: the watched spec still runs without a lookup.
				out := mustExecute(t, sp, env)
				wantStats(t, env.Cache, 0, 1, 1)
				if sp.Record && out.Metrics == nil {
					t.Error("recorded spec returned no metrics")
				}
				for _, o := range []*Outcome{cold, out} {
					if !reflect.DeepEqual(o.Run, plain.Run) || !reflect.DeepEqual(o.Contest, plain.Contest) {
						t.Errorf("watched result differs from the plain spec's:\nwatched: %+v %+v\nplain:   %+v %+v",
							o.Run, o.Contest, plain.Run, plain.Contest)
					}
				}
			})
		}
	}
}

// TestTraceMemoCap: the memo is cleared on reaching maxTraceIDs, never
// holding more.
func TestTraceMemoCap(t *testing.T) {
	env := NewEnv(nil)
	tr := freshTrace(t, Spec{Bench: "gcc", N: 100})
	for n := 1; n <= 2*maxTraceIDs+1; n++ {
		env.rememberTrace(Spec{Bench: "gcc", N: n}, tr)
		if len(env.ids) > maxTraceIDs {
			t.Fatalf("memo holds %d identities, cap %d", len(env.ids), maxTraceIDs)
		}
	}
	if _, ok := env.traceID(Spec{Bench: "gcc", N: 2*maxTraceIDs + 1}); !ok {
		t.Error("latest identity lost")
	}
	if _, ok := env.traceID(Spec{Bench: "gcc", N: 1}); ok {
		t.Error("memo never cleared")
	}
}

// TestTraceMemoConcurrent: many goroutines executing one new shape on one
// Env all get the fresh result (run it under -race).
func TestTraceMemoConcurrent(t *testing.T) {
	for _, sp := range []Spec{memoRun, memoContest} {
		want := mustExecute(t, sp, NewEnv(nil))
		env := NewEnv(resultcache.New(nil, resultcache.Options{}))
		const workers = 8
		outs := make([]*Outcome, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i], errs[i] = Execute(context.Background(), sp, env, Hooks{})
			}(i)
		}
		wg.Wait()
		for i := range outs {
			if errs[i] != nil {
				t.Fatalf("%s worker %d: %v", sp.Kind, i, errs[i])
			}
			if !reflect.DeepEqual(outs[i], want) {
				t.Errorf("%s worker %d differs from a fresh Env", sp.Kind, i)
			}
		}
		if s := env.Cache.Stats(); s.Hits+s.Misses != workers || s.Misses < 1 {
			t.Errorf("%s: cache stats %+v after %d executions", sp.Kind, s, workers)
		}
	}
}

// BenchmarkExecuteHit times a repeat run spec served from the cache.
func BenchmarkExecuteHit(b *testing.B) {
	sp := Spec{Kind: KindRun, Bench: "gcc"}
	env := NewEnv(resultcache.New(nil, resultcache.Options{}))
	mustExecute(b, sp, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecute(b, sp, env)
	}
}
