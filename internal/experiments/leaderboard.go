package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/sim"
)

// LeaderboardCombo is one point in the championship cross-product: a
// predictor kind from the branch registry, a replacement policy from the
// cache registry ("lru" is the built-in default), and a prefetcher (the
// empty name is "no prefetching", today's default).
type LeaderboardCombo struct {
	Predictor   string `json:"predictor"`
	Replacement string `json:"replacement"`
	Prefetcher  string `json:"prefetcher,omitempty"`
}

// String renders the combo as predictor/replacement/prefetcher.
func (c LeaderboardCombo) String() string {
	pf := c.Prefetcher
	if pf == "" {
		pf = "none"
	}
	return c.Predictor + "/" + c.Replacement + "/" + pf
}

// apply equips the base core with the combo's components: the predictor
// kind's representative configuration, the replacement policy on both cache
// levels, and the prefetcher hook on the hierarchy.
func (c LeaderboardCombo) apply(base config.CoreConfig) config.CoreConfig {
	cfg := base
	cfg.Name = base.Name + "+" + c.String()
	cfg.Predictor = branch.RepresentativeConfig(c.Predictor)
	cfg.L1D.Replacement = c.Replacement
	cfg.L2D.Replacement = c.Replacement
	cfg.Prefetch = cache.PrefetchConfig{Name: c.Prefetcher}
	return cfg
}

// LeaderboardCombos enumerates the full registered cross-product, in
// deterministic order: every predictor kind (built-in and registered) x
// every replacement policy x every prefetcher plus the no-prefetch default.
func LeaderboardCombos() []LeaderboardCombo {
	preds := branch.Registered()
	repls := cache.ReplacerNames()
	prefs := append([]string{""}, cache.PrefetcherNames()...)
	combos := make([]LeaderboardCombo, 0, len(preds)*len(repls)*len(prefs))
	for _, p := range preds {
		for _, r := range repls {
			for _, f := range prefs {
				combos = append(combos, LeaderboardCombo{Predictor: p, Replacement: r, Prefetcher: f})
			}
		}
	}
	return combos
}

// LeaderboardStanding is one combo's row in the overall ranking.
type LeaderboardStanding struct {
	Combo LeaderboardCombo `json:"combo"`
	Name  string           `json:"name"`
	// Geomean is the geometric mean over the workloads of this combo's IPT
	// normalized to the per-workload best — 1.0 means it won everywhere.
	Geomean float64 `json:"geomean_normalized_ipt"`
	// Wins counts workloads where this combo ranked first.
	Wins int `json:"wins"`
	// IPT and Rank are the per-workload raw IPT and 1-based rank.
	IPT  map[string]float64 `json:"ipt"`
	Rank map[string]int     `json:"rank"`
}

// LeaderboardHeadToHead is one contested leg: the workload's top two combos
// racing each other under the contesting protocol.
type LeaderboardHeadToHead struct {
	Bench       string  `json:"bench"`
	A           string  `json:"a"`
	B           string  `json:"b"`
	ContestIPT  float64 `json:"contest_ipt"`
	BestSingle  float64 `json:"best_single_ipt"`
	Speedup     float64 `json:"speedup"`
	LeadChanges int64   `json:"lead_changes"`
}

// LeaderboardReport is the championship result: overall standings (best
// geomean first), the per-workload rankings they fold, and a contested
// head-to-head leg per workload.
type LeaderboardReport struct {
	Benches    []string                `json:"benches"`
	Standings  []LeaderboardStanding   `json:"standings"`
	HeadToHead []LeaderboardHeadToHead `json:"head_to_head"`
}

// LeaderboardRun round-robins every registered component combination over
// the given workloads on each workload's own customized core, ranks the
// combos per workload and overall (geomean of best-normalized IPT), and
// contests each workload's top two combos head-to-head. All leaves go
// through the Lab, so they parallelize, deduplicate, and cache like any
// campaign work.
func LeaderboardRun(ctx context.Context, l *Lab, benches []string) (*LeaderboardReport, error) {
	combos := LeaderboardCombos()
	if len(benches) == 0 || len(combos) == 0 {
		return nil, fmt.Errorf("experiments: leaderboard needs workloads and combos, got %d x %d", len(benches), len(combos))
	}
	type cell struct{ bench, combo int }
	cells := make([]cell, 0, len(benches)*len(combos))
	for b := range benches {
		for c := range combos {
			cells = append(cells, cell{b, c})
		}
	}
	ipt := make([][]float64, len(benches))
	for b := range ipt {
		ipt[b] = make([]float64, len(combos))
	}
	err := l.parallel(ctx, len(cells), func(i int) error {
		bench := benches[cells[i].bench]
		cfg := combos[cells[i].combo].apply(config.MustPaletteCore(bench))
		r, err := l.RunOn(ctx, bench, cfg, sim.RunOptions{})
		if err != nil {
			return fmt.Errorf("leaderboard %s on %s: %w", combos[cells[i].combo], bench, err)
		}
		ipt[cells[i].bench][cells[i].combo] = r.IPT()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Per-workload rankings: 1-based rank by descending IPT, ties broken by
	// combo order so the result is deterministic.
	rank := make([][]int, len(benches))
	top := make([][2]int, len(benches)) // the two best combo indices per workload
	for b := range benches {
		order := make([]int, len(combos))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			return ipt[b][order[i]] > ipt[b][order[j]]
		})
		rank[b] = make([]int, len(combos))
		for pos, c := range order {
			rank[b][c] = pos + 1
		}
		top[b] = [2]int{order[0], order[1]}
	}

	// Overall standings: geomean of per-workload best-normalized IPT.
	standings := make([]LeaderboardStanding, len(combos))
	for c, combo := range combos {
		s := LeaderboardStanding{
			Combo: combo,
			Name:  combo.String(),
			IPT:   make(map[string]float64, len(benches)),
			Rank:  make(map[string]int, len(benches)),
		}
		logSum := 0.0
		for b, bench := range benches {
			best := ipt[b][top[b][0]]
			logSum += math.Log(ipt[b][c] / best)
			s.IPT[bench] = ipt[b][c]
			s.Rank[bench] = rank[b][c]
			if rank[b][c] == 1 {
				s.Wins++
			}
		}
		s.Geomean = math.Exp(logSum / float64(len(benches)))
		standings[c] = s
	}
	sort.SliceStable(standings, func(i, j int) bool {
		return standings[i].Geomean > standings[j].Geomean
	})

	// Head-to-head: the workload's two best combos contest each other.
	legs := make([]LeaderboardHeadToHead, len(benches))
	err = l.parallel(ctx, len(benches), func(b int) error {
		a, bb := top[b][0], top[b][1]
		base := config.MustPaletteCore(benches[b])
		r, err := l.ContestConfigs(ctx, benches[b],
			[]config.CoreConfig{combos[a].apply(base), combos[bb].apply(base)}, contest.Options{})
		if err != nil {
			return fmt.Errorf("leaderboard head-to-head on %s: %w", benches[b], err)
		}
		best := ipt[b][a]
		legs[b] = LeaderboardHeadToHead{
			Bench:       benches[b],
			A:           combos[a].String(),
			B:           combos[bb].String(),
			ContestIPT:  r.IPT(),
			BestSingle:  best,
			Speedup:     r.IPT()/best - 1,
			LeadChanges: r.LeadChanges,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &LeaderboardReport{Benches: benches, Standings: standings, HeadToHead: legs}, nil
}

// leaderboardBenches is the experiment's workload subset: branchy, memory-
// bound, and mixed behaviour, so every component axis has a workload that
// exercises it. The full-suite championship is `archcontest bench
// -leaderboard`, which writes BENCH_leaderboard.json.
var leaderboardBenches = []string{"gcc", "mcf", "twolf", "crafty"}

// Leaderboard runs the championship: every registered predictor x
// replacement policy x prefetcher combination ranked per workload and
// overall, with the per-workload podium contested head-to-head.
func Leaderboard(ctx context.Context, l *Lab) (*Table, error) {
	rep, err := LeaderboardRun(ctx, l, leaderboardBenches)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Extension: component leaderboard",
		Title: fmt.Sprintf("registered predictor x replacement x prefetcher combinations ranked over %v", rep.Benches),
	}
	t.Header = []string{"rank", "combo", "geomean (norm)", "wins"}
	for _, bench := range rep.Benches {
		t.Header = append(t.Header, bench+" IPT")
	}
	for i, s := range rep.Standings {
		row := []string{fmt.Sprintf("%d", i+1), s.Name, fmt.Sprintf("%.3f", s.Geomean), fmt.Sprintf("%d", s.Wins)}
		for _, bench := range rep.Benches {
			row = append(row, f2(s.IPT[bench]))
		}
		t.AddRow(row...)
	}
	for _, h := range rep.HeadToHead {
		t.AddNote("%s head-to-head: %s vs %s contested at %s IPT (%s vs best single, %d lead changes)",
			h.Bench, h.A, h.B, f2(h.ContestIPT), pct(h.Speedup), h.LeadChanges)
	}
	t.AddNote("%d combos = %d predictors x %d replacement policies x %d prefetchers (incl. none)",
		len(rep.Standings), len(branch.Registered()), len(cache.ReplacerNames()), len(cache.PrefetcherNames())+1)
	return t, nil
}
