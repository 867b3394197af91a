package experiments

import (
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/sim"
	"archcontest/internal/workload"
)

// TestKeysPinned pins the exact bytes of RunKey and ContestKey for one
// fixed trace. Every persisted result cache and spec.RouteKey's node
// affinity depend on them, so a change here silently invalidates caches
// and reroutes a fleet: update the values only together with
// sim.EngineVersion or a deliberate key-format change.
func TestKeysPinned(t *testing.T) {
	p, err := workload.ProfileFor("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(p, 2000)
	if err != nil {
		t.Fatal(err)
	}
	gcc, mcf := config.MustPaletteCore("gcc"), config.MustPaletteCore("mcf")
	if got, want := RunKey(tr, gcc, sim.RunOptions{}), "f2b5b6f492543c93abcd646e35d801f06224a3836f4380c771cd9599912e6e2e"; got != want {
		t.Errorf("RunKey = %s, want %s", got, want)
	}
	if got, want := ContestKey(tr, []config.CoreConfig{gcc, mcf}, contest.Options{}), "9b41548d995a4d7603041e796ec3fa9f06fdb57c37c8d306374a07ebdfabc7be"; got != want {
		t.Errorf("ContestKey = %s, want %s", got, want)
	}
}
