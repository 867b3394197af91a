package main

import (
	"bytes"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"archcontest/internal/spec"
)

// The front-door tests run the command itself: TestMain turns the test
// binary into archcontest when re-executed with runAsMain set.
const runAsMain = "ARCHCONTEST_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its stdout, stderr
// and exit status.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("archcontest %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestSubcommandRequired(t *testing.T) {
	for _, args := range [][]string{nil, {"nosuch"}, {"-h"}} {
		_, stderr, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("archcontest %v: exit %d, want 2", args, code)
		}
		for _, name := range []string{"contest", "figures", "explore", "bench", "serve", "cachesrv", "tracegen"} {
			if !strings.Contains(stderr, "\n  "+name+" ") {
				t.Errorf("archcontest %v: usage does not list %s:\n%s", args, name, stderr)
			}
		}
	}
}

// Each subcommand takes exactly the flags of the stand-alone command it
// replaced, so every existing invocation keeps working with the
// subcommand name inserted.
func TestSubcommandFlags(t *testing.T) {
	cache := "cache.dir cache.mem cache.off cache.remote "
	obs := "metrics pprof timeline "
	want := map[string]string{
		"contest":  cache + obs + "bench cores latency n sample verify",
		"figures":  cache + obs + "experiment latency list n pairs par",
		"explore":  cache + obs + "K bench chains exchange fast.filter fast.margin mode n par seed steps v",
		"bench":    "fastmodel fastmodel.n fastmodel.o leaderboard leaderboard.n leaderboard.o",
		"serve":    cache + obs + "addr cache.serve coord drain nodes par probe queue workers",
		"cachesrv": "addr dir",
		"tracegen": "bench dump load n offset save",
	}
	for name, flags := range want {
		_, stderr, code := runMain(t, name, "-h")
		if code != 0 {
			t.Errorf("%s -h: exit %d, want 0", name, code)
		}
		var got []string
		for _, line := range strings.Split(stderr, "\n") {
			if f, ok := strings.CutPrefix(line, "  -"); ok {
				got = append(got, strings.Fields(f)[0])
			}
		}
		wantFlags := strings.Fields(flags)
		sort.Strings(wantFlags)
		sort.Strings(got)
		if !reflect.DeepEqual(got, wantFlags) {
			t.Errorf("%s flags:\n got %v\nwant %v", name, got, wantFlags)
		}
	}
}

func TestBenchNeedsReport(t *testing.T) {
	_, stderr, code := runMain(t, "bench")
	if code != 2 || !strings.Contains(stderr, "choose -fastmodel or -leaderboard") {
		t.Errorf("bench without a report: exit %d, stderr:\n%s", code, stderr)
	}
}

// tracegen rejects out-of-range and contradictory flags before it
// generates anything.
func TestTracegenRejectsBadFlags(t *testing.T) {
	save := filepath.Join(t.TempDir(), "mcf.trace")
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-n", "1000", "-bench", "mcf", "-dump", "3", "-offset", "-2"}, "must be non-negative"},
		{[]string{"-n", "1000", "-bench", "mcf", "-dump", "-1"}, "must be non-negative"},
		{[]string{"-n", "1000", "-save", save}, "-save needs -bench"},
		// An unknown benchmark makes a missing bound check fail (exit 1)
		// at the profile lookup instead of allocating a MaxN+1 trace.
		{[]string{"-n", fmt.Sprint(spec.MaxN + 1), "-bench", "nosuch"}, "exceeds the maximum trace length"},
	} {
		stdout, stderr, code := runMain(t, append([]string{"tracegen"}, tc.args...)...)
		if code != 2 || !strings.Contains(stderr, tc.msg) || stdout != "" {
			t.Errorf("tracegen %v: exit %d, stdout %q, stderr:\n%s", tc.args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(save); !os.IsNotExist(err) {
		t.Errorf("rejected -save left a file behind: %v", err)
	}
}

func TestTracegenSaveLoad(t *testing.T) {
	dir := t.TempDir()
	save := filepath.Join(dir, "mcf.trace")
	gen, stderr, code := runMain(t, "tracegen", "-n", "2000", "-bench", "mcf", "-save", save)
	if code != 0 {
		t.Fatalf("save: exit %d:\n%s", code, stderr)
	}
	loaded, stderr, code := runMain(t, "tracegen", "-load", save)
	if code != 0 {
		t.Fatalf("load: exit %d:\n%s", code, stderr)
	}
	if want := gen[:strings.Index(gen, "\n")+1]; loaded != want {
		t.Errorf("loaded summary %q, generated %q", loaded, want)
	}
	assertNoTempResidue(t, dir)
}

// The campaign expvar is read from the pprof listener's goroutine while a
// figures campaign runs; under -race this fails if the campaign's stats
// getter is shared without synchronisation.
func TestCampaignExpvarConcurrentRead(t *testing.T) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			if v := expvar.Get("archcontest.campaign"); v != nil {
				_ = v.String()
			}
		}
	}()
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	runFigures(fs, []string{"-experiment", "fig6", "-n", "2000", "-cache.off"})
	close(done)
	wg.Wait()
}
