package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Every subcommand registers the shared flags on its own FlagSet, so any
// number of independent registrations must coexist without a "flag
// redefined" panic.
func TestCacheFlagsIndependentFlagSets(t *testing.T) {
	for i := 0; i < 3; i++ {
		fs := flag.NewFlagSet("driver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if registerShared(fs) == nil {
			t.Fatalf("call %d: nil flag group", i)
		}
		if fs.Lookup("cache.dir") == nil || fs.Lookup("cache.off") == nil {
			t.Fatalf("call %d: cache flags not registered", i)
		}
	}
}

func TestCacheFlagsOpener(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")

	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	f := registerShared(fs)
	if err := fs.Parse([]string{"-cache.dir", dir}); err != nil {
		t.Fatal(err)
	}
	c := f.openCache()
	if c == nil {
		t.Fatal("openCache returned nil with a writable directory")
	}
	if c.Dir() != dir {
		t.Errorf("cache dir %q, want %q", c.Dir(), dir)
	}
	printCacheStats(c) // zero traffic: must not print or panic
	printCacheStats(nil)

	fs = flag.NewFlagSet("driver", flag.ContinueOnError)
	f = registerShared(fs)
	if err := fs.Parse([]string{"-cache.off"}); err != nil {
		t.Fatal(err)
	}
	if f.openCache() != nil {
		t.Error("openCache returned a cache despite -cache.off")
	}
}

// -cache.mem must reach the opened cache's in-memory LRU tier: with the
// tier capped at one entry, looking two stored entries back up cannot be
// served from memory alone.
func TestCacheFlagsMemEntries(t *testing.T) {
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	f := registerShared(fs)
	if err := fs.Parse([]string{"-cache.dir", t.TempDir(), "-cache.mem", "1"}); err != nil {
		t.Fatal(err)
	}
	c := f.openCache()
	if c == nil {
		t.Fatal("openCache returned nil")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	var v int
	if !c.Get("a", &v) || !c.Get("b", &v) {
		t.Fatal("stored entries not found")
	}
	st := c.Stats()
	if st.Hits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MemHits >= 2 {
		t.Errorf("both hits served from a 1-entry memory tier: %+v", st)
	}
}

func TestObsFlags(t *testing.T) {
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	f := registerShared(fs)
	if f.wanted() {
		t.Error("unset flags report wanted")
	}
	// fs.Parse rather than f.parse: the test must not start the listener.
	err := fs.Parse([]string{"-timeline", "t.json", "-metrics", "m.json", "-pprof", "localhost:0"})
	if err != nil {
		t.Fatal(err)
	}
	if f.timeline != "t.json" || f.metrics != "m.json" || f.pprof != "localhost:0" {
		t.Errorf("parsed %+v", f)
	}
	if !f.wanted() {
		t.Error("set -timeline/-metrics report not wanted")
	}
}

func TestFinishWritesOutputs(t *testing.T) {
	var f sharedFlags
	f.finish(nil,
		func(io.Writer) error { t.Fatal("timeline writer called with -timeline unset"); return nil },
		func() any { t.Fatal("metrics called with -metrics unset"); return nil })

	dir := t.TempDir()
	f.timeline = filepath.Join(dir, "t.json")
	f.metrics = filepath.Join(dir, "m.json")
	f.finish(nil, func(w io.Writer) error {
		_, err := io.WriteString(w, "[]")
		return err
	}, func() any { return map[string]int{"x": 1} })
	if got, _ := os.ReadFile(f.timeline); string(got) != "[]" {
		t.Errorf("timeline %q", got)
	}
	if got, _ := os.ReadFile(f.metrics); string(got) != "{\n  \"x\": 1\n}\n" {
		t.Errorf("metrics %q", got)
	}
	assertNoTempResidue(t, dir)
}

func TestPublishIdempotent(t *testing.T) {
	publish("archcontest.test.var", func() any { return 1 })
	publish("archcontest.test.var", func() any { return 2 }) // must not panic
}

func TestWriteJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := writeJSON(path, "first"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "\"first\"\n" {
		t.Fatalf("content %q", got)
	}
	if err := writeJSON(path, "second"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "\"second\"\n" {
		t.Fatalf("content after overwrite %q", got)
	}
	if err := writeJSON(path, func() {}); err == nil {
		t.Fatal("unencodable value written")
	}
	if got, _ := os.ReadFile(path); string(got) != "\"second\"\n" {
		t.Fatalf("failed encode touched the file: %q", got)
	}
	assertNoTempResidue(t, dir)
}

// TestWriteAtomicAbort: a writer that fails mid-stream leaves the previous
// content untouched and no temp file behind — the property that makes
// Ctrl-C during an artifact write safe.
func TestWriteAtomicAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := writeJSON(path, "intact"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("cancelled mid-stream")
	err := writeAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "\"intact\"\n" {
		t.Fatalf("aborted write corrupted the file: %q", got)
	}
	assertNoTempResidue(t, dir)
}

func TestWriteAtomicNewFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.json")
	if err := writeAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "{}\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", info.Mode().Perm())
	}
	assertNoTempResidue(t, dir)
}

func assertNoTempResidue(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); len(name) > 0 && name[0] == '.' {
			t.Errorf("temp residue left behind: %s", name)
		}
	}
}
