// Command archcontest is the reproduction's one front door: every way to
// run the simulators is a subcommand (see commands) with its own flags,
//
//	archcontest <subcommand> [flags]     # e.g. archcontest figures -experiment fig6
//	archcontest <subcommand> -h          # the subcommand's flags
//
// contest, figures, explore and serve share one flag group (sharedFlags):
// the result cache (-cache.dir, -cache.off, -cache.mem, -cache.remote),
// the observability outputs (-timeline, -metrics) and the -pprof listener.
// Ctrl-C cancels a run cooperatively; a second Ctrl-C kills it.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"archcontest/internal/resultcache"
)

// command is one subcommand: run registers its flags on fs, parses args
// and executes. fs is flag.ExitOnError, so its Parse exits on a bad flag
// and never returns an error.
type command struct {
	name, summary string
	run           func(fs *flag.FlagSet, args []string)
}

var commands = []command{
	{"contest", "run one benchmark contested on N palette cores", runContest},
	{"figures", "regenerate the paper's tables and figures", runFigures},
	{"explore", "customize a core for a benchmark by design-space exploration", runExplore},
	{"bench", "write BENCH_fastmodel.json or BENCH_leaderboard.json", runBench},
	{"serve", "contest-as-a-service daemon (node, or cluster coordinator with -coord)", runServe},
	{"cachesrv", "standalone result-cache blob store behind -cache.remote", runCachesrv},
	{"tracegen", "inspect, save and load the synthetic workloads", runTracegen},
}

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				log.SetPrefix(c.name + ": ")
				c.run(flag.NewFlagSet(c.name, flag.ExitOnError), os.Args[2:])
				return
			}
		}
		fmt.Fprintf(os.Stderr, "archcontest: unknown subcommand %q\n", os.Args[1])
	}
	fmt.Fprintln(os.Stderr, "usage: archcontest <subcommand> [flags]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "\nRun 'archcontest <subcommand> -h' for its flags.")
	os.Exit(2)
}

// usageError reports flag values fs cannot run, prints fs's usage and
// exits 2, the flag package's status for a malformed command line.
func usageError(fs *flag.FlagSet, format string, args ...any) {
	log.Printf(format, args...)
	fs.Usage()
	os.Exit(2)
}

// sharedFlags is the flag group of the simulating subcommands.
type sharedFlags struct {
	cacheDir, cacheRemote string
	cacheOff              bool
	cacheMem              int
	// timeline and metrics are the -timeline and -metrics output paths:
	// a Chrome trace_event JSON of the run (contest) or of the campaign's
	// artifact schedule (figures, explore), and the run's observability
	// metrics or the campaign's counters as JSON. Empty skips the output.
	timeline, metrics string
	pprof             string // -pprof listen address; empty leaves it off
}

func registerShared(fs *flag.FlagSet) *sharedFlags {
	f := &sharedFlags{}
	fs.StringVar(&f.cacheDir, "cache.dir", resultcache.DefaultDir, "persistent result cache directory")
	fs.BoolVar(&f.cacheOff, "cache.off", false, "disable the persistent result cache")
	fs.IntVar(&f.cacheMem, "cache.mem", 0, "in-memory cache tier size in entries (0 = default); campaign-scale runs touch more design points than the default LRU holds")
	fs.StringVar(&f.cacheRemote, "cache.remote", "", "remote blob store base URL (a cachesrv or a serve node with -cache.serve); overrides -cache.dir")
	fs.StringVar(&f.timeline, "timeline", "", "write a Chrome trace_event timeline to this path")
	fs.StringVar(&f.metrics, "metrics", "", "write observability metrics JSON to this path")
	fs.StringVar(&f.pprof, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	return f
}

// openCache opens the configured result cache. It returns nil (caching
// disabled) when -cache.off is set or the directory cannot be created; a
// nil *resultcache.Cache is a valid always-miss cache, so callers pass it
// through unconditionally.
func (f *sharedFlags) openCache() *resultcache.Cache {
	if f.cacheOff {
		return nil
	}
	if f.cacheRemote != "" {
		return resultcache.New(resultcache.NewHTTPStore(f.cacheRemote, nil), resultcache.Options{MemEntries: f.cacheMem})
	}
	c, err := resultcache.Open(f.cacheDir, resultcache.Options{MemEntries: f.cacheMem})
	if err != nil {
		log.Printf("result cache disabled: %v", err)
		return nil
	}
	return c
}

// wanted reports whether any observability output was requested.
func (f *sharedFlags) wanted() bool {
	return f.timeline != "" || f.metrics != ""
}

// parse parses args into fs, which registerShared populated, and starts
// the -pprof listener when set: the default mux serves /debug/pprof
// (profiles) and /debug/vars (every expvar published with publish).
func (f *sharedFlags) parse(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if f.pprof == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(f.pprof, nil); err != nil {
			log.Printf("pprof listener %s: %v", f.pprof, err)
		}
	}()
	log.Printf("pprof/expvar listening on http://%s/debug/pprof and /debug/vars", f.pprof)
}

// finish writes the requested -timeline and -metrics outputs atomically
// and reports the cache's traffic. metrics is called only when -metrics
// is set; a failed write exits the process.
func (f *sharedFlags) finish(c *resultcache.Cache, timeline func(io.Writer) error, metrics func() any) {
	if f.timeline != "" {
		if err := writeAtomic(f.timeline, timeline); err != nil {
			log.Fatalf("timeline: %v", err)
		}
	}
	if f.metrics != "" {
		if err := writeJSON(f.metrics, metrics()); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
	printCacheStats(c)
}

// printCacheStats reports a cache's traffic on stderr (no-op for nil or
// an untouched cache).
func printCacheStats(c *resultcache.Cache) {
	if c == nil {
		return
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "result cache %s: %d hits (%d mem), %d misses, %d stored, %d corrupt\n",
		c.Dir(), st.Hits, st.MemHits, st.Misses, st.Stores, st.Corrupt)
}

// signalContext returns a context cancelled on SIGINT/SIGTERM: the first
// signal requests a cooperative stop (the engines exit at their next
// context poll, caches and artifact files stay whole), a second signal
// kills the process through Go's default handler because stop() has
// already restored it.
func signalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, func() { stop() }) // restore default handling once cancelled
	return ctx, stop
}

// publish registers an expvar under name computing its value from f on
// every read. Republishing an existing name is a no-op (expvar itself
// panics on duplicates).
func publish(name string, f func() any) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(f))
}

// writeJSON writes v as indented JSON, newline-terminated, to path
// through writeAtomic.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// writeAtomic streams content through write into a temp file in path's
// directory and atomically renames it over path on success, so an
// interrupted writer never leaves a truncated artifact behind: readers
// observe either the old content or the complete new content. On any
// error (including a write aborted mid-stream by cancellation) the temp
// file is removed and path is untouched.
func writeAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
