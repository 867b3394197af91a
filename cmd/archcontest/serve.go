package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"archcontest/internal/cluster"
	"archcontest/internal/jobs"
	"archcontest/internal/resultcache"
	"archcontest/internal/spec"
)

// runServe is the contest-as-a-service daemon. In node mode (the default)
// it accepts declarative scenario specs (internal/spec) as jobs over HTTP,
// executes them on a bounded worker pool (internal/jobs), and serves
// progress snapshots, results with archcontest-obs-v1 metrics and
// Chrome/Perfetto timelines; -queue bounds the accept queue (overload is
// shed with 429/503 + Retry-After) and -cache.serve exports the node's
// result-cache blob store at /v1/blobs/. With -coord it is the cluster
// coordinator over -nodes: specs are sharded with cache-aware rendezvous
// routing, saturated or dead nodes are routed around, and a job whose node
// dies mid-run is retried on a survivor. The coordinator opens no result
// cache. Both modes serve the same /v1/jobs API (DESIGN.md §11.3, §14).
//
// On SIGTERM/SIGINT the daemon stops accepting submissions, drains
// in-flight jobs, and exits 0; a second signal hard-cancels everything.
func runServe(fs *flag.FlagSet, args []string) {
	addr := fs.String("addr", "localhost:8080", "listen address")
	workers := fs.Int("workers", 2, "concurrently executing jobs (node mode)")
	par := fs.Int("par", 0, "per-campaign simulation parallelism (0 = NumCPU)")
	queue := fs.Int("queue", 0, "max queued jobs before submissions are shed with 429 (0 = unbounded)")
	serveCache := fs.Bool("cache.serve", false, "export this node's result-cache blob store at /v1/blobs/")
	coord := fs.Bool("coord", false, "run as the cluster coordinator instead of a node")
	nodesFlag := fs.String("nodes", "", "comma-separated node base URLs (coordinator mode)")
	probe := fs.Duration("probe", 500*time.Millisecond, "node health-probe interval (coordinator mode)")
	drainTimeout := fs.Duration("drain", 10*time.Minute, "max time to drain in-flight jobs on shutdown")
	shared := registerShared(fs)
	shared.parse(fs, args)

	if *coord {
		runCoordinator(*addr, *nodesFlag, *probe, *drainTimeout)
		return
	}

	cache := shared.openCache()
	env := spec.NewEnv(cache)
	env.Parallelism = *par
	runner := jobs.NewRunner(env, *workers)
	opts := cluster.NodeOptions{MaxQueue: *queue, Cache: cache}
	if *serveCache {
		if opts.Blobs = cache.Store(); opts.Blobs == nil {
			log.Fatal("-cache.serve needs a backed cache (unset -cache.off, or point -cache.dir/-cache.remote somewhere)")
		}
	}
	srv, drainCtx, cancelDrain := listenUntilSignal(*addr, cluster.NewNode(runner, opts), *drainTimeout,
		func(a net.Addr) { log.Printf("listening on http://%s (workers=%d queue=%d)", a, *workers, *queue) },
		"draining (second signal hard-cancels)", "hard-cancelling in-flight jobs")
	defer cancelDrain()

	// Stop accepting HTTP traffic and drain the in-flight jobs. A second
	// signal, or the drain timeout, hard-cancels everything still running
	// and waits briefly for the cancellations to land.
	go srv.Shutdown(drainCtx)
	if err := runner.Drain(drainCtx); err != nil {
		runner.CancelAll()
		landCtx, cancelLand := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancelLand()
		if err := runner.Drain(landCtx); err != nil {
			log.Fatalf("jobs stuck after hard cancel: %v", err)
		}
	}
	printCacheStats(env.Cache)
	log.Printf("drained, exiting")
}

// runCoordinator serves the cluster facade over the configured node set
// until a signal, then drains: no new submissions, and the process exits
// only once every accepted job has reached its terminal state (or the
// drain timeout forces the issue).
func runCoordinator(addr, nodesFlag string, probe, drainTimeout time.Duration) {
	var nodes []string
	for _, n := range strings.Split(nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, strings.TrimRight(n, "/"))
		}
	}
	if len(nodes) == 0 {
		log.Fatal("-coord needs -nodes with at least one node URL")
	}
	c := cluster.NewCoordinator(cluster.CoordOptions{Nodes: nodes, ProbeInterval: probe})
	defer c.Close()
	srv, drainCtx, cancelDrain := listenUntilSignal(addr, c.Handler(), drainTimeout,
		func(a net.Addr) { log.Printf("coordinating %d nodes on http://%s", len(nodes), a) },
		"draining (second signal abandons in-flight jobs)", "abandoning in-flight jobs")
	defer cancelDrain()

	go srv.Shutdown(drainCtx)
	if err := c.Drain(drainCtx); err != nil {
		log.Fatalf("drain incomplete: %v", err)
	}
	st := c.Stats()
	log.Printf("drained, exiting (submits=%d affinity=%d reroutes=%d lost=%d)",
		st.Submits, st.AffinityHits, st.Reroutes, st.Lost)
}

// runCachesrv is a standalone result-cache blob store: the remote tier
// behind -cache.remote. It serves the resultcache blob API over a
// disk-backed store:
//
//	GET    /v1/blobs/{key}  fetch a blob (404 when absent)
//	PUT    /v1/blobs/{key}  store a blob
//	DELETE /v1/blobs/{key}  drop a blob (idempotent)
//	GET    /healthz         liveness
//
// Fleet nodes pointed at one cachesrv share their simulation results:
// whichever node computes an artifact first persists it here, and every
// other node's next lookup hits. A serve node with -cache.serve exposes
// the same API embedded; cachesrv is the dedicated-process deployment.
func runCachesrv(fs *flag.FlagSet, args []string) {
	addr := fs.String("addr", "localhost:8081", "listen address")
	dir := fs.String("dir", resultcache.DefaultDir, "blob store directory")
	fs.Parse(args)

	store, err := resultcache.NewDiskStore(*dir)
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/blobs/", resultcache.BlobHandler(store))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	srv, ctx, cancel := listenUntilSignal(*addr, mux, 10*time.Second,
		func(a net.Addr) { log.Printf("serving blobs from %s on http://%s", *dir, a) },
		"shutting down", "abandoning open requests")
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("exiting")
}

// listenUntilSignal serves h on addr, calling banner with the bound
// address, until the first SIGINT/SIGTERM, which it logs with stopping; a
// serve error before that exits the process. It returns the server, not
// yet shut down, and a drain context that expires after drain or at a
// second signal, which it logs with abandon.
func listenUntilSignal(addr string, h http.Handler, drain time.Duration, banner func(net.Addr), stopping, abandon string) (*http.Server, context.Context, context.CancelFunc) {
	srv := &http.Server{Addr: addr, Handler: h}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	banner(ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2) // the stopping and the abandoning signal
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: %s", sig, stopping)
	case err := <-errc:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	go func() {
		select {
		case sig := <-sigc:
			log.Printf("%v: %s", sig, abandon)
			cancel()
		case <-ctx.Done():
		}
	}()
	return srv, ctx, cancel
}
