package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"archcontest/internal/jobs"
	"archcontest/internal/resultcache"
	"archcontest/internal/spec"
)

// FleetOptions shapes an in-process fleet.
type FleetOptions struct {
	// Workers is each node's concurrent-job bound (default 2).
	Workers int
	// MaxQueue is each node's queue bound (default 64).
	MaxQueue int
	// Parallelism bounds each node's per-campaign simulation fan-out
	// (default 1: fleet tests measure scheduling, not simulation speed).
	Parallelism int
	// ProbeInterval is the coordinator's health-probe period (default
	// 50ms: in-process fleets want fast failure detection).
	ProbeInterval time.Duration
	// RoundRobin selects the baseline router instead of cache-aware
	// rendezvous routing.
	RoundRobin bool
	// SharedStore, if non-nil, backs every node's result cache with one
	// shared blob store (the remote-tier topology). Nil gives every node
	// its own private in-memory cache (the local-only topology).
	SharedStore resultcache.Store
}

// FleetNode is one in-process serve node.
type FleetNode struct {
	URL    string
	Runner *jobs.Runner
	Env    *spec.Env
	Cache  *resultcache.Cache

	srv *http.Server
	ln  net.Listener
}

// Kill hard-stops the node: the listener and every active connection are
// closed immediately, exactly like a crashed process. In-flight work is
// torn off mid-write; nothing is drained.
func (n *FleetNode) Kill() {
	n.srv.Close()
	n.Runner.CancelAll()
}

// Shutdown drains the node gracefully.
func (n *FleetNode) Shutdown(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	if derr := n.Runner.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// Fleet is an in-process coordinator plus N nodes, the harness behind the
// cluster load/fault tests and perfbench's fleet workload.
type Fleet struct {
	Coord    *Coordinator
	CoordURL string
	Nodes    []*FleetNode

	coordSrv *http.Server
	coordLn  net.Listener
}

// StartNode starts one node on a fresh loopback port.
func StartNode(opts FleetOptions) (*FleetNode, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	cache := resultcache.New(opts.SharedStore, resultcache.Options{})
	env := spec.NewEnv(cache)
	env.Parallelism = opts.Parallelism
	runner := jobs.NewRunner(env, opts.Workers)
	handler := NewNode(runner, NodeOptions{
		MaxQueue: opts.MaxQueue,
		Cache:    cache,
		Blobs:    opts.SharedStore,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &FleetNode{
		URL:    "http://" + ln.Addr().String(),
		Runner: runner,
		Env:    env,
		Cache:  cache,
		srv:    &http.Server{Handler: handler},
		ln:     ln,
	}
	go n.srv.Serve(ln)
	return n, nil
}

// StartFleet starts n nodes and a coordinator over them.
func StartFleet(n int, opts FleetOptions) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one node")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 50 * time.Millisecond
	}
	f := &Fleet{}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		node, err := StartNode(opts)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes = append(f.Nodes, node)
		urls = append(urls, node.URL)
	}
	f.Coord = NewCoordinator(CoordOptions{
		Nodes:         urls,
		ProbeInterval: opts.ProbeInterval,
		RoundRobin:    opts.RoundRobin,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	f.coordLn = ln
	f.CoordURL = "http://" + ln.Addr().String()
	f.coordSrv = &http.Server{Handler: f.Coord.Handler()}
	go f.coordSrv.Serve(ln)
	return f, nil
}

// Drain gracefully quiesces the whole fleet: the coordinator stops
// accepting and waits for every facade job, then the nodes drain.
func (f *Fleet) Drain(ctx context.Context) error {
	err := f.Coord.Drain(ctx)
	for _, n := range f.Nodes {
		if serr := n.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	return err
}

// Close hard-stops everything (idempotent; safe mid-construction).
func (f *Fleet) Close() {
	if f.coordSrv != nil {
		f.coordSrv.Close()
	}
	if f.Coord != nil {
		f.Coord.Close()
	}
	for _, n := range f.Nodes {
		if n != nil {
			n.Kill()
		}
	}
}
