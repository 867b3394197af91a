// Package cluster turns the single-node contest-as-a-service daemon into a
// horizontally sharded fleet. It has three layers:
//
//   - Node: the per-node HTTP API over a jobs.Runner (the same /v1/jobs
//     surface archcontest serve has always exposed), extended with
//     bounded-queue backpressure (429/503 shed-load responses with
//     Retry-After), a load-reporting /healthz, and an optional /v1/blobs
//     mount that shares the node's result-cache backend with the rest of
//     the fleet.
//
//   - Coordinator: the cluster facade. It shards incoming scenario specs
//     across N nodes with cache-aware routing — rendezvous hashing over
//     spec.RouteKey, the content-address identity of the artifacts a spec
//     touches, so identical work lands on the node whose result cache is
//     already warm — probes node health, sheds load when every node is
//     saturated, and retries jobs onto surviving nodes when a node dies
//     mid-job. Its /v1/jobs facade proxies submit/status/watch/cancel/
//     result/trace to the owning node, preserving NDJSON streaming, and
//     guarantees every accepted job surfaces a terminal state: retried
//     elsewhere, completed, or failed-with-cause — never silently lost.
//
//   - Fleet: an in-process coordinator-plus-nodes harness used by the
//     load/fault tests and perfbench's fleet workload.
package cluster

import (
	"encoding/json"
	"net/http"

	"archcontest/internal/resultcache"
)

// Health is the /healthz payload of both nodes and the coordinator. For a
// node, Pending/Running/Workers/MaxQueue describe the local runner and
// Cache its result cache; for the coordinator, Nodes describes the fleet.
type Health struct {
	Status  string `json:"status"` // "ok" or "draining"
	Pending int    `json:"pending"`
	Running int    `json:"running"`
	Workers int    `json:"workers,omitempty"`
	// MaxQueue is the node's queue bound (0 = unbounded).
	MaxQueue int `json:"max_queue,omitempty"`
	// Cache carries the node's result-cache counters, so fleet-level cache
	// hit rates can be aggregated over HTTP.
	Cache *resultcache.Stats `json:"cache,omitempty"`
	// Nodes is the coordinator's per-node view.
	Nodes []NodeHealth `json:"nodes,omitempty"`
}

// NodeHealth is the coordinator's view of one node.
type NodeHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Pending int    `json:"pending"`
	Running int    `json:"running"`
	// Jobs counts facade jobs currently owned by the node.
	Jobs int `json:"jobs"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeShed answers a shed-load response: the HTTP translation of "try
// again shortly, possibly elsewhere".
func writeShed(w http.ResponseWriter, code int, retryAfter string, err error) {
	w.Header().Set("Retry-After", retryAfter)
	writeErr(w, code, err)
}
