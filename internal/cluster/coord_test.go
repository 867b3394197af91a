package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTerminalLineIsOneStep pins the coordinator's terminal transition. A
// terminal snapshot from the owning node must be published and finalize
// the record in one critical section: were it two steps (ingest the line,
// then mark the record terminal), a watcher woken between them would see
// "done" on a non-terminal record, whose view strips the result. Every
// step wakes watchers and advances the record's sequence number, so the
// test counts steps per node line — through both the watch stream and the
// liveness recheck — and checks the view at the step a watcher woken by
// the terminal line reads.
func TestTerminalLineIsOneStep(t *testing.T) {
	running := map[string]any{"id": "r1", "state": "running"}
	done := map[string]any{"id": "r1", "state": "done", "result": map[string]any{"ipt": 1.5}}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
		case r.URL.Query().Get("watch") != "":
			enc := json.NewEncoder(w)
			enc.Encode(running)
			enc.Encode(done)
		default:
			json.NewEncoder(w).Encode(done)
		}
	}))
	defer node.Close()
	c := NewCoordinator(CoordOptions{Nodes: []string{node.URL}})
	defer c.Close()

	newJob := func() *coordJob {
		return &coordJob{id: "c1", node: node.URL, remoteID: "r1", done: make(chan struct{})}
	}
	check := func(how string, j *coordJob, seq0 int64, lines int) {
		t.Helper()
		v, seq, terminal := j.view(true)
		if seq != seq0+int64(lines) {
			t.Errorf("%s: %d node lines took %d steps; the terminal line must publish and finalize in one", how, lines, seq-seq0)
		}
		if !terminal || v["state"] != "done" || v["result"] == nil {
			t.Errorf("%s: view after the terminal line: terminal=%v state=%v result=%v", how, terminal, v["state"], v["result"])
		}
		select {
		case <-j.done:
		default:
			t.Errorf("%s: record not finalized", how)
		}
	}

	j := newJob()
	_, seq0, _ := j.view(true)
	if !c.watchOnce(j) {
		t.Fatal("watch stream ended without a terminal line")
	}
	check("watch", j, seq0, 2)

	j = newJob()
	_, seq0, _ = j.view(true)
	if !c.remoteAlive(j) {
		t.Fatal("liveness recheck lost the job")
	}
	check("recheck", j, seq0, 1)
}
