package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"archcontest/internal/jobs"
	"archcontest/internal/obs"
	"archcontest/internal/spec"
)

func newTestNode(t *testing.T, workers int, opts NodeOptions) (*httptest.Server, *jobs.Runner) {
	t.Helper()
	runner := jobs.NewRunner(spec.NewEnv(nil), workers)
	srv := httptest.NewServer(NewNode(runner, opts))
	t.Cleanup(srv.Close)
	return srv, runner
}

func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, v
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, v
}

func del(t *testing.T, url string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func waitTerminal(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, v := get(t, base+"/v1/jobs/"+id)
		switch v["state"] {
		case "done", "failed", "cancelled":
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never became terminal", id)
	return nil
}

// TestNodeConcurrentJobs submits 8 concurrent jobs and, for each, streams
// the watch endpoint asserting snapshots are monotonic (seq and done never
// decrease) and terminate in a done state with an embedded result.
func TestNodeConcurrentJobs(t *testing.T) {
	srv, _ := newTestNode(t, 4, NodeOptions{})
	const njobs = 8
	ids := make([]string, njobs)
	for i := range ids {
		body := fmt.Sprintf(`{"kind":"run","bench":"gcc","cores":["gcc"],"n":%d}`, 100_000+i)
		code, v := post(t, srv.URL+"/v1/jobs", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %v", i, code, v)
		}
		ids[i] = v["id"].(string)
	}

	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "?watch=1")
			if err != nil {
				t.Errorf("watch %s: %v", id, err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			lastSeq, lastDone := -1.0, -1.0
			var final map[string]any
			for sc.Scan() {
				var snap map[string]any
				if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
					t.Errorf("watch %s: bad NDJSON line %q: %v", id, sc.Text(), err)
					return
				}
				seq, done := snap["seq"].(float64), snap["done"].(float64)
				if seq < lastSeq || done < lastDone {
					t.Errorf("watch %s: snapshot went backwards (seq %v after %v, done %v after %v)",
						id, seq, lastSeq, done, lastDone)
					return
				}
				lastSeq, lastDone = seq, done
				final = snap
			}
			if final == nil {
				t.Errorf("watch %s: no snapshots", id)
				return
			}
			if final["state"] != "done" {
				t.Errorf("watch %s: terminal state %v", id, final["state"])
			}
			if final["result"] == nil {
				t.Errorf("watch %s: terminal snapshot lacks the result", id)
			}
			wantN := float64(100_000 + i)
			if final["done"] != wantN || final["total"] != wantN {
				t.Errorf("watch %s: final progress %v/%v, want %v", id, final["done"], final["total"], wantN)
			}
		}(i, id)
	}
	wg.Wait()
}

// TestNodeRecordedContest: a recorded contest job returns archcontest-obs-v1
// metrics in the result and a loadable Chrome trace.
func TestNodeRecordedContest(t *testing.T) {
	srv, _ := newTestNode(t, 2, NodeOptions{})
	code, v := post(t, srv.URL+"/v1/jobs",
		`{"kind":"contest","bench":"twolf","cores":["twolf","vpr"],"n":20000,"record":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", code, v)
	}
	id := v["id"].(string)
	waitTerminal(t, srv.URL, id)

	code, res := get(t, srv.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %v", code, res)
	}
	result, _ := res["result"].(map[string]any)
	if result == nil {
		t.Fatalf("no result payload: %v", res)
	}
	metrics, _ := result["metrics"].(map[string]any)
	if metrics == nil {
		t.Fatalf("recorded job returned no metrics: %v", result)
	}
	if metrics["schema"] != obs.SchemaVersion {
		t.Errorf("metrics schema %v, want %q", metrics["schema"], obs.SchemaVersion)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a Chrome trace_event array: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace is empty")
	}
}

func TestNodeCancel(t *testing.T) {
	srv, _ := newTestNode(t, 1, NodeOptions{})
	code, v := post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"mcf","cores":["mcf"],"n":5000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", code, v)
	}
	id := v["id"].(string)
	if code := del(t, srv.URL+"/v1/jobs/"+id); code != http.StatusAccepted {
		t.Fatalf("cancel: status %d", code)
	}
	snap := waitTerminal(t, srv.URL, id)
	if snap["state"] != "cancelled" {
		t.Errorf("state %v after DELETE, want cancelled", snap["state"])
	}
}

func TestNodeRejectsBadSpecs(t *testing.T) {
	srv, _ := newTestNode(t, 1, NodeOptions{})
	code, v := post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"gcc","frobnicate":1}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400 (%v)", code, v)
	}
	code, v = post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"doom"}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("unknown bench: status %d, want 422 (%v)", code, v)
	}
	if code, _ := get(t, srv.URL+"/v1/jobs/job-9999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestNodeRejectsOversizedN: a trace length above spec.MaxN is refused
// before any job (or trace) exists, so a small request body cannot make the
// node allocate gigabytes.
func TestNodeRejectsOversizedN(t *testing.T) {
	srv, runner := newTestNode(t, 1, NodeOptions{})
	code, v := post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"gcc","n":2000000000}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("oversized n: status %d, want 422 (%v)", code, v)
	}
	if msg, _ := v["error"].(string); !strings.Contains(msg, "exceeds the maximum") {
		t.Errorf("oversized n: error %q does not name the bound", msg)
	}
	if jobs := runner.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized n created %d jobs, want 0", len(jobs))
	}
}

// TestNodeResultConflict: asking for a result before the job is terminal is
// a 409, not a hang or a partial payload.
func TestNodeResultConflict(t *testing.T) {
	srv, _ := newTestNode(t, 1, NodeOptions{})
	code, v := post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"mcf","cores":["mcf"],"n":5000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, v)
	}
	blocker := v["id"].(string)
	code, v = post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"gcc","cores":["gcc"],"n":20000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, v)
	}
	queued := v["id"].(string)
	if code, _ := get(t, srv.URL+"/v1/jobs/"+queued+"/result"); code != http.StatusConflict {
		t.Errorf("result of a queued job: status %d, want 409", code)
	}
	for _, id := range []string{blocker, queued} {
		del(t, srv.URL+"/v1/jobs/"+id)
	}
}

// TestNodeList: the listing returns every submitted job in order.
func TestNodeList(t *testing.T) {
	srv, _ := newTestNode(t, 2, NodeOptions{})
	for i := 0; i < 3; i++ {
		code, v := post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"gcc","cores":["gcc"],"n":20000}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %v", code, v)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(views) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(views))
	}
	for i, v := range views {
		if want := fmt.Sprintf("job-%04d", i+1); v["id"] != want {
			t.Errorf("job %d listed as %v, want %s", i, v["id"], want)
		}
	}
}

// TestNodeBackpressure: with one worker and a one-slot queue, the third
// submission is shed with 429 + Retry-After instead of buffering, and a
// freed slot accepts again.
func TestNodeBackpressure(t *testing.T) {
	srv, _ := newTestNode(t, 1, NodeOptions{MaxQueue: 1})
	long := `{"kind":"run","bench":"mcf","cores":["mcf"],"n":5000000}`
	code, v := post(t, srv.URL+"/v1/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %v", code, v)
	}
	blocker := v["id"].(string)
	code, v = post(t, srv.URL+"/v1/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %v", code, v)
	}
	queued := v["id"].(string)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}

	// Queue health is visible.
	code, h := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h["pending"] != 1.0 || h["running"] != 1.0 {
		t.Errorf("healthz load %v/%v, want pending=1 running=1", h["pending"], h["running"])
	}

	// Freeing the queue slot re-opens the node.
	del(t, srv.URL+"/v1/jobs/"+queued)
	waitTerminal(t, srv.URL, queued)
	code, v = post(t, srv.URL+"/v1/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit after free: %d %v", code, v)
	}
	del(t, srv.URL+"/v1/jobs/"+v["id"].(string))
	del(t, srv.URL+"/v1/jobs/"+blocker)
}

// TestNodeWatchDisconnectReleases is the regression test for the watch
// leak: a ?watch=1 stream whose client disconnects mid-job must notice the
// closed connection and release its watcher subscription — it must not
// stay parked until the job ends.
func TestNodeWatchDisconnectReleases(t *testing.T) {
	srv, runner := newTestNode(t, 1, NodeOptions{})
	code, v := post(t, srv.URL+"/v1/jobs", `{"kind":"run","bench":"mcf","cores":["mcf"],"n":8000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, v)
	}
	id := v["id"].(string)
	j, ok := runner.Get(id)
	if !ok {
		t.Fatalf("runner lost job %s", id)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+id+"?watch=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one snapshot so the stream is demonstrably established, then
	// drop the connection while the job is still running.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first snapshot before disconnect")
	}
	if got := j.Watchers(); got != 1 {
		t.Fatalf("watchers after connect = %d, want 1", got)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for j.Watchers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher not released %v after client disconnect (still %d registered)",
				5*time.Second, j.Watchers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The job itself must be unaffected by the abandoned watch.
	if s := j.Snapshot(); s.State.Terminal() {
		t.Fatalf("job reached %s during the watch; raise n so disconnect happens mid-run", s.State)
	}
	j.Cancel()
	<-j.Done()
}
