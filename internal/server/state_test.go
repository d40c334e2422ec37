package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// feedSession posts rows[from:to] to the session and returns the raw
// response bodies (byte-level comparison pins the full wire contract, not
// just the decoded fields).
func feedSession(t *testing.T, url, id string, rows [][]int, from, to int) []string {
	t.Helper()
	out := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		resp, data := post(t, url+"/assign", map[string]any{"session": id, "row": rows[i%len(rows)]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign row %d: %d %s", i, resp.StatusCode, data)
		}
		out = append(out, string(data))
	}
	return out
}

func createSession(t *testing.T, url, id string, window int, seed int64) {
	t.Helper()
	resp, data := post(t, url+"/sessions", map[string]any{"session": id, "model": "m", "window": window, "seed": seed})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session %s: %d %s", id, resp.StatusCode, data)
	}
}

// TestCheckpointRestartResumesBitIdentical is the durability acceptance
// property: a daemon killed after flushing its sessions and restarted from
// -state-dir continues every stream bit-for-bit with an uninterrupted run.
//
// Checkpointing rotates the session's random stream (see stream.Snapshot),
// so the uninterrupted reference performs an explicit checkpoint at the same
// stream position the killed daemon flushed at — exactly the cut-point
// parity a deployment gets from its periodic checkpoint cadence. The tail
// covers several re-learnings (window 40, 140 tail rows), so the property
// holds across model refreshes, not just between them.
func TestCheckpointRestartResumesBitIdentical(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 6, 3, 23)
	const cut, total, window = 60, 200, 40

	run := func(dir string) (*Server, *httptest.Server) {
		s, err := New(Config{StateDir: dir, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts
	}

	// Uninterrupted reference: checkpoint at the cut, keep feeding.
	refDir := t.TempDir()
	refSrv, refTS := run(refDir)
	defer refTS.Close()
	defer refSrv.Close()
	if err := refSrv.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, refTS.URL, "alpha", window, 9)
	createSession(t, refTS.URL, "beta", window, 11)
	feedSession(t, refTS.URL, "alpha", rows, 0, cut)
	feedSession(t, refTS.URL, "beta", rows, 0, cut)
	resp, data := post(t, refTS.URL+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"checkpointed":2`) {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, data)
	}
	refTailA := feedSession(t, refTS.URL, "alpha", rows, cut, total)
	refTailB := feedSession(t, refTS.URL, "beta", rows, cut, total)

	// Killed run: same prefix, graceful shutdown (flushes the same cut), a
	// fresh daemon restores from the state dir and serves the tail.
	killDir := t.TempDir()
	srv1, ts1 := run(killDir)
	if err := srv1.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, ts1.URL, "alpha", window, 9)
	createSession(t, ts1.URL, "beta", window, 11)
	feedSession(t, ts1.URL, "alpha", rows, 0, cut)
	feedSession(t, ts1.URL, "beta", rows, 0, cut)
	ts1.Close()
	srv1.Close() // graceful shutdown = final checkpoint flush

	srv2, ts2 := run(killDir)
	defer ts2.Close()
	defer srv2.Close()
	// No model re-load needed: sessions are self-contained. The restart must
	// report both sessions live before any traffic touches them.
	if got := srv2.sessions.count(); got != 2 {
		t.Fatalf("restart restored %d sessions, want 2", got)
	}
	if got := srv2.sessions.restored.Load(); got != 2 {
		t.Fatalf("restored counter = %d, want 2", got)
	}
	tailA := feedSession(t, ts2.URL, "alpha", rows, cut, total)
	tailB := feedSession(t, ts2.URL, "beta", rows, cut, total)

	if !reflect.DeepEqual(tailA, refTailA) {
		t.Errorf("session alpha: post-restart tail diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(tailB, refTailB) {
		t.Errorf("session beta: post-restart tail diverged from the uninterrupted run")
	}
	// The tail must include at least one re-learning for the property to
	// mean anything across refreshes.
	var last struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(tailA[len(tailA)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Epoch < 2 {
		t.Fatalf("tail ended at epoch %d; want ≥ 2 so the property covers re-learnings", last.Epoch)
	}
}

// TestSessionDeleteRemovesCheckpoint pins DELETE semantics in a durable
// pool: a deleted session must not resurrect on restart or lazy page-in.
func TestSessionDeleteRemovesCheckpoint(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 31)
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, ts.URL, "doomed", 30, 3)
	feedSession(t, ts.URL, "doomed", rows, 0, 10)
	if n := s.CheckpointSessions(); n != 1 {
		t.Fatalf("checkpointed %d sessions, want 1", n)
	}
	ckpt := filepath.Join(dir, "sessions", "doomed.ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived the delete: %v", err)
	}
	// No lazy page-in of a deleted session.
	resp2, _ := post(t, ts.URL+"/assign", map[string]any{"session": "doomed", "row": rows[0]})
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still serves: %d", resp2.StatusCode)
	}
	// And the id is free for re-creation.
	createSession(t, ts.URL, "doomed", 30, 3)
}

// TestDurablePoolRejectsTraversalIds pins the path guard on the durable
// pool's disk paths: a crafted session id must neither read nor unlink
// files outside the state dir (resident ids are validated at create time;
// the assign page-in and delete paths take ids straight off the wire).
func TestDurablePoolRejectsTraversalIds(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 61)
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	// A bystander file one level above the sessions dir, where "../x" points.
	victim := filepath.Join(dir, "x.ckpt")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../x", "..", "a/b", "x\x00y"} {
		resp, _ := post(t, ts.URL+"/assign", map[string]any{"session": id, "row": rows[0]})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("assign with id %q: %d, want 404", id, resp.StatusCode)
		}
		if s.sessions.remove(id) {
			t.Errorf("remove(%q) claimed success", id)
		}
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "precious" {
		t.Fatalf("bystander file touched: %v %q", err, data)
	}
}

// TestSessionTTLBoundsPool is the create-heavy load property: with a TTL the
// pool's live-session count collapses to the working set once sessions go
// idle, the evictions surface in /metrics, and (memory-only pool) evicted
// ids are gone for good.
func TestSessionTTLBoundsPool(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 37)
	s, err := New(Config{}) // sweep driven explicitly for determinism
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	const created = 200
	for i := 0; i < created; i++ {
		createSession(t, ts.URL, fmt.Sprintf("s%03d", i), 30, int64(i+1))
	}
	feedSession(t, ts.URL, "s000", rows, 0, 3)
	if got := s.sessions.count(); got != created {
		t.Fatalf("pool holds %d sessions, want %d", got, created)
	}
	time.Sleep(30 * time.Millisecond)
	// Keep one session hot across the idle gap.
	feedSession(t, ts.URL, "s000", rows, 3, 4)
	if n := s.SweepSessions(25 * time.Millisecond); n != created-1 {
		t.Fatalf("sweep evicted %d sessions, want %d", n, created-1)
	}
	if got := s.sessions.count(); got != 1 {
		t.Fatalf("pool holds %d sessions after sweep, want 1 (the hot one)", got)
	}
	_, data := get(t, ts.URL+"/metrics")
	if want := fmt.Sprintf("mcdcd_sessions_evicted_total %d", created-1); !strings.Contains(string(data), want) {
		t.Errorf("metrics missing %q", want)
	}
	// Memory-only pool: eviction is deletion.
	resp, _ := post(t, ts.URL+"/assign", map[string]any{"session": "s117", "row": rows[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still serves: %d", resp.StatusCode)
	}
	// The hot session is untouched.
	feedSession(t, ts.URL, "s000", rows, 4, 6)
}

// TestEvictionSpillsAndPagesBackIn pins the durable-pool eviction contract:
// an idle session spills to disk, a later touch pages it back in, and the
// combined stream is bit-identical to one that was never evicted.
func TestEvictionSpillsAndPagesBackIn(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 41)
	const cut, total, window = 50, 130, 40

	run := func(dir string) (*Server, *httptest.Server) {
		s, err := New(Config{StateDir: dir, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts
	}

	// Reference: checkpoint (= the rotation the eviction performs) at the
	// cut, no eviction.
	refSrv, refTS := run(t.TempDir())
	if err := refSrv.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, refTS.URL, "s", window, 13)
	feedSession(t, refTS.URL, "s", rows, 0, cut)
	refSrv.CheckpointSessions()
	refTail := feedSession(t, refTS.URL, "s", rows, cut, total)

	// Evicted: same prefix, sweep with zero-tolerance TTL, then keep going —
	// the first post-eviction assign pages the session back in.
	evSrv, evTS := run(t.TempDir())
	if err := evSrv.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, evTS.URL, "s", window, 13)
	feedSession(t, evTS.URL, "s", rows, 0, cut)
	time.Sleep(2 * time.Millisecond)
	if n := evSrv.SweepSessions(time.Millisecond); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if got := evSrv.sessions.count(); got != 0 {
		t.Fatalf("session still resident after eviction: count=%d", got)
	}
	tail := feedSession(t, evTS.URL, "s", rows, cut, total)
	if evSrv.sessions.restored.Load() != 1 {
		t.Fatalf("restored counter = %d, want 1 (page-in)", evSrv.sessions.restored.Load())
	}
	if !reflect.DeepEqual(tail, refTail) {
		t.Error("evict + page-in diverged from the uninterrupted stream")
	}
}

// checkpointsTotal reads mcdcd_session_checkpoints_total off the daemon's
// metrics exposition.
func checkpointsTotal(t *testing.T, url string) string {
	t.Helper()
	for _, line := range strings.Split(scrape(t, url), "\n") {
		if v, ok := strings.CutPrefix(line, "mcdcd_session_checkpoints_total "); ok {
			return v
		}
	}
	t.Fatal("mcdcd_session_checkpoints_total missing from the exposition")
	return ""
}

// TestCheckpointCounterCountsEveryWrite pins mcdcd_session_checkpoints_total
// to the checkpoint files actually written, whichever path wrote them: the
// create and per-assignment writes of a replicated daemon (whose clean
// sessions the flush then skips), and a durable pool's eviction, flush and
// shutdown writes.
func TestCheckpointCounterCountsEveryWrite(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 47)

	repl, replTS := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir()})
	if err := repl.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, replTS.URL, "s", 40, 3)
	feedSession(t, replTS.URL, "s", rows, 0, 5)
	if got := checkpointsTotal(t, replTS.URL); got != "6" {
		t.Fatalf("replicated: create + 5 assigns wrote %s checkpoints by the counter, want 6", got)
	}
	if n := repl.CheckpointSessions(); n != 0 {
		t.Fatalf("replicated flush rewrote %d clean sessions, want 0", n)
	}
	if got := checkpointsTotal(t, replTS.URL); got != "6" {
		t.Fatalf("replicated: counter %s after a no-op flush, want 6", got)
	}

	durable, durableTS := newTestServer(t, Config{StateDir: t.TempDir()})
	if err := durable.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, durableTS.URL, "s", 40, 3)
	feedSession(t, durableTS.URL, "s", rows, 0, 5)
	if got := checkpointsTotal(t, durableTS.URL); got != "0" {
		t.Fatalf("durable: counter %s before any write, want 0", got)
	}
	time.Sleep(2 * time.Millisecond)
	if n := durable.SweepSessions(time.Millisecond); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if got := checkpointsTotal(t, durableTS.URL); got != "1" {
		t.Fatalf("durable: counter %s after an eviction write, want 1", got)
	}
	feedSession(t, durableTS.URL, "s", rows, 5, 7)
	if n := durable.CheckpointSessions(); n != 1 {
		t.Fatalf("flush wrote %d, want 1", n)
	}
	durable.Close()
	if got := durable.sessions.checkpoints.Load(); got != 3 {
		t.Fatalf("durable: counter %d after eviction + flush + shutdown writes, want 3", got)
	}
}

// TestConcurrentSessionLifecycleRace is the -race hammer over the full
// session lifecycle: concurrent create / assign / sweep-evict / checkpoint /
// delete traffic against a durable pool while a model hot swap runs. It
// asserts liveness and the absence of data races; the deterministic
// properties live in the tests above.
func TestConcurrentSessionLifecycleRace(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 43)
	snap2, _, _ := trainModel(t, 200, 6, 3, 44)
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	const goroutines, iters, ids = 10, 30, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("h%d", (g+i)%ids)
				switch g % 5 {
				case 0: // creator (conflicts expected)
					resp, data := post(t, ts.URL+"/sessions", map[string]any{"session": id, "model": "m", "window": 30, "seed": int64(g + 1)})
					if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
						errs <- fmt.Errorf("create %s: %d %s", id, resp.StatusCode, data)
						return
					}
				case 1, 2, 3: // assigner (missing sessions expected)
					resp, data := post(t, ts.URL+"/assign", map[string]any{"session": id, "row": rows[(g*iters+i)%len(rows)]})
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						errs <- fmt.Errorf("assign %s: %d %s", id, resp.StatusCode, data)
						return
					}
				case 4: // deleter
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
						errs <- fmt.Errorf("delete %s: %d", id, resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	// Concurrent maintenance: evictions, checkpoints, and a hot swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.SweepSessions(time.Microsecond) // everything idle is fair game
			s.CheckpointSessions()
			if i == 10 {
				if err := s.AddModel("m", snap2); err != nil {
					errs <- err
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The daemon is still coherent: metrics render and sessions still serve.
	if _, data := get(t, ts.URL+"/metrics"); !strings.Contains(string(data), "mcdcd_sessions_evicted_total") {
		t.Errorf("metrics incoherent after hammer: %s", data)
	}
}
