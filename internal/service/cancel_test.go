package service

import (
	"bufio"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fase/internal/emsim"
	"fase/internal/obs"
)

// TestCancelQueuedNeverStarts covers cancel before dispatch: the job
// must never render, its meter and counters must stay untouched, and
// its tenant's quota slot must free immediately.
func TestCancelQueuedNeverStarts(t *testing.T) {
	g := newGate()
	s := newServer(t, Config{Workers: 2, MaxActive: 1, SceneFor: gatedSceneFor(g)})
	base := listen(t, s)

	// First job occupies the only active slot, blocked mid-render.
	first, code := httpSubmit(t, base, tinyRequest("alpha", 31))
	if code != http.StatusAccepted {
		t.Fatalf("submit first: %d", code)
	}
	<-g.started

	// Second job is stuck behind it in the queue. Use an adaptive spec so
	// "meter untouched" is observable: a budget meter only exists once an
	// adaptive run starts.
	req := tinyRequest("alpha", 32)
	req.Scan.Adaptive = true
	req.Scan.Budget = 40
	req.Scan.ReconFresHz = 2000
	second, code := httpSubmit(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit second: %d", code)
	}
	if load := s.q.tenantLoad("alpha"); load != 2 {
		t.Fatalf("tenant load %d, want 2", load)
	}

	st := httpCancel(t, base, second.ID)
	if st.State != StateCancelled {
		t.Fatalf("cancelled queued job state %s", st.State)
	}
	if st.StartedUnix != 0 {
		t.Fatal("cancelled queued job reports a start time")
	}
	if st.Captures != 0 {
		t.Fatalf("cancelled queued job charged %d captures", st.Captures)
	}
	j, ok := s.Job(second.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if j.runNow() != nil {
		t.Fatal("cancelled queued job has an observability run — it started")
	}
	// Quota slot freed immediately — only the running job holds one.
	if load := s.q.tenantLoad("alpha"); load != 1 {
		t.Fatalf("tenant load after queued cancel %d, want 1", load)
	}

	g.release()
	fin := waitTerminal(t, base, first.ID)
	if fin.State != StateDone {
		t.Fatalf("first job finished %s: %s", fin.State, fin.Error)
	}
	if load := s.q.tenantLoad("alpha"); load != 0 {
		t.Fatalf("tenant load after completion %d, want 0", load)
	}
	if got := s.Stats(); got.Cancelled != 1 || got.Completed != 1 {
		t.Fatalf("stats %+v, want 1 cancelled and 1 completed", got)
	}
}

// TestCancelRunningDiscardsPartialWork covers cancel mid-shard: the
// running job observes context cancellation, partial shard output is
// discarded, and nothing reaches the run store — a resubmission of the
// identical (config, seed) renders from scratch.
func TestCancelRunningDiscardsPartialWork(t *testing.T) {
	g := newGate()
	dir := t.TempDir()
	s := newServer(t, Config{Workers: 2, MaxActive: 1, StoreDir: dir,
		SceneFor: gatedSceneFor(g)})
	base := listen(t, s)

	st, code := httpSubmit(t, base, tinyRequest("beta", 41))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-g.started // at least one shard is mid-render

	httpCancel(t, base, st.ID)
	g.release() // unblock renders; remaining captures observe the context
	fin := waitTerminal(t, base, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", fin.State)
	}
	// Discard contract: no archive entry at the job's content address.
	if _, err := os.Stat(filepath.Join(dir, st.ResultID+".json")); !os.IsNotExist(err) {
		t.Fatalf("cancelled job reached the run store: %v", err)
	}
	if load := s.q.tenantLoad("beta"); load != 0 {
		t.Fatalf("tenant load after running cancel %d, want 0", load)
	}
	// The result endpoint has nothing to serve.
	resp, err := http.Get(base + "/v1/scans/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result of cancelled job: %d, want 404", resp.StatusCode)
	}

	// Resubmitting the identical (config, seed) is a fresh render, not a
	// cache hit — partial work must not poison the store.
	again, code := httpSubmit(t, base, tinyRequest("beta", 41))
	if code != http.StatusAccepted || again.Cached {
		t.Fatalf("resubmit after cancel: status %d cached %v, want fresh 202", code, again.Cached)
	}
	if again.ResultID != st.ResultID {
		t.Fatalf("resubmit result id %s, want %s", again.ResultID, st.ResultID)
	}
	fin2 := waitTerminal(t, base, again.ID)
	if fin2.State != StateDone {
		t.Fatalf("resubmit finished %s: %s", fin2.State, fin2.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ResultID+".json")); err != nil {
		t.Fatalf("completed resubmit missing from store: %v", err)
	}

	// Third submission of the same work now rides the store: cached,
	// instant, same result id, and the store still holds exactly one
	// entry for it.
	third, code := httpSubmit(t, base, tinyRequest("gamma", 41))
	if code != http.StatusOK || !third.Cached || third.State != StateDone {
		t.Fatalf("third submit: status %d %+v, want cached done", code, third)
	}
	if third.ResultID != st.ResultID {
		t.Fatalf("cached result id %s, want %s", third.ResultID, st.ResultID)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("store holds %d manifests, want exactly 1", n)
	}
}

// sleeper is a scene component that holds every capture rendering it for
// a fixed time and counts its renders. It contributes nothing to the
// spectrum.
type sleeper struct {
	d       time.Duration
	renders atomic.Int64
}

func (sl *sleeper) Name() string { return "testsleeper" }

func (sl *sleeper) Render(dst []complex128, ctx *emsim.Context) {
	sl.renders.Add(1)
	time.Sleep(sl.d)
}

// TestCancelRunningAdaptiveFreesWorker: cancelling a running adaptive job
// frees its worker within one capture. The scan's captures each take
// 40 ms on the fleet's single worker; the job is cancelled once its first
// sweep reports progress, and a second job must then run to completion
// while the cancelled scan renders at most the one capture that was in
// flight — the scan still had a whole recon sweep ahead of it. Adaptive
// jobs count no shards.
func TestCancelRunningAdaptiveFreesWorker(t *testing.T) {
	const slowSeed = 71
	sl := &sleeper{d: 40 * time.Millisecond}
	s := newServer(t, Config{Workers: 1, SceneFor: func(system string, seed int64, env bool) (*emsim.Scene, error) {
		sc, err := defaultSceneFor(system, seed, env)
		if err == nil && seed == slowSeed {
			sc.Add(sl)
		}
		return sc, err
	}})
	base := listen(t, s)

	// A 1 MHz band at 2 kHz recon resolution in 64-point captures: 11
	// segments × 2 averages per recon sweep.
	req := &ScanRequest{Tenant: "delta", System: "i7-desktop", Scan: ScanSpec{
		F1: 300e3, F2: 1.3e6, Fres: 500, FAlt1: 43.3e3, FDelta: 500,
		Seed: slowSeed, MaxFFT: 64, Adaptive: true, Budget: 400, ReconFresHz: 2000,
	}}
	st, code := httpSubmit(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit adaptive: %d", code)
	}
	for httpStatus(t, base, st.ID).State == StateQueued {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(base + "/v1/scans/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("event stream ended before any sweep progress: %v", err)
		}
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"kind":"`+obs.EventSweepProgress+`"`) {
			break
		}
	}
	httpCancel(t, base, st.ID)
	cancelledAt := sl.renders.Load()

	next, code := httpSubmit(t, base, tinyRequest("delta", 72))
	if code != http.StatusAccepted {
		t.Fatalf("submit second job: %d", code)
	}
	if fin := waitTerminal(t, base, next.ID); fin.State != StateDone {
		t.Fatalf("second job finished %s: %s", fin.State, fin.Error)
	}
	if extra := sl.renders.Load() - cancelledAt; extra > 1 {
		t.Errorf("cancelled adaptive scan rendered %d captures after its DELETE, before the next job finished; want at most the 1 in flight", extra)
	}
	if fin := waitTerminal(t, base, st.ID); fin.State != StateCancelled {
		t.Fatalf("adaptive job finished %s, want cancelled", fin.State)
	}
	if got := s.Stats().Shards; got != 5 {
		t.Errorf("shards_total %d, want 5 (the exhaustive job's ladder only)", got)
	}
}

// TestCancelTerminalIsNoOp: cancelling a finished job changes nothing.
func TestCancelTerminalIsNoOp(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	base := listen(t, s)
	st, code := httpSubmit(t, base, tinyRequest("acme", 51))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	fin := waitTerminal(t, base, st.ID)
	if fin.State != StateDone {
		t.Fatalf("finished %s", fin.State)
	}
	got := httpCancel(t, base, st.ID)
	if got.State != StateDone || got.Detections != fin.Detections {
		t.Fatalf("cancel of done job mutated it: %+v", got)
	}
	if s.Stats().Cancelled != 0 {
		t.Fatal("cancel of done job bumped the cancelled counter")
	}
	// Give counters a beat and confirm completion stayed at 1.
	time.Sleep(10 * time.Millisecond)
	if got := s.Stats(); got.Completed != 1 {
		t.Fatalf("completed %d, want 1", got.Completed)
	}
}
