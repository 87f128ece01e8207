package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fase/internal/service"
)

// fakeServer mimics the submit and status endpoints of `fase serve`:
// every job completes doneAfter after it was submitted, the first submit
// stalls for stall, and submits for tenant "full" are refused with 429.
func fakeServer(t *testing.T, stall, doneAfter time.Duration) *httptest.Server {
	var mu sync.Mutex
	submitted := map[string]time.Time{}
	n := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scans", func(w http.ResponseWriter, r *http.Request) {
		var req service.ScanRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		if req.Tenant == "full" {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		mu.Lock()
		n++
		id := fmt.Sprintf("j%d", n)
		first := n == 1
		submitted[id] = time.Now()
		mu.Unlock()
		if first {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(service.ScanStatus{ID: id, ResultID: "r-" + id, State: service.StateQueued})
	})
	mux.HandleFunc("GET /v1/scans/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		mu.Lock()
		at := submitted[id]
		mu.Unlock()
		st := service.ScanStatus{ID: id, ResultID: "r-" + id, State: service.StateRunning}
		if time.Since(at) >= doneAfter {
			st.State = service.StateDone
			st.Detections = 1
		}
		_ = json.NewEncoder(w).Encode(st)
	})
	return httptest.NewServer(mux)
}

// TestOpenLoopChargesStallsFromDueTime: a submit that stalls delays the
// sends behind it; the generator's lag records how late each send was
// and each job's latency is measured from its due time, so the stall
// shows in every job it delayed.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const stall, doneAfter = 150 * time.Millisecond, 20 * time.Millisecond
	ts := fakeServer(t, stall, doneAfter)
	defer ts.Close()
	jobs := []plannedJob{
		{Class: classTiny, Due: 0, Key: "a", Of: -1, Expect: 1},
		{Class: classTiny, Due: 30 * time.Millisecond, Key: "b", Of: -1, Expect: 1},
		{Class: classTiny, Due: 300 * time.Millisecond, Key: "c", Of: -1, Expect: 1},
		{Class: classTiny, Due: 310 * time.Millisecond, Key: "d", Of: -1, Expect: 1},
	}
	for i := range jobs {
		jobs[i].Req.Tenant = "t"
	}
	jobs[3].Req.Tenant = "full"
	recs := make([]*jobRecord, len(jobs))
	for i := range recs {
		recs[i] = &jobRecord{done: make(chan struct{})}
	}
	client := newClient()
	defer client.CloseIdleConnections()
	start := time.Now()
	openLoop(context.Background(), client, ts.URL, jobs, recs, start)

	for i, r := range recs {
		if !r.Due.Equal(start.Add(jobs[i].Due)) {
			t.Errorf("job %d due %v after start, planned %v", i, r.Due.Sub(start), jobs[i].Due)
		}
		if !r.Resolved {
			t.Fatalf("job %d never resolved", i)
		}
	}
	// Job 1 was due at 30 ms but could only be sent after job 0's
	// stalled submit returned at ~150 ms.
	if lag := recs[1].Sent.Sub(recs[1].Due); lag < stall-40*time.Millisecond {
		t.Errorf("job 1 lag %v, want about %v", lag, stall-30*time.Millisecond)
	}
	if lat := recs[1].Done.Sub(recs[1].Due); lat < stall-30*time.Millisecond+doneAfter {
		t.Errorf("job 1 latency from due %v does not include the stall", lat)
	}
	// Job 2 was sent on time: small lag, latency about doneAfter plus a
	// poll interval.
	if lag := recs[2].Sent.Sub(recs[2].Due); lag > 20*time.Millisecond {
		t.Errorf("job 2 lag %v for an on-time send", lag)
	}
	if lat := recs[2].Done.Sub(recs[2].Due); lat < doneAfter || lat > doneAfter+5*pollEvery {
		t.Errorf("job 2 latency %v, want %v plus at most a few polls", lat, doneAfter)
	}

	o := newOutcome()
	completed := checkJobs(o, jobs, recs, service.Stats{Shards: 15})
	if completed != 3 || o.attempted != 4 || o.failed != 1 || len(o.checkErrs) != 0 {
		t.Errorf("completed %d attempted %d failed %d checks %v", completed, o.attempted, o.failed, o.checkErrs)
	}
}

// TestCheckJobsResubmits: a resubmit sent after its original was seen
// done must come back cached with the original's result id.
func TestCheckJobsResubmits(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	done := func(id, rid string, cached bool, det int) service.ScanStatus {
		return service.ScanStatus{ID: id, ResultID: rid, State: service.StateDone, Cached: cached, Detections: det}
	}
	jobs := []plannedJob{
		{Class: classNarrowband, Key: "nb/1", Of: -1, Expect: 2},
		{Class: classResubmit, Key: "nb/1", Of: 0, Expect: 2}, // in flight: renders again
		{Class: classResubmit, Key: "nb/1", Of: 0, Expect: 2}, // after done: cached
	}
	recs := []*jobRecord{
		{Sent: at(0), Done: at(100), Code: 202, Status: done("j1", "r1", false, 2)},
		{Sent: at(10), Done: at(120), Code: 202, Status: done("j2", "r1", false, 2)},
		{Sent: at(200), Done: at(201), Code: 200, Status: done("j3", "r1", true, 2)},
	}
	o := newOutcome()
	checkJobs(o, jobs, recs, service.Stats{Shards: 10})
	if len(o.checkErrs) != 0 {
		t.Fatalf("clean run flagged: %v", o.checkErrs)
	}
	recs[2].Status.Cached = false
	recs[1].Status.ResultID = "r2"
	o = newOutcome()
	checkJobs(o, jobs, recs, service.Stats{Shards: 15})
	if len(o.checkErrs) != 2 || !strings.Contains(strings.Join(o.checkErrs, "\n"), "not served cached") {
		t.Fatalf("want a result-id and a cached failure, got %v", o.checkErrs)
	}
}

func TestScheduleIsSeededAndOpenLoop(t *testing.T) {
	refs := &refTables{Serve: map[string][]int{}}
	for _, c := range []string{classTiny, classNarrowband, classAdaptive} {
		refs.Serve[c] = make([]int, poolSize)
	}
	a := buildSchedule(7, 20*time.Second, serveRate, refs)
	b := buildSchedule(7, 20*time.Second, serveRate, refs)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d jobs", len(a), len(b))
	}
	for i := range a {
		if a[i].Due != b[i].Due || a[i].Key != b[i].Key || a[i].Req.Tenant != b[i].Req.Tenant {
			t.Fatalf("job %d differs between runs of one seed", i)
		}
	}
	if n := float64(len(a)); n < 0.8*20*serveRate || n > 1.2*20*serveRate {
		t.Errorf("%d arrivals in 20 s at %g/s", len(a), serveRate)
	}
	classes := map[string]int{}
	for i, j := range a {
		classes[j.Class]++
		if i > 0 && j.Due < a[i-1].Due {
			t.Fatalf("schedule not ordered by due time at %d", i)
		}
		if j.Class == classResubmit && (j.Of >= i || a[j.Of].Key != j.Key || a[j.Of].Class == classResubmit) {
			t.Fatalf("resubmit %d does not repeat an earlier fresh job", i)
		}
	}
	for _, c := range []string{classTiny, classNarrowband, classAdaptive, classResubmit} {
		if classes[c] == 0 {
			t.Errorf("no %s jobs in the mix", c)
		}
	}
	if c := buildSchedule(8, 20*time.Second, serveRate, refs); len(c) == len(a) && c[0].Due == a[0].Due {
		t.Error("different seeds gave the same schedule")
	}
}
