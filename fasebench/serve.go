package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"fase/internal/core"
	"fase/internal/obs"
	"fase/internal/service"
	"fase/internal/specan"
)

// Job classes of the served traffic mix.
const (
	classTiny       = "tiny"       // the load test's tinySpec: 20 captures of 256 points
	classNarrowband = "narrowband" // 250–550 kHz regulator campaign at 100 Hz
	classAdaptive   = "adaptive"   // 200–900 kHz, 2048-point segments, 30% budget
	classResubmit   = "resubmit"   // an earlier (config, seed) sent again
	classSurvey     = "survey"     // a survey campaign served once (traced survey runs)
)

const (
	// serveRate is the offered load in jobs per second. `fase serve
	// -workers 2` saturates at about 29 jobs/s of this mix on a 2-CPU
	// Intel Xeon host (generator and server sharing the CPUs): offered 32
	// and 44 jobs/s for 20 s, it completed 29.6 and 28.8 jobs/s with a
	// growing backlog. Over five seeds, 20 jobs/s (70%) spread job_p95_ms
	// by 0.70 of its median (IQR) and 14 jobs/s by 0.26; 12 jobs/s (about
	// 40%) held every latency and CPU figure within 0.07.
	serveRate = 12.0
	// serveWorkers is the server's shard-rendering fleet size.
	serveWorkers = 2
	// serveTenants submit the mix; each arrival picks one uniformly. The
	// spread over tenants is an assumption; at the offered rate a tenant
	// rarely has more than one job queued or running, so the per-tenant
	// quota (eight) never binds and the choice does not change the work.
	serveTenants = 4
	// poolSize bounds each class's scan-seed pool; refs.json pins every
	// pool entry's detection count.
	poolSize = 128
	// lateResubmit is how long after its original a "late" resubmit
	// comes due. Jobs of the mix at the offered rate finished within
	// 112-120 ms at p95 over five seeds, so 2 s is over ten times that:
	// the original has almost always finished and the resubmit is a
	// store read.
	lateResubmit = 2 * time.Second
	// pollEvery paces the status poller; it is the resolution of the
	// observed completion time.
	pollEvery = 10 * time.Millisecond
	// drainTimeout bounds the wait for jobs still in flight after the
	// last arrival.
	drainTimeout = 60 * time.Second

	adaptiveMaxFFT     = 2048
	adaptiveBudgetFrac = 0.3
)

// classWeights is the mix: arrivals of each class per block of 20.
//
// The three fresh classes get about equal shares of the server's CPU, so
// a change that speeds one class up by some factor moves cpu_ms_per_job
// about as much as the same change to another. Run alone at 12 jobs/s
// against `fase serve -workers 2` on a 2-CPU Intel Xeon host, each class
// cost the server 18 (tiny), 56 (narrowband) and 47 (adaptive) ms of CPU
// per job, mean of two runs of 240 jobs each; the weights are
// proportional to the inverse of those costs, rounded to 15 fresh
// arrivals per block, which gives shares of 35, 36 and 30%. One arrival
// in four is a resubmit; that share is an assumption, not measured
// traffic.
var classWeights = []struct {
	class string
	n     int
}{{classTiny, 9}, {classNarrowband, 3}, {classAdaptive, 3}, {classResubmit, 5}}

// poolBase offsets each class's scan seeds so classes never share one.
var poolBase = map[string]int64{classTiny: 1000, classNarrowband: 2000, classAdaptive: 3000}

// plannedJob is one arrival of the schedule.
type plannedJob struct {
	Class  string
	Due    time.Duration // offset from the session start
	Req    service.ScanRequest
	Key    string // identifies the (config, seed); resubmits share their original's
	Of     int    // for resubmits, the original's index
	Expect int    // detections the job must report
	// AfterDone sends the job once its original is observed done rather
	// than at Due (the traced survey runs' cached resubmit).
	AfterDone bool
}

// classRequest builds the submission of class's pool entry i.
func classRequest(class string, i int) service.ScanRequest {
	seed := poolBase[class] + int64(i)
	switch class {
	case classTiny:
		return service.ScanRequest{System: "i7-desktop", Scan: service.ScanSpec{
			F1: 300e3, F2: 360e3, Fres: 500, FAlt1: 43.3e3, FDelta: 500, Seed: seed}}
	case classNarrowband:
		return service.ScanRequest{System: "i7-desktop", Environment: true, Scan: service.ScanSpec{
			F1: 250e3, F2: 550e3, Fres: 100, FAlt1: 43.3e3, FDelta: 1e3, Seed: seed}}
	case classAdaptive:
		sp := service.ScanSpec{F1: 200e3, F2: 900e3, Fres: 100, FAlt1: 43.3e3, FDelta: 1e3,
			Seed: seed, MaxFFT: adaptiveMaxFFT, Adaptive: true}
		c := core.Campaign{F1: sp.F1, F2: sp.F2, Fres: sp.Fres, MaxFFT: sp.MaxFFT}
		sp.Budget = int(float64(exhaustiveCaptures(c)) * adaptiveBudgetFrac)
		return service.ScanRequest{System: "i7-desktop", Environment: true, Scan: sp}
	}
	panic("fasebench: no request for class " + class)
}

// exhaustiveCaptures prices the exhaustive raster of c (five ladder
// sweeps at four averages) without rendering.
func exhaustiveCaptures(c core.Campaign) int64 {
	an := specan.New(specan.Config{Fres: c.Fres, MaxFFT: c.MaxFFT})
	return 5 * an.SweepCaptures(c.F1, c.F2)
}

// buildSchedule draws the open-loop arrival schedule from the workload
// seed. It holds round(rate·span) arrivals, each due at a uniformly
// jittered point of its own 1/rate slot, so the offered rate is fixed.
// Classes come in blocks of mixBlock arrivals holding the mix of
// classWeights exactly, shuffled within each block: arrival order and
// timing vary with the seed, but no seed bunches heavy jobs the way a
// Poisson process with independent classes does, which would make a
// run's latency tail depend more on its seed than on the server. Each
// arrival's tenant is drawn uniformly. Fresh jobs take scan seeds from
// their class pool without replacement (wrapping only past poolSize). A
// resubmit repeats either the latest fresh job — usually still queued or
// running when it arrives — or one due at least lateResubmit earlier,
// usually finished, so its result is a store read. The two kinds are
// equally likely; that even split is an assumption, so that store reads
// and duplicates of running jobs weigh the same.
func buildSchedule(seed int64, span time.Duration, rate float64, refs *refTables) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * span.Seconds()))
	var block []string
	for _, cw := range classWeights {
		for k := 0; k < cw.n; k++ {
			block = append(block, cw.class)
		}
	}
	classes := make([]string, 0, n+len(block))
	for len(classes) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		classes = append(classes, block...)
	}
	classes = classes[:n]
	perms := map[string][]int{}
	used := map[string]int{}
	jobs := make([]plannedJob, 0, n)
	var fresh []int
	for k, class := range classes {
		due := time.Duration((float64(k) + rng.Float64()) / rate * float64(time.Second))
		tenant := fmt.Sprintf("tenant-%d", rng.Intn(serveTenants))
		if class == classResubmit && len(fresh) == 0 {
			class = classTiny
		}
		var j plannedJob
		if class == classResubmit {
			orig := fresh[len(fresh)-1]
			if rng.Intn(2) == 0 {
				var late []int
				for _, f := range fresh {
					if jobs[f].Due <= due-lateResubmit {
						late = append(late, f)
					}
				}
				if len(late) > 0 {
					orig = late[rng.Intn(len(late))]
				}
			}
			j = jobs[orig]
			j.Class, j.Of, j.Due = classResubmit, orig, due
		} else {
			if perms[class] == nil {
				perms[class] = rng.Perm(poolSize)
			}
			i := perms[class][used[class]%poolSize]
			used[class]++
			j = plannedJob{Class: class, Due: due, Req: classRequest(class, i),
				Key: fmt.Sprintf("%s/%d", class, i), Of: -1, Expect: refs.Serve[class][i]}
			fresh = append(fresh, len(jobs))
		}
		j.Req.Tenant = tenant
		jobs = append(jobs, j)
	}
	return jobs
}

// jobRecord is what the generator observed of one job.
type jobRecord struct {
	Due, Sent, Ack, Done time.Time
	Code                 int // submit HTTP status
	Status               service.ScanStatus
	Resolved             bool // reached a terminal state (or was refused)
	RunSeconds           float64
	done                 chan struct{}
}

// server is a running `fase serve` child.
type server struct {
	c     *child
	base  string
	dir   string
	setup time.Duration
}

// startServer spawns `fase serve` on a free port with a fresh run store
// and waits for the first 200 from /v1/stats: set-up time.
func startServer(cfg runConfig, client *http.Client, name string) (*server, error) {
	dir, err := os.MkdirTemp(cfg.scratch, name+"-runs-")
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(serveWorkers), "-runs-dir", dir}
	c, err := startChild(cfg.ctx, time.Now(), cfg.fase, args, nil)
	if err != nil {
		return nil, err
	}
	s := &server{c: c, dir: dir}
	var addr string
	for line := range c.lines {
		if rest, ok := strings.CutPrefix(line, "serve: listening on http://"); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		_, werr := c.wait()
		return nil, fmt.Errorf("fase serve exited without listening: %v", werr)
	}
	s.base = "http://" + addr
	for {
		if err := cfg.ctx.Err(); err != nil {
			s.stop()
			return nil, err
		}
		resp, err := client.Get(s.base + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(c.spawn)
				return s, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down with SIGTERM, reaps it, and removes its
// run store. `fase serve` answers requests before it installs its
// signal handler, so a SIGTERM sent right after set-up may end it by the
// default action instead of a graceful drain; that exit is not an error.
func (s *server) stop() (procStats, error) {
	_ = s.c.cmd.Process.Signal(syscall.SIGTERM)
	st, err := s.c.wait()
	_ = os.RemoveAll(s.dir)
	if ws, ok := s.c.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	return st, err
}

func newClient() *http.Client {
	conns := min(2, runtime.NumCPU())
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns}}
}

// serveSession runs jobs against a fresh `fase serve` and folds the
// results into o: end-to-end metrics on untraced runs, the service
// layer's metrics on traced ones. probes extra server spawns sample
// set-up time.
func serveSession(cfg runConfig, o *outcome, jobs []plannedJob, probes int) error {
	client := newClient()
	defer client.CloseIdleConnections()
	var setups []float64
	for i := 0; i < probes; i++ {
		s, err := startServer(cfg, client, "probe")
		if err != nil {
			return err
		}
		setups = append(setups, s.setup.Seconds())
		if _, err := s.stop(); err != nil {
			return err
		}
		client.CloseIdleConnections()
	}
	s, err := startServer(cfg, client, "serve")
	if err != nil {
		return err
	}
	setups = append(setups, s.setup.Seconds())
	rss0 := rssMB(s.c.cmd.Process.Pid)

	recs := make([]*jobRecord, len(jobs))
	for i := range recs {
		recs[i] = &jobRecord{done: make(chan struct{})}
	}
	start := time.Now()
	openLoop(cfg.ctx, client, s.base, jobs, recs, start)
	end := time.Now()
	for _, r := range recs {
		if r.Resolved && r.Done.After(end) {
			end = r.Done
		}
	}

	var stats service.Stats
	statsErr := getJSON(client, s.base+"/v1/stats", &stats)
	if cfg.tracer != nil {
		fetchRunTimes(client, s.base, recs)
	}
	rss1 := rssMB(s.c.cmd.Process.Pid)
	st, err := s.stop()
	if err != nil {
		o.fail("fase serve: %v", err)
	}
	if statsErr != nil {
		return fmt.Errorf("stats: %w", statsErr)
	}

	completed := checkJobs(o, jobs, recs, stats)
	var lat, lags []float64
	latByClass := map[string][]float64{}
	for i, r := range recs {
		if !r.Sent.IsZero() {
			lags = append(lags, ms(r.Sent.Sub(r.Due)))
		}
		if r.Status.State != service.StateDone {
			continue
		}
		lat = append(lat, ms(r.Done.Sub(r.Due)))
		latByClass[jobs[i].Class] = append(latByClass[jobs[i].Class], ms(r.Done.Sub(r.Due)))
		// A job's span runs from due to observed done; its children are
		// the generator's lag, the submit round trip, and the wait for
		// completion.
		id := r.Status.ID
		root := cfg.tracer.Add("job."+jobs[i].Class, 0, id, r.Due, r.Done)
		cfg.tracer.Add("loadgen.lag", root, id, r.Due, r.Sent)
		cfg.tracer.Add("service.submit", root, id, r.Sent, r.Ack)
		cfg.tracer.Add("service.await", root, id, r.Ack, r.Done)
	}
	if cfg.tracer == nil {
		o.metrics.set("wall_s", end.Sub(start).Seconds(), "s")
		o.metrics.set("cpu_s", st.CPU().Seconds(), "s")
		o.metrics.set("peak_rss_mb", st.MaxRSSMB, "MB")
		o.setSetup(setups)
		o.setJobLatency(lat)
		o.metrics.set("cpu_ms_per_job", ms(st.CPU())/float64(max(completed, 1)), "ms")
		o.notef("%d jobs over %.1f s at %.0f jobs/s offered; %d completed, %d cached; generator lag p50 %.2f ms",
			len(jobs), end.Sub(start).Seconds(), serveRate, completed, stats.Cached, median(lags))
		o.notef("wall_s here is the schedule's span plus the drain, not a server cost; job_p50_ms and job_p95_ms carry the latency")
		o.notef("server user %.2f s, sys %.2f s, %d minor faults", st.User.Seconds(), st.Sys.Seconds(), st.MinFlt)
		_, tail := tailPercentile(lat)
		for _, class := range []string{classTiny, classNarrowband, classAdaptive, classResubmit} {
			xs := latByClass[class]
			if len(xs) == 0 {
				continue
			}
			inTail := 0
			for _, x := range xs {
				if x >= tail {
					inTail++
				}
			}
			o.notef("%s: %d jobs, latency p25 %.1f ms, p50 %.1f ms, p75 %.1f ms; %d at or above job_p95_ms",
				class, len(xs), nearestRank(xs, 25), median(xs), nearestRank(xs, 75), inTail)
		}
		return nil
	}
	serviceLayer(o, jobs, recs, stats, completed)
	p, lag := tailPercentile(lags)
	o.metrics.set("loadgen.lag_p95_ms", lag, "ms")
	o.metrics.set("service.rss_growth_mb", rss1-rss0, "MB")
	o.notef("generator lag p%d of %d sends", p, len(lags))
	// A traced survey run has already charged its scan process here.
	if _, ok := o.metrics["proc.sys_s"]; !ok {
		o.metrics.set("proc.sys_s", st.Sys.Seconds(), "s")
		o.metrics.set("proc.minor_faults", float64(st.MinFlt), "count")
	}
	return nil
}

// openLoop sends every job at its due time on one goroutine while a
// second polls outstanding jobs until each reaches a terminal state.
// Latency is timed from the due time, so a stall in the generator or the
// server is charged to every job it delays.
func openLoop(ctx context.Context, client *http.Client, base string, jobs []plannedJob, recs []*jobRecord, start time.Time) {
	if len(jobs) == 0 {
		return
	}
	// Giving up on the drain stops the sender too.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pending := make(chan int, len(jobs)) // every job is sent at most once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pending)
		for i, j := range jobs {
			r := recs[i]
			r.Due = start.Add(j.Due)
			if j.AfterDone {
				select {
				case <-recs[j.Of].done:
				case <-ctx.Done():
				}
				r.Due = time.Now()
			}
			if d := time.Until(r.Due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil {
				r.resolve(time.Now())
				continue
			}
			r.Sent = time.Now()
			code, st, err := postJSON(client, base+"/v1/scans", &j.Req)
			r.Ack = time.Now()
			r.Code, r.Status = code, st
			switch {
			case err != nil || (code != http.StatusOK && code != http.StatusAccepted):
				r.resolve(r.Ack)
			case terminalState(st.State):
				r.resolve(r.Ack)
			default:
				pending <- i
			}
		}
	}()
	deadline := time.Now().Add(jobs[len(jobs)-1].Due + drainTimeout)
	var inflight []int
	open := true
	for open || len(inflight) > 0 {
		tick := time.Now()
	drain:
		for open {
			select {
			case i, ok := <-pending:
				if !ok {
					open = false
					break drain
				}
				inflight = append(inflight, i)
			default:
				break drain
			}
		}
		keep := inflight[:0]
		for _, i := range inflight {
			r := recs[i]
			var st service.ScanStatus
			if err := getJSON(client, base+"/v1/scans/"+r.Status.ID, &st); err == nil {
				r.Status = st
				if terminalState(st.State) {
					r.resolve(time.Now())
					continue
				}
			}
			keep = append(keep, i)
		}
		inflight = keep
		if time.Now().After(deadline) || ctx.Err() != nil {
			for _, i := range inflight {
				recs[i].resolve(time.Time{}) // never observed done
			}
			cancel()
			break
		}
		time.Sleep(time.Until(tick.Add(pollEvery)))
	}
	wg.Wait()
	for i := range pending { // sent after the poller gave up
		recs[i].resolve(time.Time{})
	}
}

func (r *jobRecord) resolve(t time.Time) {
	r.Done = t
	r.Resolved = !t.IsZero()
	close(r.done)
}

// checkJobs applies the service correctness checks and counts failures:
// every admitted job completes; each rendered exhaustive job ran its five
// ladder shards; a resubmit carries its original's result id and, when
// the original was observed done before it was sent, comes back cached;
// and the detection total matches the references exactly.
func checkJobs(o *outcome, jobs []plannedJob, recs []*jobRecord, stats service.Stats) (completed int) {
	firstDone := map[string]time.Time{}
	resultID := map[string]string{}
	var wantShards int64
	gotDet, wantDet := 0, 0
	for i, j := range jobs {
		r := recs[i]
		o.attempted++
		if r.Code == http.StatusTooManyRequests || r.Code == http.StatusServiceUnavailable {
			o.failOp("job %d (%s): refused with %d", i, j.Class, r.Code)
			continue
		}
		if r.Status.State != service.StateDone {
			o.fail("job %d (%s): submit %d, state %q %s", i, j.Class, r.Code, r.Status.State, r.Status.Error)
			continue
		}
		completed++
		if id, ok := resultID[j.Key]; ok && id != r.Status.ResultID {
			o.fail("job %d (%s): result id %s, original's %s", i, j.Class, r.Status.ResultID, id)
		}
		if t, ok := firstDone[j.Key]; ok && t.Before(r.Sent) && !r.Status.Cached {
			o.fail("job %d (%s): resubmitted after its original completed but not served cached", i, j.Class)
		}
		if _, ok := resultID[j.Key]; !ok {
			resultID[j.Key] = r.Status.ResultID
		}
		if t, ok := firstDone[j.Key]; !ok || r.Done.Before(t) {
			firstDone[j.Key] = r.Done
		}
		if !r.Status.Cached && !j.Req.Scan.Adaptive {
			wantShards += 5
		}
		gotDet += r.Status.Detections
		wantDet += j.Expect
	}
	if stats.Shards != wantShards {
		o.fail("server ran %d shards, want %d (5 per rendered exhaustive job)", stats.Shards, wantShards)
	}
	if gotDet != wantDet {
		o.fail("detection total %d, reference %d", gotDet, wantDet)
	}
	return completed
}

// fetchRunTimes reads each rendered job's archived manifest for the
// wall time its run took inside the server.
func fetchRunTimes(client *http.Client, base string, recs []*jobRecord) {
	for _, r := range recs {
		if r.Status.State != service.StateDone || r.Status.Cached {
			continue
		}
		var m obs.Manifest
		if err := getJSON(client, base+"/v1/scans/"+r.Status.ID+"/result", &m); err == nil {
			r.RunSeconds = m.TotalWallSeconds
		}
	}
}

// serviceLayer derives the service path's per-layer metrics from what
// the generator observed: submit round trip, run time inside the server
// (from the archived manifest), and the rest of each job's latency, which
// is time spent waiting in the queue or for a worker.
func serviceLayer(o *outcome, jobs []plannedJob, recs []*jobRecord, stats service.Stats, completed int) {
	var submit, cachedMS, wait, run []float64
	byClass := map[string][]float64{}
	seen := map[string]bool{}
	dups := 0
	for i, r := range recs {
		j := jobs[i]
		if r.Status.State != service.StateDone {
			continue
		}
		submit = append(submit, ms(r.Ack.Sub(r.Sent)))
		if seen[j.Key] && !r.Status.Cached {
			dups++
		}
		seen[j.Key] = true
		if r.Status.Cached {
			cachedMS = append(cachedMS, ms(r.Ack.Sub(r.Sent)))
			continue
		}
		runMS := r.RunSeconds * 1e3
		run = append(run, runMS)
		byClass[j.Class] = append(byClass[j.Class], runMS)
		wait = append(wait, max(0, ms(r.Done.Sub(r.Ack))-runMS))
	}
	o.metrics.set("service.submit_ms", median(submit), "ms")
	o.metrics.set("service.queue_wait_ms", median(wait), "ms")
	o.metrics.set("service.run_ms", median(run), "ms")
	o.metrics.set("service.cached_ms", median(cachedMS), "ms")
	o.metrics.set("service.cached_frac", float64(stats.Cached)/float64(max(completed, 1)), "frac")
	o.metrics.set("service.dup_renders", float64(dups), "count")
	o.metrics.set("service.refused", float64(stats.Rejected), "count")
	for _, class := range []string{classTiny, classNarrowband, classAdaptive, classResubmit, classSurvey} {
		if xs := byClass[class]; len(xs) > 0 {
			o.notef("service.run_ms %s: median %.2f ms over %d rendered jobs", class, median(xs), len(xs))
		}
	}
}

func postJSON(client *http.Client, url string, body any) (int, service.ScanStatus, error) {
	var st service.ScanStatus
	b, err := json.Marshal(body)
	if err != nil {
		return 0, st, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, st, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(data, &st)
	}
	return resp.StatusCode, st, err
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runServeMix is the untraced serve_mix run: the open-loop mix against
// `fase serve -workers 2`, with set-up sampled on extra spawns.
func runServeMix(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	jobs := buildSchedule(cfg.seed, cfg.seconds, serveRate, cfg.refs)
	if err := serveSession(cfg, o, jobs, setupProbes); err != nil {
		return nil, err
	}
	return o, nil
}

// traceServeMix is the traced serve_mix run: the same session with the
// generator's spans kept, then every engine layer timed in process on
// the mix's narrowband campaign (its adaptive variant is the adaptive
// class itself).
func traceServeMix(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	jobs := buildSchedule(cfg.seed, cfg.seconds, serveRate, cfg.refs)
	if err := serveSession(cfg, o, jobs, 0); err != nil {
		return nil, err
	}
	nb, err := requestCampaign(classRequest(classNarrowband, 0), cfg.seed)
	if err != nil {
		return nil, err
	}
	ad, err := requestCampaign(classRequest(classAdaptive, 0), cfg.seed)
	if err != nil {
		return nil, err
	}
	nb.Parallelism = 0 // in process, render on every CPU as the CLI does
	in := layerInput{System: "i7-desktop", Environment: true, Campaign: nb, Adaptive: ad, Dir: cfg.scratch}
	return o, measureLayers(in, cfg.tracer, o)
}

// requestCampaign converts a submission into the campaign the service
// runs for it, reseeded.
func requestCampaign(req service.ScanRequest, seed int64) (core.Campaign, error) {
	req.Scan.Seed = seed
	return req.Campaign()
}

// terminalState reports whether a job state is final.
func terminalState(state string) bool {
	return state == service.StateDone || state == service.StateFailed || state == service.StateCancelled
}
