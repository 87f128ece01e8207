package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fase/internal/core"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/microbench"
	"fase/internal/obs"
	"fase/internal/runstore"
	"fase/internal/specan"
)

// layerInput is the campaign whose layers a traced run times in process:
// the workload's own campaign, so every layer figure is at the
// workload's geometry.
type layerInput struct {
	System      string
	Environment bool
	Campaign    core.Campaign // exhaustive, seeded
	Adaptive    core.Campaign // the adaptive variant, seeded
	Dir         string        // scratch for manifest, journal and store
}

// kernelReps is how many times each single-call layer is timed; the
// median is reported.
const kernelReps = 5

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// measureLayers times every layer of the engine on in.Campaign by calling
// each layer's public functions from here, wrapping each call in a span.
// It adds no instrumentation to the program; the counters it reads are
// the ones the run manifest already exports.
func measureLayers(in layerInput, tr *Tracer, o *outcome) error {
	out := o.metrics
	sys, err := machine.Lookup(in.System)
	if err != nil {
		return err
	}
	c := in.Campaign
	scene := sys.Scene(c.Seed, in.Environment)

	// Same path untraced and traced, after an untimed warm-up (the first
	// campaign in a process pays for growing the heap) and interleaved:
	// the wall-time ratio is the tracing overhead.
	if _, err := (&core.Runner{Scene: scene}).RunE(c); err != nil {
		return err
	}
	var untraced, traced []float64
	var res *core.Result
	var run *obs.Run
	var stages pipelineStages
	for i := 0; i < 2; i++ {
		runtime.GC()
		t0 := time.Now()
		r0, err := (&core.Runner{Scene: scene}).RunE(c)
		if err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		runtime.GC()
		t0 = time.Now()
		res, run, stages, err = tracedCampaign(scene, c, tr)
		if err != nil {
			return err
		}
		traced = append(traced, time.Since(t0).Seconds())
		if len(r0.Detections) != len(res.Detections) {
			return fmt.Errorf("traced campaign found %d detections, untraced %d", len(res.Detections), len(r0.Detections))
		}
	}
	out.set("obs.trace_overhead_frac", median(traced)/median(untraced)-1, "frac")
	// The campaign's wall is measured apart from its stages, on the
	// untraced path, so a stage the three spans miss shows as a gap.
	out.set("core.campaign_s", median(untraced), "s")
	stageSum := (stages.plan + stages.sweeps + stages.reduce).Seconds()
	o.notef("core.plan+sweeps+reduce %.4f s: %.1f%% of the traced campaign's whole call (%.4f s), %.1f%% of the untraced campaign (%.4f s)",
		stageSum, 100*stageSum/traced[len(traced)-1], traced[len(traced)-1], 100*stageSum/median(untraced), median(untraced))
	out.set("core.plan_ms", ms(stages.plan), "ms")
	out.set("core.sweeps_s", stages.sweeps.Seconds(), "s")
	out.set("core.reduce_ms", ms(stages.reduce), "ms")
	for _, st := range run.Stages() {
		switch st.Name {
		case "smooth":
			out.set("core.smooth_ms", st.WallSeconds*1e3, "ms")
		case "score":
			out.set("core.score_ms", st.WallSeconds*1e3, "ms")
		}
	}
	out.set("core.detections", float64(len(res.Detections)), "count")

	m := run.Manifest()
	if m == nil {
		return fmt.Errorf("traced campaign produced no manifest")
	}
	out.set("specan.captures", float64(m.Captures), "count")
	pl := m.Planner
	out.set("specan.static_hit_ratio", ratio(pl.StaticCacheHits, pl.StaticCacheHits+pl.StaticCacheMisses), "frac")
	out.set("specan.plan_skip_ratio", ratio(pl.ComponentsSkipped, pl.ComponentsActive+pl.ComponentsSkipped), "frac")
	out.set("specan.render_share", m.RenderSeconds/(m.RenderSeconds+m.FFTSeconds), "frac")

	if err := perJobCosts(in, c, m, run, tr, out); err != nil {
		return err
	}
	if err := renderLayers(sys, scene, c, m, tr, out); err != nil {
		return err
	}

	runtime.GC()
	id := tr.Begin("core.adaptive", 0)
	t0 := time.Now()
	ares, err := (&core.Runner{Scene: scene}).RunE(in.Adaptive)
	if err != nil {
		return fmt.Errorf("adaptive campaign: %w", err)
	}
	out.set("core.adaptive_ms", ms(time.Since(t0)), "ms")
	tr.End(id)
	if ares.Adaptive == nil || ares.Adaptive.ExhaustiveCaptures == 0 {
		return fmt.Errorf("adaptive campaign reported no spend record")
	}
	out.set("core.adaptive_spend_ratio", ratio(ares.Adaptive.CapturesUsed, ares.Adaptive.ExhaustiveCaptures), "frac")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pipelineStages are the campaign pipeline's three blocking steps.
type pipelineStages struct{ plan, sweeps, reduce time.Duration }

// tracedCampaign runs an exhaustive campaign through the shard API the
// CLI and the service share (PlanShards, Begin, RenderShard, ReduceShards)
// with an obs.Run attached, so the manifest's counters describe it.
func tracedCampaign(scene *emsim.Scene, c core.Campaign, tr *Tracer) (*core.Result, *obs.Run, pipelineStages, error) {
	var st pipelineStages
	run := obs.NewRun()
	run.Journal = obs.NewJournal()
	runner := &core.Runner{Scene: scene, Obs: run}
	root := tr.Begin("core.campaign", 0)
	t0 := time.Now()

	id := tr.Begin("core.plan", root)
	p, err := core.PlanShards(c)
	if err != nil {
		return nil, nil, st, err
	}
	an := specan.New(p.AnalyzerConfig(run))
	p.Begin(an, run)
	tr.End(id)
	t1 := time.Now()

	id = tr.Begin("core.sweeps", root)
	ms := make([]core.Measurement, len(p.FAlts))
	var wg sync.WaitGroup
	for i := range p.FAlts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sid := tr.Begin("core.render_shard", id)
			ms[i] = runner.RenderShard(nil, an, p, i, run, obs.Span{})
			tr.End(sid)
		}(i)
	}
	wg.Wait()
	tr.End(id)
	t2 := time.Now()

	id = tr.Begin("core.reduce", root)
	res, err := runner.ReduceShards(p, ms, run, obs.Span{})
	if err != nil {
		return nil, nil, st, err
	}
	tr.End(id)
	t3 := time.Now()
	tr.End(root)
	st = pipelineStages{plan: t1.Sub(t0), sweeps: t2.Sub(t1), reduce: t3.Sub(t2)}
	return res, run, st, nil
}

// perJobCosts times the fixed costs every served job pays once: its
// micro-benchmark trace, manifest and journal writes, and the run-store
// write and lookup.
func perJobCosts(in layerInput, c core.Campaign, m *obs.Manifest, run *obs.Run, tr *Tracer, out metrics) error {
	var err error
	span := func(name, metric string, fn func()) {
		id := tr.Begin(name, 0)
		out.set(metric, ms(timeMedian(kernelReps, fn)), "ms")
		tr.End(id)
	}
	an := specan.New(specan.Config{Fres: c.Fres, MaxFFT: c.MaxFFT})
	dur := an.TotalDuration(c.F1, c.F2) + 0.05
	span("microbench.generate", "microbench.trace_ms", func() {
		microbench.Generate(ladderTraceConfig(c), dur)
	})
	span("obs.manifest_write", "obs.manifest_write_ms", func() {
		if e := m.WriteFile(filepath.Join(in.Dir, "manifest.json")); e != nil {
			err = e
		}
	})
	span("obs.journal_write", "obs.journal_write_ms", func() {
		if e := run.Journal.WriteJSONLFile(filepath.Join(in.Dir, "events.jsonl")); e != nil {
			err = e
		}
	})
	emitted, _ := run.Journal.Stats()
	out.set("obs.journal_events", float64(emitted), "count")
	store, e := runstore.Open(filepath.Join(in.Dir, "store"))
	if e != nil {
		return e
	}
	var entry runstore.Entry
	span("runstore.add", "runstore.add_ms", func() {
		if entry, e = store.Add(m); e != nil {
			err = e
		}
	})
	span("runstore.resolve", "runstore.resolve_ms", func() {
		if _, _, e := store.Resolve(entry.Path); e != nil {
			err = e
		}
	})
	return err
}

// ladderTraceConfig is the micro-benchmark configuration of the
// campaign's first ladder sweep, as core.RenderShard builds it.
func ladderTraceConfig(c core.Campaign) microbench.Config {
	return microbench.Config{X: c.X, Y: c.Y, FAlt: c.FAlt1, Jitter: microbench.DefaultJitter(), Seed: c.Seed}
}

// renderLayers times the render kernels, the static-layer build, the
// periodogram and one analyzer sweep at the campaign's capture geometry
// (read from the manifest's planner segments), with the first ladder
// sweep's activity trace loaded.
func renderLayers(sys *machine.System, scene *emsim.Scene, c core.Campaign, m *obs.Manifest, tr *Tracer, out metrics) error {
	// Concurrent first uses of a segment may each record its plan, so the
	// manifest can list a geometry more than once.
	var segs []obs.SegmentPlan
	seen := map[obs.SegmentPlan]bool{}
	for _, sg := range m.Planner.Segments {
		sg.Active, sg.Skipped = 0, 0
		if !seen[sg] {
			seen[sg] = true
			segs = append(segs, sg)
		}
	}
	if len(segs) == 0 {
		return fmt.Errorf("manifest lists no planner segments")
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].CenterHz < segs[j].CenterHz })
	an := specan.New(specan.Config{Fres: c.Fres, MaxFFT: c.MaxFFT})
	trace := microbench.Generate(ladderTraceConfig(c), an.TotalDuration(c.F1, c.F2)+0.05)
	seg := segs[0]
	band := emsim.Band{Center: seg.CenterHz, SampleRate: seg.SampleRate}
	n := seg.Samples
	buf := make([]complex128, n)
	capture := emsim.Capture{Band: band, N: n, Seed: c.Seed, Activity: trace}

	single := func(name, metric string, comps ...emsim.Component) {
		id := tr.Begin(name, 0)
		var total time.Duration
		for _, comp := range comps {
			one := &emsim.Scene{}
			one.Add(comp)
			total += timeMedian(kernelReps, func() { one.RenderInto(buf, capture) })
		}
		out.set(metric, ms(total), "ms")
		tr.End(id)
	}
	var regs []emsim.Component
	for _, r := range []*machine.SwitchingRegulator{sys.MemRegulator, sys.MemCtlRegulator, sys.CoreRegulator} {
		if r != nil {
			regs = append(regs, r)
		}
	}
	single("machine.regulators", "machine.regulator_ms", regs...)
	single("machine.refresh", "machine.refresh_ms", sys.Refresh)
	single("machine.ssc", "machine.ssc_ms", sys.DRAMClock)

	full := capture
	full.Plan = scene.Plan(band, n)
	id := tr.Begin("emsim.render_capture", 0)
	out.set("emsim.render_capture_ms", ms(timeMedian(kernelReps, func() { scene.RenderInto(buf, full) })), "ms")
	tr.End(id)

	// The periodogram transforms in place, so each rep gets a fresh copy
	// of the rendered capture, made outside the timed call.
	spec := &spectral.Spectrum{PmW: make([]float64, n)}
	work := make([]complex128, n)
	id = tr.Begin("dsp.periodogram", 0)
	ds := make([]float64, kernelReps)
	for i := range ds {
		copy(work, buf)
		t0 := time.Now()
		spectral.PeriodogramInPlace(spec, work, band.SampleRate, band.Center, window.BlackmanHarris)
		ds[i] = float64(time.Since(t0))
	}
	out.set("dsp.periodogram_ms", ms(time.Duration(median(ds))), "ms")
	tr.End(id)

	// The static layer of every capture identity of one sweep — what the
	// campaign's cache holds — built as specan builds it: capture k of
	// the sweep starts at k/fres with seed Seed + 7919·k, and segment
	// k/Averages. The heap delta across the builds, with the sets still
	// reachable, is static_mb.
	perSweep := int(m.Captures) / len(c.FAlts())
	averages := perSweep / len(segs)
	if averages == 0 {
		return fmt.Errorf("manifest: %d captures over %d segments", m.Captures, len(segs))
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sets := make([]*emsim.StaticSet, 0, perSweep)
	builds := make([]float64, 0, perSweep)
	id = tr.Begin("emsim.build_static", 0)
	for k := 0; k < perSweep; k++ {
		sg := segs[k/averages]
		b := emsim.Band{Center: sg.CenterHz, SampleRate: sg.SampleRate}
		cp := emsim.Capture{Band: b, N: sg.Samples, Start: float64(k) / c.Fres,
			Seed: c.Seed + int64(k)*7919, Activity: trace, Plan: scene.Plan(b, sg.Samples)}
		t0 := time.Now()
		sets = append(sets, scene.BuildStaticSet(cp))
		builds = append(builds, float64(time.Since(t0)))
	}
	tr.End(id)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sets)
	out.set("emsim.static_build_ms", ms(time.Duration(median(builds))), "ms")
	out.set("emsim.static_mb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "MB")

	runtime.GC()
	cfg := specan.Config{Fres: c.Fres, MaxFFT: c.MaxFFT, ReuseStatic: true}
	id = tr.Begin("specan.sweep", 0)
	t0 := time.Now()
	specan.New(cfg).Sweep(specan.Request{Scene: scene, F1: c.F1, F2: c.F2, Activity: trace, Seed: c.Seed})
	out.set("specan.sweep_s", time.Since(t0).Seconds(), "s")
	tr.End(id)
	return nil
}
