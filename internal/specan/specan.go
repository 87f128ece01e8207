// Package specan models the measurement instrument of the paper's setup —
// the Agilent MXA spectrum analyzer behind the loop antenna.
//
// A sweep over [f1, f2] is performed in band segments: each segment is a
// complex-baseband capture rendered by the scene, windowed, transformed,
// amplitude-calibrated (see package spectral) and trace-averaged; segments
// are stitched into one spectrum whose bins land exactly on the global
// f1 + k·fres grid.
package specan

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"fase/internal/activity"
	"fase/internal/dsp/bufpool"
	"fase/internal/dsp/fft"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
	"fase/internal/emsim"
	"fase/internal/obs"
)

// Process-wide analyzer counters; per-run attribution goes through
// Config.Obs. The two histograms receive samples only while a run is
// attached, so the uninstrumented hot path never reads the clock.
var (
	sweepsTotal       = obs.Default.Counter(obs.MetricSweeps)
	capturesTotal     = obs.Default.Counter(obs.MetricSpecanCaptures)
	planHitsTotal     = obs.Default.Counter(obs.MetricSpecanPlanHits)
	planMissesTotal   = obs.Default.Counter(obs.MetricSpecanPlanMisses)
	staticHitsTotal   = obs.Default.Counter(obs.MetricStaticCacheHits)
	staticMissesTotal = obs.Default.Counter(obs.MetricStaticCacheMisses)
	renderSeconds     = obs.Default.Histogram(obs.MetricRenderSeconds, obs.ExpBuckets(1e-5, 4, 12))
	fftSeconds        = obs.Default.Histogram(obs.MetricFFTSeconds, obs.ExpBuckets(1e-5, 4, 12))
)

// Config tunes the analyzer.
type Config struct {
	// Fres is the resolution bandwidth (bin spacing), Hz.
	Fres float64
	// Averages is the number of traces averaged per segment (the paper
	// averages 4 captures, §3). Zero means 4.
	Averages int
	// Window selects the FFT window. The zero value (window.Default)
	// selects Blackman-Harris, whose -92 dB side lobes keep strong AM
	// stations from burying the µW-level system signals; every concrete
	// window — including window.Rectangular — is honored as given.
	Window window.Type
	// MaxFFT caps the per-segment transform size (power of two). Zero
	// means 1<<17.
	MaxFFT int
	// UsableFrac is the fraction of each segment's bandwidth kept after
	// discarding band edges. Zero means 0.75.
	UsableFrac float64
	// Parallelism bounds how many captures the analyzer renders and
	// transforms concurrently, across all Sweep calls sharing this
	// analyzer. Zero (or negative) means runtime.GOMAXPROCS(0). The
	// result is bit-identical for every setting: captures are seeded by
	// their sweep position and reduced in a fixed order, so parallelism
	// changes only wall-clock time, never output.
	Parallelism int
	// NoPlan disables per-segment render planning (see emsim.RenderPlan):
	// every capture then walks every scene component with no precomputed
	// state. Planned and unplanned rendering are bit-identical by design —
	// this is a debugging escape hatch for isolating the planner, not a
	// result-changing switch.
	NoPlan bool
	// ReuseStatic enables the campaign-scoped static render cache: the
	// activity-independent layer of each capture identity (segment band,
	// length, seed, start time, probe placement — see emsim.StaticSet) is
	// built once and replayed by every sweep on this analyzer that renders
	// the same identity. Profitable exactly when sweeps share Seed and
	// differ only in activity, as a campaign's alternation sweeps do.
	// Replay is bit-identical to live rendering at any Parallelism; the
	// default (off) renders every capture live, the reference the
	// equivalence tests compare the cache against.
	ReuseStatic bool
	// NoSegment disables run-length segmentation in load-following
	// renderers: captures then walk the activity trace sample by sample
	// (see emsim.Context.NoSegment). Segmented and per-sample rendering
	// are bit-identical by contract — this is the reference the
	// equivalence tests compare segmentation against.
	NoSegment bool
	// Faults, when non-nil, deterministically degrades every rendered
	// capture before its FFT (see emsim.FaultPlan): dropped/truncated
	// traces, ADC clipping, burst interferers, added noise. Nil — the
	// default — leaves the capture path untouched and allocation-free; the
	// accuracy harness (internal/verify) uses this to stress the unchanged
	// FASE algorithm.
	Faults *emsim.FaultPlan
	// Meter, when non-nil, charges every rendered capture against a hard
	// measurement budget (see Meter). The analyzer only accounts — it
	// never refuses a sweep; admission control is the planner's job via
	// Meter.Reserve before each Sweep call. Nil (the default) keeps the
	// capture path meter-free.
	Meter *Meter
	// Obs, when non-nil, attaches run-level observability: per-capture
	// render/FFT timing and plan-cache statistics. A nil Obs (the
	// default) keeps the hot path allocation-free, and instrumentation
	// never changes rendered output (enforced by the equivalence tests).
	Obs *obs.Run
}

func (c Config) withDefaults() Config {
	if c.Averages == 0 {
		c.Averages = 4
	}
	if c.Window == window.Default {
		c.Window = window.BlackmanHarris
	}
	if c.MaxFFT == 0 {
		c.MaxFFT = 1 << 17
	}
	if c.UsableFrac == 0 {
		c.UsableFrac = 0.75
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Fres <= 0 {
		panic(fmt.Sprintf("specan: resolution bandwidth must be positive, got %g", c.Fres))
	}
	return c
}

// Analyzer performs swept spectrum measurements of a scene. One analyzer
// may serve concurrent Sweep calls; its Parallelism budget is shared
// between them, so e.g. the five f_alt sweeps of a FASE measurement never
// oversubscribe the machine.
type Analyzer struct {
	cfg Config
	// sem is the capture-level concurrency budget shared by all sweeps on
	// this analyzer.
	sem chan struct{}
	// caches is shared with every Serial view of the analyzer.
	*caches
}

// caches is the state an analyzer shares with its Serial views.
type caches struct {
	// plans caches render plans per segment geometry (planKey). Segment
	// geometry is identical across a sweep's averages and across the
	// NumAlts sweeps of a campaign sharing this analyzer, so each segment's
	// component culling and per-component preparation happens once, not
	// once per capture.
	plans sync.Map
	// statics caches built static layers per capture identity (staticKey)
	// when Config.ReuseStatic is set.
	statics staticCache
	// arena retains capture and bin buffers for the analyzer's lifetime:
	// the process-wide bufpool can lose its contents to a garbage
	// collection between sweeps, but a campaign's analyzer re-renders the
	// same geometry for every alternation sweep, so pinning the buffers
	// here keeps repeated sweeps allocation-free end to end.
	arena bufpool.Arena
}

// staticKey is the full capture identity a cached static layer is valid
// for — unlike planKey it includes seed, start time, and probe placement,
// because the static layer bakes in the components' PRNG streams.
type staticKey struct {
	scene      *emsim.Scene
	center, fs float64
	n          int
	seed       int64
	start      float64
	nearField  bool
	nearGainDB float64
}

// staticCache is an analyzer's static-layer render cache (see
// Config.ReuseStatic). A plain struct-keyed map behind an RWMutex rather
// than a sync.Map: warm lookups then neither box the key nor allocate,
// keeping the steady-state sweep allocation-free. Each identity holds a
// bucket keyed by the capture's conditional-static key (empty for sets
// with no conditional layer), so sweeps under different window-constant
// loads cache distinct sets side by side.
type staticCache struct {
	mu sync.RWMutex
	m  map[staticKey]*staticBucket
}

// staticEntry is one cache slot. The sync.Once serializes the build so
// concurrent first renders of an identity (Parallelism > 1, or Serial
// views of one analyzer on several workers) share one BuildStaticSet
// instead of racing duplicate work.
type staticEntry struct {
	once sync.Once
	set  *emsim.StaticSet
}

// staticBucket holds one capture identity's cached sets, keyed by
// conditional-static key. Lookups index the map with string(b) on a
// pooled byte slice, which Go compiles without materializing a string, so
// warm hits stay allocation-free.
type staticBucket struct {
	mu     sync.RWMutex
	byCond map[string]*staticEntry
}

// condKeyBuf is the pooled scratch for computing a capture's
// conditional-static key (see emsim.Scene.AppendCondStaticKey).
type condKeyBuf struct{ b []byte }

var condKeyPool = sync.Pool{New: func() any { return &condKeyBuf{b: make([]byte, 0, 64)} }}

// planKey identifies a segment's render geometry. Near-field settings are
// deliberately absent: plans hold only geometry (active subsets, harmonic
// lists, rotation phasors, noise densities), none of which depends on the
// probe model.
type planKey struct {
	scene      *emsim.Scene
	center, fs float64
	n          int
}

// planEntry is one plan-cache slot. The sync.Once makes concurrent first
// uses of a segment share one Scene.Plan, so each segment's plan is built,
// counted and recorded once at any parallelism and the run's planner
// statistics (plan_skip_ratio among them) repeat exactly.
type planEntry struct {
	once sync.Once
	plan *emsim.RenderPlan
}

// planFor returns the cached render plan for a segment, computing it on
// first use.
func (a *Analyzer) planFor(scene *emsim.Scene, band emsim.Band, n int) *emsim.RenderPlan {
	if a.cfg.NoPlan {
		return nil
	}
	key := planKey{scene: scene, center: band.Center, fs: band.SampleRate, n: n}
	v, ok := a.plans.Load(key)
	if !ok {
		v, _ = a.plans.LoadOrStore(key, &planEntry{})
	}
	e := v.(*planEntry)
	hit := true
	e.once.Do(func() {
		hit = false
		e.plan = scene.Plan(band, n)
		planMissesTotal.Inc()
		if run := a.cfg.Obs; run != nil {
			run.PlanCacheMisses.Inc()
			run.RecordPlan(band.Center, band.SampleRate, n,
				e.plan.ActiveCount(), len(scene.Components)-e.plan.ActiveCount())
		}
	})
	if hit {
		planHitsTotal.Inc()
		if run := a.cfg.Obs; run != nil {
			run.PlanCacheHits.Inc()
		}
	}
	return e.plan
}

// staticFor returns the cached static layer for a capture identity,
// building it on first use (nil when the scene has nothing cacheable for
// the geometry — the entry still caches that answer).
func (a *Analyzer) staticFor(req Request, band emsim.Band, n int, seed int64, start float64, plan *emsim.RenderPlan) *emsim.StaticSet {
	if plan != nil && plan.StaticCount() == 0 {
		return nil
	}
	key := staticKey{
		scene: req.Scene, center: band.Center, fs: band.SampleRate, n: n,
		seed: seed, start: start,
		nearField: req.NearField, nearGainDB: req.NearFieldGainDB,
	}
	// The conditional-static key distinguishes sets within one identity:
	// the same (band, seed, start) capture under different window-constant
	// loads caches different regulator layers.
	kb := condKeyPool.Get().(*condKeyBuf)
	kb.b = req.Scene.AppendCondStaticKey(kb.b[:0], emsim.Capture{
		Band: band, Start: start, N: n, Activity: req.Activity, Plan: plan,
	})
	cond := kb.b
	sc := &a.statics
	sc.mu.RLock()
	bk := sc.m[key]
	sc.mu.RUnlock()
	if bk == nil {
		sc.mu.Lock()
		if bk = sc.m[key]; bk == nil {
			bk = &staticBucket{byCond: make(map[string]*staticEntry)}
			sc.m[key] = bk
		}
		sc.mu.Unlock()
	}
	bk.mu.RLock()
	e := bk.byCond[string(cond)]
	bk.mu.RUnlock()
	if e == nil {
		bk.mu.Lock()
		if e = bk.byCond[string(cond)]; e == nil {
			e = &staticEntry{}
			bk.byCond[string(cond)] = e
		}
		bk.mu.Unlock()
	}
	hit := true
	e.once.Do(func() {
		hit = false
		staticMissesTotal.Inc()
		if run := a.cfg.Obs; run != nil {
			run.StaticCacheMisses.Inc()
		}
		e.set = req.Scene.BuildStaticSet(emsim.Capture{
			Band: band, Start: start, N: n, Seed: seed,
			Activity:  req.Activity,
			NearField: req.NearField, NearFieldGainDB: req.NearFieldGainDB,
			Plan: plan, Obs: a.cfg.Obs,
		})
	})
	condKeyPool.Put(kb)
	if hit {
		staticHitsTotal.Inc()
		if run := a.cfg.Obs; run != nil {
			run.StaticCacheHits.Inc()
		}
	}
	return e.set
}

// New creates an analyzer. See Config for defaults.
func New(cfg Config) *Analyzer {
	cfg = cfg.withDefaults()
	return &Analyzer{cfg: cfg, sem: make(chan struct{}, cfg.Parallelism),
		caches: &caches{statics: staticCache{m: make(map[staticKey]*staticBucket)}}}
}

// Serial returns a view of a that renders one capture at a time. The view
// shares a's plan cache, static cache, buffer arena, Meter and Obs, and
// has a semaphore of its own with one slot. A worker fleet that hands
// each task its own view is then bounded by its worker count, not by a's
// Parallelism, while every task still reuses the caches a's other sweeps
// built. Output is bit-identical to sweeping on a itself.
func (a *Analyzer) Serial() *Analyzer {
	cfg := a.cfg
	cfg.Parallelism = 1
	return &Analyzer{cfg: cfg, sem: make(chan struct{}, 1), caches: a.caches}
}

// Fres returns the configured resolution bandwidth.
func (a *Analyzer) Fres() float64 { return a.cfg.Fres }

// plan describes the segmentation of a sweep.
type plan struct {
	nfft     int
	fs       float64
	needBins int
	perSeg   int
	segs     int
}

func (a *Analyzer) planSweep(f1, f2 float64) plan {
	if f2 <= f1 {
		panic(fmt.Sprintf("specan: empty sweep [%g, %g]", f1, f2))
	}
	needBins := int(math.Round((f2 - f1) / a.cfg.Fres))
	if needBins < 1 {
		needBins = 1
	}
	nfft := fft.NextPow2(int(math.Ceil(float64(needBins) / a.cfg.UsableFrac)))
	if nfft > a.cfg.MaxFFT {
		nfft = a.cfg.MaxFFT
	}
	if nfft < 64 {
		nfft = 64
	}
	perSeg := int(float64(nfft) * a.cfg.UsableFrac)
	segs := (needBins + perSeg - 1) / perSeg
	return plan{nfft: nfft, fs: float64(nfft) * a.cfg.Fres, needBins: needBins, perSeg: perSeg, segs: segs}
}

// CaptureDuration returns the observation time of a single trace of a
// sweep over [f1, f2] (1/fres).
func (a *Analyzer) CaptureDuration() float64 { return 1 / a.cfg.Fres }

// TotalDuration returns how much activity-trace time a sweep consumes:
// segments × averages × capture duration.
func (a *Analyzer) TotalDuration(f1, f2 float64) float64 {
	p := a.planSweep(f1, f2)
	return float64(p.segs*a.cfg.Averages) * a.CaptureDuration()
}

// Request is one sweep specification.
type Request struct {
	Scene  *emsim.Scene
	F1, F2 float64
	// Ctx, when non-nil, lets a caller abandon the sweep mid-flight: once
	// the context is cancelled, remaining captures are skipped (not
	// rendered, not charged to any Meter, not counted) and the sweep
	// returns promptly. The returned spectrum is then partial garbage and
	// MUST be discarded — cancellation is for callers (a campaign service
	// killing a job) that throw the whole result away. A nil or
	// never-cancelled context leaves the sweep byte-identical to one
	// without a context.
	Ctx context.Context
	// Activity is the program-activity envelope during the sweep (nil =
	// idle machine).
	Activity *activity.Trace
	// Seed controls the measurement noise; sweeps with different seeds
	// are independent observations.
	Seed int64
	// NearField enables the localization probe model.
	NearField bool
	// NearFieldGainDB is the probe gain (e.g. 30 dB); only meaningful
	// with NearField.
	NearFieldGainDB float64
	// Events, when non-nil, receives the sweep's journal events
	// (sweep_start, strided sweep_progress, sweep_end) on the caller's
	// track. They are emitted from the sweep's coordinating goroutine —
	// progress follows the deterministic reduce order, not render
	// completion — so per-track event order is reproducible at any
	// Parallelism. Nil (the default) keeps the sweep journal-free.
	Events *obs.JournalTrack
}

// segGeom returns the bin range and center frequency of segment s.
func (a *Analyzer) segGeom(p plan, f1 float64, s int) (fStart, center float64, bins int) {
	binStart := s * p.perSeg
	bins = p.perSeg
	if binStart+bins > p.needBins {
		bins = p.needBins - binStart
	}
	fStart = f1 + float64(binStart)*a.cfg.Fres
	center = fStart + float64(bins)/2*a.cfg.Fres
	return fStart, center, bins
}

// renderCapture renders capture capIdx of the sweep and writes its
// periodogram into out (whose PmW the caller supplies). All scratch comes
// from pools, so steady state allocates nothing. With Config.Obs attached
// the two halves — scene render and window+FFT+calibrate — are timed
// separately; timing never touches the sample math, so output is
// identical either way.
func (a *Analyzer) renderCapture(req Request, p plan, capIdx int, out *spectral.Spectrum) {
	// Cancelled sweeps stop paying for captures immediately: the spectrum
	// slot stays zeroed, nothing is charged to the meter or the capture
	// counters, and the (garbage) sweep result is discarded by the caller.
	if req.Ctx != nil && req.Ctx.Err() != nil {
		// Keep the slot's geometry valid so the discarded sweep can still
		// reduce without tripping the Averager; the power stays zero.
		_, center, _ := a.segGeom(p, req.F1, capIdx/a.cfg.Averages)
		fres := p.fs / float64(p.nfft)
		out.F0 = center - fres*float64(p.nfft/2)
		out.Fres = fres
		return
	}
	run := a.cfg.Obs
	_, center, _ := a.segGeom(p, req.F1, capIdx/a.cfg.Averages)
	band := emsim.Band{Center: center, SampleRate: p.fs}
	buf := a.arena.Complex(p.nfft)
	var t0, t1, t2 time.Time
	if run != nil {
		t0 = time.Now()
	}
	capSeed := req.Seed + int64(capIdx)*7919
	start := float64(capIdx) * a.CaptureDuration()
	rp := a.planFor(req.Scene, band, p.nfft)
	var static *emsim.StaticSet
	if a.cfg.ReuseStatic {
		static = a.staticFor(req, band, p.nfft, capSeed, start, rp)
	}
	req.Scene.RenderInto(buf, emsim.Capture{
		Band:            band,
		Start:           start,
		N:               p.nfft,
		Activity:        req.Activity,
		Seed:            capSeed,
		NearField:       req.NearField,
		NearFieldGainDB: req.NearFieldGainDB,
		Plan:            rp,
		Static:          static,
		NoSegment:       a.cfg.NoSegment,
		Obs:             run,
	})
	if run != nil {
		t1 = time.Now()
	}
	if fp := a.cfg.Faults; fp != nil {
		// Fault seed = capture seed: the degradation is pinned to the
		// capture's position in the sweep, so results are independent of
		// parallelism exactly like the render itself.
		fp.Apply(buf, band, capSeed)
	}
	spectral.PeriodogramInPlace(out, buf, p.fs, center, a.cfg.Window)
	a.arena.PutComplex(buf)
	capturesTotal.Inc()
	a.cfg.Meter.record()
	if run != nil {
		t2 = time.Now()
		run.Captures.Inc()
		run.AddSimSeconds(a.CaptureDuration())
		run.RenderSeconds.Add(t1.Sub(t0).Seconds())
		run.FFTSeconds.Add(t2.Sub(t1).Seconds())
		renderSeconds.Observe(t1.Sub(t0).Seconds())
		fftSeconds.Observe(t2.Sub(t1).Seconds())
	}
}

// Sweep measures the spectrum of the scene over [F1, F2].
//
// The segs × averages captures are independent — each is seeded by its
// position in the sweep — so they render concurrently on up to
// Config.Parallelism goroutines. The periodograms are then reduced into
// per-segment trace averages in the same (segment, trace) order the serial
// loop used, keeping the result bit-identical to Parallelism: 1.
func (a *Analyzer) Sweep(req Request) *spectral.Spectrum {
	if req.Scene == nil {
		panic("specan: sweep without a scene")
	}
	sweepsTotal.Inc()
	p := a.planSweep(req.F1, req.F2)
	nCaps := p.segs * a.cfg.Averages
	req.Events.Emit(obs.Event{Kind: obs.EventSweepStart,
		F1Hz: req.F1, F2Hz: req.F2, Total: int64(nCaps)})
	specs := make([]spectral.Spectrum, nCaps)
	for i := range specs {
		specs[i].PmW = a.arena.Float(p.nfft)
	}
	if a.cfg.Parallelism == 1 {
		for i := 0; i < nCaps; i++ {
			a.sem <- struct{}{}
			a.renderCapture(req, p, i, &specs[i])
			<-a.sem
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(nCaps)
		for i := 0; i < nCaps; i++ {
			go func(i int) {
				defer wg.Done()
				a.sem <- struct{}{}
				defer func() { <-a.sem }()
				a.renderCapture(req, p, i, &specs[i])
			}(i)
		}
		wg.Wait()
	}
	// Deterministic reduction: segment by segment, traces in capture
	// order, exactly as the serial sweep accumulated them. Progress
	// events stride this loop (not render completion), so the journal
	// sees the same positions at any Parallelism.
	stride := p.segs / 8
	if stride < 1 {
		stride = 1
	}
	parts := make([]*spectral.Spectrum, 0, p.segs)
	for s := 0; s < p.segs; s++ {
		fStart, _, bins := a.segGeom(p, req.F1, s)
		var avg spectral.Averager
		for t := 0; t < a.cfg.Averages; t++ {
			sp := &specs[s*a.cfg.Averages+t]
			avg.Add(sp)
			a.arena.PutFloat(sp.PmW)
			sp.PmW = nil
		}
		parts = append(parts, avg.Mean().Slice(fStart, fStart+float64(bins)*a.cfg.Fres))
		if req.Events != nil && (s+1)%stride == 0 && s+1 < p.segs {
			req.Events.Emit(obs.Event{Kind: obs.EventSweepProgress,
				Captures: int64((s + 1) * a.cfg.Averages), Total: int64(nCaps)})
		}
	}
	req.Events.Emit(obs.Event{Kind: obs.EventSweepEnd,
		Captures: int64(nCaps), Total: int64(nCaps)})
	return spectral.Stitch(parts)
}
