package core

import (
	"context"
	"fmt"

	"fase/internal/dsp/spectral"
	"fase/internal/microbench"
	"fase/internal/obs"
	"fase/internal/specan"
)

// ShardPlan is an exhaustive campaign decomposed into its natural unit of
// distribution: one shard per ladder sweep. FASE's bit-identical
// seeded-capture design means every shard derives its child seed from the
// campaign seed and its ladder index alone, so shards can render on any
// worker — in any interleaving, on any analyzer — and reducing them in
// fixed ladder order reproduces the single-process result byte for byte.
// Runner.Execute runs every exhaustive campaign through this API, on
// whichever executor the caller passes — goroutines in the CLI, the worker
// fleet in internal/service — so the paths are bit-identical by
// construction rather than by test.
type ShardPlan struct {
	// Campaign is the defaults-resolved configuration (withDefaults
	// applied); manifestConfig over it matches what Execute records.
	Campaign Campaign
	// FAlts is the alternation-frequency ladder; shard i renders FAlts[i].
	FAlts []float64
	// Captures and SimulatedSeconds are the campaign totals, filled in by
	// Begin once an analyzer exists to price the sweeps.
	Captures         int64
	SimulatedSeconds float64
}

// PlanShards validates the campaign and decomposes it into ladder-sweep
// shards. Adaptive campaigns are rejected: their capture schedule is
// decided at run time by the budget planner, so they have no static shard
// decomposition (Execute runs them as a sequence of sweep batches).
func PlanShards(c Campaign) (*ShardPlan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Adaptive != nil {
		return nil, fmt.Errorf("core: adaptive campaigns cannot be sharded (capture schedule is decided at run time)")
	}
	c = c.withDefaults()
	return &ShardPlan{Campaign: c, FAlts: c.FAlts()}, nil
}

// AnalyzerConfig is the specan configuration Execute builds for this
// campaign's ladder. Shards should all render on one analyzer built from
// it — or on Serial views of that analyzer, when a worker fleet rather
// than the analyzer bounds concurrency — so every sweep shares its plan
// and static-layer caches.
func (p *ShardPlan) AnalyzerConfig(run *obs.Run) specan.Config {
	return p.Campaign.analyzerConfig(p.Campaign.Fres, p.Campaign.Averages, run)
}

// analyzerConfig is the specan configuration of one campaign phase at
// the given resolution and average count. The static render cache is
// always on: a campaign's sweeps share their seed, so it replays the
// layers they have in common.
func (c Campaign) analyzerConfig(fres float64, averages int, run *obs.Run) specan.Config {
	return specan.Config{Fres: fres, Averages: averages, Parallelism: c.Parallelism,
		MaxFFT: c.MaxFFT, ReuseStatic: true, Faults: c.Faults, Obs: run}
}

// Begin prices the campaign against an analyzer (any analyzer built from
// AnalyzerConfig — capture counts depend only on the configuration),
// records the totals on the run, and emits the campaign_start event.
// It also counts the campaign: Begin is called exactly once per
// exhaustive campaign, whichever path executes it.
func (p *ShardPlan) Begin(an *specan.Analyzer, run *obs.Run) {
	c := p.Campaign
	p.Captures = int64(len(p.FAlts)) * an.SweepCaptures(c.F1, c.F2)
	p.SimulatedSeconds = float64(len(p.FAlts)) * an.TotalDuration(c.F1, c.F2)
	campaignsTotal.Inc()
	run.SetTotals(p.Captures, int64(len(p.FAlts)), p.SimulatedSeconds)
	run.Track(0).Emit(obs.Event{Kind: obs.EventCampaignStart, Name: "exhaustive",
		F1Hz: c.F1, F2Hz: c.F2, Total: p.Captures})
}

// RenderShard renders ladder sweep i on the given analyzer and returns
// its measurement (see sweepAt for the seeding and journal contract).
// ctx, when non-nil, cooperatively cancels the shard mid-render (see
// specan.Request.Ctx); a cancelled shard's measurement is partial garbage
// and must be discarded, never reduced. The obs.Span is ignored.
func (r *Runner) RenderShard(ctx context.Context, an *specan.Analyzer, p *ShardPlan, i int, run *obs.Run, _ obs.Span) Measurement {
	c := p.Campaign
	return Measurement{FAlt: p.FAlts[i], Spectrum: r.sweepAt(ctx, an, c, p.FAlts, i, c.F1, c.F2, run)}
}

// sweepAt sweeps [f1, f2] on an with the micro-benchmark alternating at
// ladder entry i. The trace seed is c.Seed + i·104729, from the global
// ladder index alone, so a ladder shard and an adaptive window sweep at
// falts[i] see the same alternation realization; its journal events land
// on track 1+i, which belongs to that ladder index, so the canonical
// journal is identical at any parallelism and any placement.
func (r *Runner) sweepAt(ctx context.Context, an *specan.Analyzer, c Campaign, falts []float64, i int, f1, f2 float64, run *obs.Run) *spectral.Spectrum {
	fa := falts[i]
	// Under fault injection the micro-benchmark's clock may drift: the
	// generated alternation runs at fa·(1+ε) while scoring still probes
	// the nominal ladder.
	faGen := fa * (1 + c.Faults.DriftFor(c.Seed+int64(i)*104729))
	tr := microbench.Generate(microbench.Config{
		X: c.X, Y: c.Y, FAlt: faGen, Jitter: *c.Jitter,
		Seed: c.Seed + int64(i)*104729,
	}, an.TotalDuration(f1, f2)+0.05)
	jt := run.Track(1 + int64(i))
	jt.Emit(obs.Event{Kind: obs.EventSweepPlan, FAltHz: fa, F1Hz: f1, F2Hz: f2})
	return an.Sweep(specan.Request{
		Scene: r.Scene, F1: f1, F2: f2, Activity: tr,
		Seed:      c.Seed,
		NearField: r.NearField, NearFieldGainDB: r.NearFieldGainDB,
		Events: jt,
		Ctx:    ctx,
	})
}

// ReduceShards merges the campaign's shard measurements — which must be
// ordered by ladder index, ms[i] from RenderShard(i) — through the
// smooth/score/detect stages and finalizes the run manifest. The reduce
// is pure fixed-order computation over the spectra, so where the shards
// rendered is invisible to it. The obs.Span is ignored.
func (r *Runner) ReduceShards(p *ShardPlan, ms []Measurement, run *obs.Run, _ obs.Span) (*Result, error) {
	c := p.Campaign
	if len(ms) != len(p.FAlts) {
		return nil, fmt.Errorf("core: ReduceShards got %d measurements for %d shards", len(ms), len(p.FAlts))
	}
	res := &Result{Campaign: c, Measurements: ms,
		SimulatedSeconds: p.SimulatedSeconds, Captures: p.Captures}
	falts := p.FAlts
	endSmooth := run.Stage("smooth")
	spectra := make([]*spectral.Spectrum, len(ms))
	for i, m := range ms {
		spectra[i] = m.Spectrum
	}
	// Smoothed spectra are scoring scratch, released after detection.
	smoothed := smoothPooled(spectra, c.SmoothBins)
	endSmooth()
	endScore := run.Stage("score")
	res.Scores, res.Elevated = scoreHarmonics(smoothed, falts, c.Harmonics)
	endScore()
	endDetect := run.Stage("detect")
	res.Detections = detect(res, spectra, smoothed, falts)
	endDetect()
	releaseSmoothed(smoothed)
	detectionsTotal.Add(int64(len(res.Detections)))
	emitDetections(run, res, c)
	run.Track(0).Emit(obs.Event{Kind: obs.EventCampaignEnd,
		Captures: res.Captures, Detections: len(res.Detections)})
	if run != nil {
		run.Finish(manifestConfig(c), res.SimulatedSeconds, provenance(res, c))
	}
	return res, nil
}

// ResultConfig is the content-addressed identity of a campaign result:
// the scene parameters plus the defaults-resolved campaign config, which
// is the record Execute stores as its manifest Config. runstore hashes its
// canonical JSON, so every path that archives runs — the CLI's -runs-dir
// and the campaign service — gives the same work the same id, and the
// same campaign on two systems two ids.
type ResultConfig struct {
	System      string `json:"system"`
	Environment bool   `json:"environment"`
	Scan        any    `json:"scan"`
}

// ResultConfig validates the campaign and returns the identity of its
// result on the named system, with or without the RF environment.
// Services use it to compute a submission's content address before (and
// independent of) running it; a finished run's manifest Config wrapped
// the same way names the same address.
func (c Campaign) ResultConfig(system string, environment bool) (ResultConfig, error) {
	if err := c.Validate(); err != nil {
		return ResultConfig{}, err
	}
	return ResultConfig{System: system, Environment: environment, Scan: manifestConfig(c.withDefaults())}, nil
}
