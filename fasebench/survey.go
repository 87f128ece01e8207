package main

import (
	"strconv"
	"strings"
	"time"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/service"
)

// campaignSpec is one Fig. 10 campaign run as a `fase` process on the
// i7 model with the LDM/LDL1 pair, no instrumentation flags.
type campaignSpec struct {
	Name     string
	Campaign core.Campaign
}

func (cs campaignSpec) args(seed int64) []string {
	c := cs.Campaign
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{"-system", surveySystem, "-pair", "LDM/LDL1",
		"-f1", f(c.F1), "-f2", f(c.F2), "-fres", f(c.Fres),
		"-falt", f(c.FAlt1), "-fdelta", f(c.FDelta), "-seed", strconv.FormatInt(seed, 10)}
}

const surveySystem = "i7-desktop"

var paper = core.PaperCampaigns(activity.LDM, activity.LDL1)

// The survey workloads' campaigns. Campaign 3 (120–1200 MHz) is left out
// of survey_hf: its peak RSS read 1.24–1.63 GB across repeats of one
// seed, wider than any bound the benchmark could hold, and it would
// triple the workload's run time; campaign 2 exercises the same
// 131072-point segments.
var (
	campaignLF  = campaignSpec{Name: "lf", Campaign: paper[0]}
	campaignHF2 = campaignSpec{Name: "hf2", Campaign: paper[1]}
)

// surveyHeader reports whether a stdout line is the CLI's scan header,
// printed once the scene is built: the end of set-up.
func surveyHeader(line string) bool { return strings.HasPrefix(line, "FASE scan of ") }

// minSurveyReps keeps the medians meaningful when one repetition takes
// most of --seconds.
const minSurveyReps = 3

// setupProbes is how many extra spawns per campaign sample set-up time.
const setupProbes = 20

// runSurvey runs the campaign as a process again and again for the
// run's duration and reports medians over the repetitions.
func runSurvey(cfg runConfig, cs campaignSpec) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeSetup(cfg.ctx, cfg.fase, cs.args(cfg.seed), surveyHeader)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	var walls, cpus, rss, lags []float64
	var cpuTotal time.Duration
	start := time.Now()
	for len(walls) < minSurveyReps || time.Since(start) < cfg.seconds {
		st := runCampaignProc(cfg, o, cs)
		cpuTotal += st.CPU()
		walls = append(walls, st.Wall.Seconds())
		cpus = append(cpus, st.CPU().Seconds())
		rss = append(rss, st.MaxRSSMB)
		setups = append(setups, st.Setup.Seconds())
		lags = append(lags, ms(st.Spawn.Sub(st.Due)))
	}
	o.metrics.set("wall_s", median(walls), "s")
	o.metrics.set("cpu_s", median(cpus), "s")
	o.metrics.set("peak_rss_mb", median(rss), "MB")
	o.setSetup(setups)
	jobs := make([]float64, len(walls))
	for i, w := range walls {
		jobs[i] = w * 1e3
	}
	o.setJobLatency(jobs)
	o.metrics.set("cpu_ms_per_job", ms(cpuTotal)/float64(len(walls)), "ms")
	o.notef("%d repetitions: wall p25 %.3f s, p75 %.3f s; spawn lag p50 %.3f ms",
		len(walls), nearestRank(walls, 25), nearestRank(walls, 75), median(lags))
	return o, nil
}

// runCampaignProc runs one campaign process and checks its output; a
// failed run or check is counted, not fatal.
func runCampaignProc(cfg runConfig, o *outcome, cs campaignSpec) procStats {
	o.attempted++
	st, err := runProc(cfg.ctx, time.Now(), cfg.fase, cs.args(cfg.seed), surveyHeader)
	if err != nil {
		o.fail("%s: %v", cs.Name, err)
		return st
	}
	if st.Setup == 0 {
		o.fail("%s: no scan header", cs.Name)
	}
	if err := checkScan(cfg.refs, cs, cfg.seed, st.Stdout); err != nil {
		o.fail("%v", err)
	}
	return st
}

// traceSurvey is the traced run of a survey workload: the campaign once
// as a process (its sys time and faults), then every layer in process at
// the campaign's geometry, then the campaign as a served job and its
// cached resubmit against a `fase serve` process.
func traceSurvey(cfg runConfig, cs campaignSpec) (*outcome, error) {
	o := newOutcome()
	tr := cfg.tracer
	id := tr.Begin("proc."+cs.Name, 0)
	st := runCampaignProc(cfg, o, cs)
	tr.End(id)
	o.metrics.set("proc.sys_s", st.Sys.Seconds(), "s")
	o.metrics.set("proc.minor_faults", float64(st.MinFlt), "count")

	c := cs.Campaign
	c.Seed = cfg.seed
	in := layerInput{System: surveySystem, Environment: true, Campaign: c,
		Adaptive: adaptiveVariant(c), Dir: cfg.scratch}
	if err := measureLayers(in, tr, o); err != nil {
		return nil, err
	}
	want := int(o.metrics["core.detections"].Value)
	jobs := []plannedJob{
		{Class: classSurvey, Req: surveyRequest(c), Key: cs.Name, Of: -1, Expect: want},
		{Class: classResubmit, Req: surveyRequest(c), Key: cs.Name, Of: 0, Expect: want, AfterDone: true},
	}
	if err := serveSession(cfg, o, jobs, 0); err != nil {
		return nil, err
	}
	return o, nil
}

// adaptiveVariant is the budgeted form of an exhaustive campaign, as the
// served adaptive class runs it: 2048-point segments and 30% of the
// exhaustive capture count.
func adaptiveVariant(c core.Campaign) core.Campaign {
	a := c
	a.MaxFFT = adaptiveMaxFFT
	a.Budget = int(float64(exhaustiveCaptures(a)) * adaptiveBudgetFrac)
	a.Adaptive = &core.AdaptivePlan{}
	return a
}

func surveyRequest(c core.Campaign) service.ScanRequest {
	return service.ScanRequest{Tenant: "survey", System: surveySystem, Environment: true,
		Scan: service.ScanSpec{F1: c.F1, F2: c.F2, Fres: c.Fres, FAlt1: c.FAlt1, FDelta: c.FDelta, Seed: c.Seed}}
}
