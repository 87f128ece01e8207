// Command fasebench is the FASE benchmark: the paper's Fig. 10 survey
// campaigns run as `fase` processes, and an open-loop traffic mix served
// by `fase serve`, measured end to end; a separate traced run times each
// layer of the engine (dsp, render kernels, static cache, analyzer,
// campaign pipeline, adaptive planner, manifest/journal/store, service)
// by calling its public functions from here.
//
// Run it from the root of a fase checkout through run.sh, which builds
// both programs first:
//
//	bash fasebench/run.sh --workload survey_lf --seed 1 --seconds 10 --trace 0
//
// The last stdout line is one JSON object: the correctness verdict, the
// operations attempted and failed, and the metrics BENCHMARK.json names
// (end-to-end with --trace 0, per-layer with --trace 1). The exit code is
// 1 when a correctness check failed and 2 when the run could not be made.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// outcome is one run's result before it is printed.
type outcome struct {
	attempted, failed int
	checkErrs         []string // failed correctness checks
	notes             []string
	metrics           metrics
}

func newOutcome() *outcome { return &outcome{metrics: metrics{}} }

// fail records a failed correctness check; it also counts as a failed
// operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
}

// failOp records an operation that failed without producing wrong output
// (a refused submission).
func (o *outcome) failOp(format string, args ...any) {
	o.failed++
	o.notef(format, args...)
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setSetup reports set-up time as the median of its samples.
func (o *outcome) setSetup(samples []float64) {
	o.metrics.set("setup_s", median(samples), "s")
	o.notef("setup_s is the median of %d spawns (p25 %.4f s, p75 %.4f s)",
		len(samples), nearestRank(samples, 25), nearestRank(samples, 75))
}

// setJobLatency reports job latencies as their median and the highest
// percentile with at least ten samples beyond it.
func (o *outcome) setJobLatency(lat []float64) {
	p, v := tailPercentile(lat)
	o.metrics.set("job_p50_ms", median(lat), "ms")
	o.metrics.set("job_p95_ms", v, "ms")
	o.notef("job_p95_ms reports p%d of %d jobs (highest percentile with ten beyond)", p, len(lat))
}

// runConfig is what every workload function gets.
type runConfig struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	fase     string // the built fase binary
	scratch  string // per-run scratch directory, removed at exit
	refs     *refTables
	tracer   *Tracer // nil on untraced runs
}

type workload struct {
	run, trace func(runConfig) (*outcome, error)
}

var workloads = map[string]workload{
	"survey_lf": {
		run:   func(c runConfig) (*outcome, error) { return runSurvey(c, campaignLF) },
		trace: func(c runConfig) (*outcome, error) { return traceSurvey(c, campaignLF) },
	},
	"survey_hf": {
		run:   func(c runConfig) (*outcome, error) { return runSurvey(c, campaignHF2) },
		trace: func(c runConfig) (*outcome, error) { return traceSurvey(c, campaignHF2) },
	},
	"serve_mix": {run: runServeMix, trace: traceServeMix},
}

// benchSpec is the part of BENCHMARK.json the harness reads: which
// metrics to print, in order.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// runTimeout bounds one run, its child processes included, below three
// minutes.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "workload: survey_lf, survey_hf or serve_mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	faseBin := flag.String("fase", ".bench_build/fase", "path of the built fase binary")
	outDir := flag.String("out", ".bench_build", "directory for scratch files and traces")
	record := flag.String("record-refs", "", "regenerate the reference outputs into FILE and exit")
	flag.Parse()

	if *record != "" {
		if err := recordRefs(*record, *faseBin); err != nil {
			fmt.Fprintln(os.Stderr, "fasebench:", err)
			return 2
		}
		return 0
	}
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "fasebench: unknown workload %q\n", *wl)
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 2
	}
	if _, err := os.Stat(*faseBin); err != nil {
		fmt.Fprintln(os.Stderr, "fasebench: fase binary:", err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cfg := runConfig{ctx: ctx, workload: *wl, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		fase:    *faseBin, scratch: scratch, refs: refs}
	fn, names := w.run, spec.EndToEnd
	if *trace == 1 {
		cfg.tracer = newTracer()
		fn, names = w.trace, spec.PerLayer
	}
	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fasebench: %s: %v\n", *wl, err)
		return 2
	}
	o.metrics.set("failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "frac")

	host := hostIdentity()
	out := map[string]metric{}
	for _, n := range names {
		m, ok := o.metrics[n.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "fasebench: %s: metric %s was not measured\n", *wl, n.Name)
			return 2
		}
		out[n.Name] = metric{m.Value, n.Unit}
	}
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	for _, e := range o.checkErrs {
		fmt.Println("CHECK FAILED:", e)
	}
	printTable(o.metrics)
	hb, _ := json.Marshal(host)
	fmt.Println("host:", string(hb))
	if cfg.tracer != nil {
		path, err := writeTrace(*outDir, cfg, host, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fasebench: trace:", err)
			return 2
		}
		fmt.Println("trace:", path)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.checkErrs) == 0, o.attempted, o.failed, out}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func printTable(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// hostInfo stamps every result with the code and host it measured.
type hostInfo struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostIdentity() hostInfo {
	h := hostInfo{Commit: "unknown", CPU: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeTrace writes the traced run's spans, per-name self times,
// metrics and host stamp.
func writeTrace(dir string, cfg runConfig, host hostInfo, o *outcome) (string, error) {
	spans := cfg.tracer.Spans()
	doc := traceFile{Host: host, Workload: cfg.workload, Seed: cfg.seed, Metrics: o.metrics,
		Notes: o.notes, Summary: summarize(spans), Spans: spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	return path, os.WriteFile(path, b, 0o644)
}
