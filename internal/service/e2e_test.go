package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"fase/internal/core"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/runstore"
	"fase/internal/specan"
)

// canonicalize puts a journal into comparable form: deterministic
// (track, tseq) order with the wall-clock and arrival-order fields
// zeroed. Mirrors what obs.WriteJSONL does for archived journals.
func canonicalize(events []obs.Event) []obs.Event {
	out := make([]obs.Event, len(events))
	copy(out, events)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Track != out[b].Track {
			return out[a].Track < out[b].Track
		}
		return out[a].TSeq < out[b].TSeq
	})
	for i := range out {
		out[i].Seq = 0
		out[i].T = 0
		out[i].WallSeconds = 0
	}
	return out
}

// TestServiceEndToEndBitIdentical is the service's ground-truth check:
// a campaign submitted over real HTTP and executed with its sweeps on
// the worker fleet must produce byte-identical results to the same
// (config, seed) run directly through core.Runner.RunE — same runstore
// content hash, same detections, same capture count, and an equivalent
// canonical event journal — for an exhaustive and an adaptive scan.
func TestServiceEndToEndBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Config{Workers: 4, MaxActive: 2, StoreDir: dir})
	base := listen(t, s)

	for _, tc := range []struct {
		name   string
		req    *ScanRequest
		shards int64
	}{
		{"exhaustive", tinyRequest("acme", 7), 5},
		{"adaptive", adaptiveRequest("acme", 7), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards0 := s.Stats().Shards
			req := tc.req
			st, code := httpSubmit(t, base, req)
			if code != http.StatusAccepted {
				t.Fatalf("submit status %d, want 202", code)
			}
			fin := waitTerminal(t, base, st.ID)
			if fin.State != StateDone {
				t.Fatalf("job finished %s: %s", fin.State, fin.Error)
			}
			if got := s.Stats().Shards - shards0; got != tc.shards {
				t.Errorf("job added %d to shards_total, want %d", got, tc.shards)
			}

			// Direct run of the exact same (config, seed).
			c, err := req.Campaign()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := machine.Lookup(req.System)
			if err != nil {
				t.Fatal(err)
			}
			run := obs.NewRun()
			run.Journal = obs.NewJournal()
			runner := &core.Runner{Scene: sys.Scene(c.Seed, req.Environment), Obs: run}
			res, err := runner.RunE(c)
			if err != nil {
				t.Fatal(err)
			}
			m := run.Manifest()
			if m == nil {
				t.Fatal("direct run produced no manifest")
			}

			// Identity: the service's result id must equal the content hash
			// of the direct run's resolved config under the same (system,
			// environment) wrapper.
			wantID, err := runstore.ConfigID(core.ResultConfig{
				System: req.System, Environment: req.Environment, Scan: m.Config})
			if err != nil {
				t.Fatal(err)
			}
			if fin.ResultID != wantID {
				t.Fatalf("service result id %s, direct config hash %s", fin.ResultID, wantID)
			}
			if _, err := os.Stat(filepath.Join(dir, wantID+".json")); err != nil {
				t.Fatalf("archived manifest missing at content address: %v", err)
			}

			// Payload: the archived manifest must carry the identical
			// deterministic measurement.
			resp, err := http.Get(base + "/v1/scans/" + st.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			got := decodeManifest(t, resp)
			if got.Captures != m.Captures {
				t.Errorf("captures: service %d, direct %d", got.Captures, m.Captures)
			}
			if got.SimulatedAnalyzerSeconds != m.SimulatedAnalyzerSeconds {
				t.Errorf("simulated seconds: service %v, direct %v",
					got.SimulatedAnalyzerSeconds, m.SimulatedAnalyzerSeconds)
			}
			if !reflect.DeepEqual(got.Detections, m.Detections) {
				t.Errorf("detections differ:\nservice %+v\ndirect  %+v", got.Detections, m.Detections)
			}
			if fin.Detections != len(res.Detections) {
				t.Errorf("status detections %d, direct %d", fin.Detections, len(res.Detections))
			}

			// Journal equivalence: the fleet run's event stream, fetched
			// over SSE, must canonicalize to the direct run's journal.
			gotEvents := canonicalize(fetchSSE(t, base+"/v1/scans/"+st.ID+"/events"))
			wantEvents := canonicalize(run.Journal.CanonicalEvents())
			if len(gotEvents) != len(wantEvents) {
				t.Fatalf("journal length: service %d events, direct %d", len(gotEvents), len(wantEvents))
			}
			for i := range gotEvents {
				if !reflect.DeepEqual(gotEvents[i], wantEvents[i]) {
					t.Fatalf("journal event %d differs:\nservice %+v\ndirect  %+v",
						i, gotEvents[i], wantEvents[i])
				}
			}
		})
	}
}

// serialExec runs a batch's sweeps one after another on the calling
// goroutine, each on a Serial view of the phase analyzer.
func serialExec(ctx context.Context, an *specan.Analyzer, n int, sweep func(*specan.Analyzer, int)) {
	for i := 0; i < n && ctx.Err() == nil; i++ {
		sweep(an.Serial(), i)
	}
}

// TestExecutorEquivalence runs an exhaustive and an adaptive campaign
// through core.Runner.Execute on three executors — goroutines on the
// phase analyzer, one sweep at a time on Serial views, and the worker
// fleet — and requires identical output: every measurement bit, the
// detections, the capture count, the run-store identity, the canonical
// journal and the manifest's set of planned segments.
func TestExecutorEquivalence(t *testing.T) {
	s := newServer(t, Config{Workers: 3})
	for _, req := range []*ScanRequest{tinyRequest("eq", 61), adaptiveRequest("eq", 61)} {
		c, err := req.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		name := "exhaustive"
		if c.Adaptive != nil {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				res      *core.Result
				m        *obs.Manifest
				id       string
				journal  []obs.Event
				segments []obs.SegmentPlan
			}
			execute := func(exec core.Exec) outcome {
				run := obs.NewRun()
				run.Journal = obs.NewJournal()
				scene, err := defaultSceneFor(req.System, c.Seed, req.Environment)
				if err != nil {
					t.Fatal(err)
				}
				res, err := (&core.Runner{Scene: scene, Obs: run}).Execute(context.Background(), c, exec)
				if err != nil {
					t.Fatal(err)
				}
				m := run.Manifest()
				id, err := runstore.ConfigID(core.ResultConfig{System: req.System, Scan: m.Config})
				if err != nil {
					t.Fatal(err)
				}
				segs := append([]obs.SegmentPlan(nil), m.Planner.Segments...)
				sort.Slice(segs, func(a, b int) bool {
					if segs[a].CenterHz != segs[b].CenterHz {
						return segs[a].CenterHz < segs[b].CenterHz
					}
					if segs[a].SampleRate != segs[b].SampleRate {
						return segs[a].SampleRate < segs[b].SampleRate
					}
					return segs[a].Samples < segs[b].Samples
				})
				return outcome{res, m, id, canonicalize(run.Journal.CanonicalEvents()), segs}
			}
			want := execute(core.Goroutines)
			if len(want.segments) == 0 {
				t.Fatal("reference run planned no segments")
			}
			t.Logf("%d captures, %d detections, %d segments", want.res.Captures, len(want.res.Detections), len(want.segments))
			for _, e := range []struct {
				name string
				exec core.Exec
			}{{"serial", serialExec}, {"fleet", s.fleet(c.Adaptive == nil)}} {
				got := execute(e.exec)
				if len(got.res.Measurements) != len(want.res.Measurements) {
					t.Fatalf("%s: %d measurements, want %d", e.name, len(got.res.Measurements), len(want.res.Measurements))
				}
				for i, gm := range got.res.Measurements {
					wp, gp := want.res.Measurements[i].Spectrum.PmW, gm.Spectrum.PmW
					if len(gp) != len(wp) {
						t.Fatalf("%s: measurement %d has %d bins, want %d", e.name, i, len(gp), len(wp))
					}
					for k := range gp {
						if math.Float64bits(gp[k]) != math.Float64bits(wp[k]) {
							t.Fatalf("%s: measurement %d bin %d differs", e.name, i, k)
						}
					}
				}
				if !reflect.DeepEqual(got.res.Detections, want.res.Detections) {
					t.Errorf("%s: detections differ:\n%+v\nwant %+v", e.name, got.res.Detections, want.res.Detections)
				}
				if got.res.Captures != want.res.Captures {
					t.Errorf("%s: %d captures, want %d", e.name, got.res.Captures, want.res.Captures)
				}
				if got.id != want.id {
					t.Errorf("%s: run-store id %s, want %s", e.name, got.id, want.id)
				}
				if !reflect.DeepEqual(got.journal, want.journal) {
					t.Errorf("%s: canonical journal differs from the goroutine executor's", e.name)
				}
				if !reflect.DeepEqual(got.segments, want.segments) {
					t.Errorf("%s: manifest plans %d segments, want %d: %+v\nwant %+v",
						e.name, len(got.segments), len(want.segments), got.segments, want.segments)
				}
			}
		})
	}
}

func decodeManifest(t *testing.T, resp *http.Response) *obs.Manifest {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d", resp.StatusCode)
	}
	var m obs.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}
