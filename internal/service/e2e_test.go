package service

import (
	"encoding/json"
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
// a campaign submitted over real HTTP and executed as sharded tasks on
// the worker fleet must produce byte-identical results to the same
// (config, seed) run directly through core.Campaign — same runstore
// content hash, same detections, same capture count, and an equivalent
// canonical event journal.
func TestServiceEndToEndBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Config{Workers: 4, MaxActive: 2, StoreDir: dir})
	base := listen(t, s)

	req := tinyRequest("acme", 7)
	st, code := httpSubmit(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	fin := waitTerminal(t, base, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}

	// Direct serial run of the exact same (config, seed).
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

	// Identity: the service's result id must equal the content hash of
	// the direct run's resolved config under the same (system,
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

	// Journal equivalence: the sharded run's event stream, fetched over
	// SSE, must canonicalize to the serial run's journal.
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
