package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/runstore"
	"fase/internal/service"
)

// archiveScan runs the campaign on the named system as the CLI does with
// -runs-dir and archives it, returning the store entry.
func archiveScan(t *testing.T, dir, system string, c core.Campaign) runstore.Entry {
	t.Helper()
	sys, err := machine.Lookup(system)
	if err != nil {
		t.Fatal(err)
	}
	runner := &core.Runner{Scene: sys.Scene(c.Seed, true), Obs: obs.NewRun()}
	if _, err := runner.RunE(c); err != nil {
		t.Fatal(err)
	}
	e, err := archiveRun(dir, runner.Obs, system, true)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestArchiveRunIDsNameTheScene: the run-store id of a CLI run covers the
// scene, so the same campaign on two systems lands at two addresses, and
// a CLI-archived run sits at the address the campaign service assigns the
// same work (the service then answers the submission from the archive):
// execution knobs such as Parallelism are not part of the identity.
func TestArchiveRunIDsNameTheScene(t *testing.T) {
	dir := t.TempDir()
	req := &service.ScanRequest{Tenant: "t", System: "i7-desktop", Environment: true,
		Scan: service.ScanSpec{F1: 300e3, F2: 360e3, Fres: 500, FAlt1: 43.3e3, FDelta: 500, Seed: 1}}
	// The campaign cmd/fase builds for `-f1 300e3 -f2 360e3 -fres 500
	// -fdelta 500 -seed 1`, Parallelism left at 0.
	c := core.Campaign{F1: 300e3, F2: 360e3, Fres: 500, FAlt1: 43.3e3, FDelta: 500,
		X: activity.LDM, Y: activity.LDL1, Seed: 1}
	i7 := archiveScan(t, dir, "i7-desktop", c)
	turion := archiveScan(t, dir, "turion-laptop", c)
	if i7.ID == turion.ID {
		t.Fatalf("i7-desktop and turion-laptop runs share run-store id %s", i7.ID)
	}
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := store.List(); err != nil || len(entries) != 2 {
		t.Fatalf("store holds %d runs (err %v), want 2", len(entries), err)
	}

	s, err := service.New(service.Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := req.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	j, herr := s.Submit(req, sc)
	if herr != nil {
		t.Fatal(herr)
	}
	if j.ResultID != i7.ID {
		t.Fatalf("service result id %s, CLI archived %s", j.ResultID, i7.ID)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/scans/"+j.ID, nil))
	var st struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("job status %q: %v", rec.Body.String(), err)
	}
	if st.State != service.StateDone || !st.Cached {
		t.Errorf("job %+v: the service did not answer the submission from the CLI-archived run", st)
	}
}
