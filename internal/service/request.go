// Package service is the FASE campaign server: a long-running HTTP
// service that accepts scan submissions, queues them under per-tenant
// quotas, spreads each campaign's sweeps across a bounded worker fleet,
// and archives results through the content-addressed run store.
//
// A job runs through core.Runner.Execute with the fleet as its executor,
// the same path the CLI takes with goroutines, so a served result is
// bit-identical to a CLI run of the same (config, seed): every sweep
// derives its seed from the campaign seed and its ladder index alone,
// renders on whichever worker picks it up, and results reduce in fixed
// order. The integration tests verify the identity against runstore
// content hashes.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"fase/internal/activity"
	"fase/internal/core"
)

// DefaultActivity is the alternation pair used when a submission omits
// one — the paper's off-chip memory-vs-cache pair.
const DefaultActivity = "LDM/LDL1"

// maxRequestBytes bounds a submission body; anything larger is rejected
// before parsing.
const maxRequestBytes = 1 << 20

// ScanSpec is the campaign portion of a submission. Field names mirror
// the run manifest's resolved-config record, so a submission, the
// archived result's config block, and the CLI flags all speak the same
// vocabulary. Zero-valued optional fields take the campaign defaults
// (core.Campaign.withDefaults).
type ScanSpec struct {
	F1     float64 `json:"f1_hz"`
	F2     float64 `json:"f2_hz"`
	Fres   float64 `json:"fres_hz"`
	FAlt1  float64 `json:"falt1_hz"`
	FDelta float64 `json:"fdelta_hz"`

	NumAlts     int     `json:"num_alts,omitempty"`
	Averages    int     `json:"averages,omitempty"`
	MinScore    float64 `json:"min_score,omitempty"`
	SmoothBins  int     `json:"smooth_bins,omitempty"`
	MergeBins   int     `json:"merge_bins,omitempty"`
	MinElevated int     `json:"min_elevated,omitempty"`
	Seed        int64   `json:"seed"`
	MaxFFT      int     `json:"max_fft,omitempty"`

	// Adaptive/Budget/ReconFres select the budgeted coarse-to-fine
	// planner; its recon pass, window probes and refinements run as
	// batches of sweeps on the worker fleet.
	Adaptive    bool    `json:"adaptive,omitempty"`
	Budget      int     `json:"budget,omitempty"`
	ReconFresHz float64 `json:"recon_fres_hz,omitempty"`
}

// ScanRequest is the POST /v1/scans submission body.
type ScanRequest struct {
	// Tenant namespaces quota accounting and listing. Required.
	Tenant string `json:"tenant"`
	// Priority orders the queue: 1 (lowest) to 9 (highest), 0 means 5.
	// Higher-priority jobs dispatch first; within a priority the queue
	// is FIFO.
	Priority int `json:"priority,omitempty"`
	// System names the machine model to scan (machine.Registry).
	System string `json:"system"`
	// Environment adds the metropolitan RF environment to the scene
	// (seeded by the scan seed, exactly like the CLI's -environment).
	Environment bool `json:"environment,omitempty"`
	// Activity is the X/Y alternation pair, e.g. "LDM/LDL1" (the
	// default).
	Activity string `json:"activity,omitempty"`
	// Scan is the campaign itself.
	Scan ScanSpec `json:"scan"`
}

// Campaign converts the request into a validated core.Campaign.
func (r *ScanRequest) Campaign() (core.Campaign, error) {
	pair := r.Activity
	if pair == "" {
		pair = DefaultActivity
	}
	x, y, err := activity.ParsePair(pair)
	if err != nil {
		return core.Campaign{}, err
	}
	sp := r.Scan
	c := core.Campaign{
		F1: sp.F1, F2: sp.F2, Fres: sp.Fres,
		FAlt1: sp.FAlt1, FDelta: sp.FDelta,
		NumAlts: sp.NumAlts, Averages: sp.Averages,
		MinScore: sp.MinScore, SmoothBins: sp.SmoothBins,
		MergeBins: sp.MergeBins, MinElevated: sp.MinElevated,
		X: x, Y: y,
		Seed:   sp.Seed,
		MaxFFT: sp.MaxFFT,
	}
	if sp.Adaptive || sp.Budget != 0 {
		c.Budget = sp.Budget
		c.Adaptive = &core.AdaptivePlan{ReconFres: sp.ReconFresHz}
	}
	if err := c.Validate(); err != nil {
		return core.Campaign{}, err
	}
	return c, nil
}

// validate checks the service-level fields (the campaign itself is
// checked by Campaign).
func (r *ScanRequest) validate() error {
	if r.Tenant == "" {
		return fmt.Errorf("service: submission needs a tenant")
	}
	if len(r.Tenant) > 64 {
		return fmt.Errorf("service: tenant name longer than 64 bytes")
	}
	if r.Priority < 0 || r.Priority > 9 {
		return fmt.Errorf("service: priority %d out of range (1–9, 0 = default)", r.Priority)
	}
	if r.System == "" {
		return fmt.Errorf("service: submission needs a system model")
	}
	return nil
}

// priority resolves the effective queue priority.
func (r *ScanRequest) priority() int {
	if r.Priority == 0 {
		return 5
	}
	return r.Priority
}

// parseScanRequest decodes and validates a submission body. Unknown
// fields are rejected so typos fail loudly instead of silently taking
// defaults.
func parseScanRequest(body io.Reader) (*ScanRequest, core.Campaign, error) {
	dec := json.NewDecoder(io.LimitReader(body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req ScanRequest
	if err := dec.Decode(&req); err != nil {
		return nil, core.Campaign{}, fmt.Errorf("service: parse submission: %w", err)
	}
	if err := req.validate(); err != nil {
		return nil, core.Campaign{}, err
	}
	c, err := req.Campaign()
	if err != nil {
		return nil, core.Campaign{}, err
	}
	return &req, c, nil
}

// httpError is an admission failure with its HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}
