package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// refs.json holds the outputs the benchmark checks runs against,
// recorded with -record-refs from the program at the commit that added
// the benchmark. Survey campaigns are pinned per shipped seed; served
// jobs draw their scan seeds from fixed per-class pools, each pinned, so
// every served detection total is checked exactly whatever the workload
// seed.
//
//go:embed refs.json
var refsJSON []byte

type surveyRef struct {
	// Sim is the simulated analyzer time the CLI prints; it depends on
	// the campaign geometry only, so it is checked for every seed.
	Sim   string                   `json:"sim"`
	Seeds map[string]surveySeedRef `json:"seeds"`
}

type surveySeedRef struct {
	Rows   int    `json:"rows"`
	SHA256 string `json:"sha256"`
}

type refTables struct {
	Survey map[string]surveyRef `json:"survey"`
	// Serve maps job class → detections per pool index.
	Serve map[string][]int `json:"serve"`
}

func loadRefs() (*refTables, error) {
	var r refTables
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	for _, cs := range []campaignSpec{campaignLF, campaignHF2} {
		if r.Survey[cs.Name].Sim == "" {
			return nil, fmt.Errorf("refs.json: no reference for campaign %s", cs.Name)
		}
	}
	for _, class := range []string{classTiny, classNarrowband, classAdaptive} {
		if len(r.Serve[class]) != poolSize {
			return nil, fmt.Errorf("refs.json: %d %s pool entries, want %d", len(r.Serve[class]), class, poolSize)
		}
	}
	return &r, nil
}

// scanOutput is the deterministic part of one `fase` scan's stdout.
type scanOutput struct {
	Header string
	Rows   []detectionRow
	Sim    string
	SHA256 string // of every line but the wall-clock "elapsed" line
}

type detectionRow struct{ FreqKHz, Score float64 }

var elapsedRE = regexp.MustCompile(`^elapsed [0-9.]+s wall; simulated analyzer time ([0-9.]+)s$`)

// parseScan splits a scan's stdout into header, detection rows and the
// simulated analyzer time.
func parseScan(stdout string) (scanOutput, error) {
	var so scanOutput
	h := sha256.New()
	inTable := false
	for _, line := range strings.Split(strings.TrimRight(stdout, "\n"), "\n") {
		if m := elapsedRE.FindStringSubmatch(line); m != nil {
			so.Sim = m[1]
			continue
		}
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
		switch {
		case strings.HasPrefix(line, "FASE scan of "):
			so.Header = line
		case strings.HasPrefix(line, "  carrier kHz"):
			inTable = true
		case strings.HasPrefix(line, "  harmonic sets:"):
			inTable = false
		case inTable:
			f := strings.Fields(line)
			if len(f) < 5 {
				return so, fmt.Errorf("malformed detection row %q", line)
			}
			freq, err1 := strconv.ParseFloat(f[0], 64)
			score, err2 := strconv.ParseFloat(f[1], 64)
			if err1 != nil || err2 != nil {
				return so, fmt.Errorf("malformed detection row %q", line)
			}
			so.Rows = append(so.Rows, detectionRow{freq, score})
		}
	}
	if so.Header == "" || so.Sim == "" {
		return so, fmt.Errorf("scan output lacks its header or elapsed line")
	}
	so.SHA256 = hex.EncodeToString(h.Sum(nil))
	return so, nil
}

// checkScan checks one survey scan against the reference for its seed,
// or structurally when the seed is not one the benchmark ships.
func checkScan(refs *refTables, cs campaignSpec, seed int64, stdout string) error {
	so, err := parseScan(stdout)
	if err != nil {
		return err
	}
	ref, ok := refs.Survey[cs.Name]
	if !ok {
		return fmt.Errorf("no reference for campaign %s", cs.Name)
	}
	if so.Sim != ref.Sim {
		return fmt.Errorf("%s seed %d: simulated analyzer time %ss, want %ss", cs.Name, seed, so.Sim, ref.Sim)
	}
	if sr, ok := ref.Seeds[strconv.FormatInt(seed, 10)]; ok {
		if len(so.Rows) != sr.Rows || so.SHA256 != sr.SHA256 {
			return fmt.Errorf("%s seed %d: %d detections (output %s), reference has %d (%s)",
				cs.Name, seed, len(so.Rows), so.SHA256[:12], sr.Rows, sr.SHA256[:12])
		}
		return nil
	}
	c := cs.Campaign
	for _, r := range so.Rows {
		if f := r.FreqKHz * 1e3; f < c.F1 || f > c.F2 || r.Score < minScore {
			return fmt.Errorf("%s seed %d: detection %.2f kHz score %.1f outside band or below threshold",
				cs.Name, seed, r.FreqKHz, r.Score)
		}
	}
	return nil
}

// minScore is core.Campaign's default detection threshold.
const minScore = 30
