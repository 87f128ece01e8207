package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"fase/internal/core"
	"fase/internal/machine"
)

// shippedSeeds are the survey seeds refs.json pins exactly; other seeds
// get structural checks.
const shippedSeeds = 64

// recordRefs regenerates refs.json: each survey campaign's CLI output
// for the shipped seeds, and the detection count of every served pool
// entry, computed in process through the same Campaign conversion and
// scene the service uses.
func recordRefs(path, faseBin string) error {
	r := refTables{Survey: map[string]surveyRef{}, Serve: map[string][]int{}}
	for _, cs := range []campaignSpec{campaignLF, campaignHF2} {
		sr := surveyRef{Seeds: map[string]surveySeedRef{}}
		for seed := int64(0); seed < shippedSeeds; seed++ {
			st, err := runProc(context.Background(), time.Now(), faseBin, cs.args(seed), nil)
			if err != nil {
				return err
			}
			so, err := parseScan(st.Stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", cs.Name, seed, err)
			}
			if sr.Sim != "" && sr.Sim != so.Sim {
				return fmt.Errorf("%s: simulated time differs across seeds (%s, %s)", cs.Name, sr.Sim, so.Sim)
			}
			sr.Sim = so.Sim
			sr.Seeds[strconv.FormatInt(seed, 10)] = surveySeedRef{Rows: len(so.Rows), SHA256: so.SHA256}
		}
		r.Survey[cs.Name] = sr
	}
	for _, class := range []string{classTiny, classNarrowband, classAdaptive} {
		for i := 0; i < poolSize; i++ {
			req := classRequest(class, i)
			c, err := req.Campaign()
			if err != nil {
				return err
			}
			sys, err := machine.Lookup(req.System)
			if err != nil {
				return err
			}
			res, err := (&core.Runner{Scene: sys.Scene(c.Seed, req.Environment)}).RunE(c)
			if err != nil {
				return err
			}
			r.Serve[class] = append(r.Serve[class], len(res.Detections))
		}
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
