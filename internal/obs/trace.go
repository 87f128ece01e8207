package obs

import (
	"encoding/json"
	"io"
)

// Span is an empty placeholder that carries nothing and is ignored. It
// exists only so callers of the shard API's RenderShard and ReduceShards,
// which still take one, keep compiling; pass obs.Span{}.
type Span struct{}

// chromeEvent is one trace_event entry: "X" is a complete event with a
// duration, "i" an instant (scope "t", its thread). ts and dur are
// microseconds since the journal's epoch.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	S    string  `json:"s,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int64   `json:"tid"`
	Args *Event  `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace_event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the journal as Chrome trace_event JSON
// (chrome://tracing, Perfetto and speedscope load it), one thread per
// journal track: a "campaign" span from campaign_start to campaign_end
// and one span per stage_start/stage_end pair on tid 0, one "sweep" span
// per sweep_start/sweep_end pair on its sweep's track, and every other
// event as an instant on its track. Each span's args are its closing
// event, each instant's args the event itself. A start whose end was
// never emitted (a cancelled run) draws nothing.
func (j *Journal) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	open := map[spanKey]float64{}
	for _, e := range j.CanonicalEvents() {
		ce := chromeEvent{Name: e.Kind, Cat: "fase", Ph: "i", S: "t", Ts: e.T * 1e6, Pid: 1, Tid: e.Track, Args: &e}
		switch e.Kind {
		case EventCampaignStart, EventStageStart, EventSweepStart:
			open[spanOf(e)] = e.T
			continue
		case EventCampaignEnd, EventStageEnd, EventSweepEnd:
			k := spanOf(e)
			t0, ok := open[k]
			if !ok {
				continue
			}
			delete(open, k)
			ce.Name, ce.Ph, ce.S, ce.Ts, ce.Dur = k.name, "X", "", t0*1e6, (e.T-t0)*1e6
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return json.NewEncoder(w).Encode(out)
}

// spanKey names one open trace span: its track and its name.
type spanKey struct {
	track int64
	name  string
}

// spanOf names the trace span a start or end event opens or closes: a
// stage by its name, the campaign and sweeps by their kind's stem.
func spanOf(e Event) spanKey {
	switch e.Kind {
	case EventCampaignStart, EventCampaignEnd:
		return spanKey{e.Track, "campaign"}
	case EventSweepStart, EventSweepEnd:
		return spanKey{e.Track, "sweep"}
	}
	return spanKey{e.Track, e.Name}
}

// WriteChromeTraceFile writes the Chrome trace to path, replacing any
// previous file whole (see writeFileAtomic).
func (j *Journal) WriteChromeTraceFile(path string) error {
	return writeFileAtomic(path, j.WriteChromeTrace)
}
