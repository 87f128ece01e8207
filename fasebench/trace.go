package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one traced interval: a call into a layer made from the
// benchmark's own code, or a service job's lifecycle as the load
// generator observed it. Times are offsets from the trace origin.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0 = root
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"` // service job id, for service spans
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and pay only the nil checks.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// Add records a span timed elsewhere (absolute start and end).
func (t *Tracer) Add(name string, parent int, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap each
// other (concurrent shards), so coverage is the measure of the union of
// their intervals clipped to the parent, not the sum of their durations.
// Spans still open (End < Start) count as zero.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			self[s.ID] = 0
			continue
		}
		self[s.ID] = (s.End - s.Start) - coverage(children[s.ID], s.Start, s.End)
	}
	return self
}

// coverage is the length of the union of ivs within [lo, hi].
func coverage(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarize(spans []Span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	var names []string
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.TotalMS += ms(s.End - s.Start)
		a.SelfMS += ms(self[s.ID])
	}
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *by[n])
	}
	return out
}

// traceFile is the document a traced run writes when it ends.
type traceFile struct {
	Host     hostInfo      `json:"host"`
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Metrics  metrics       `json:"metrics"`
	Notes    []string      `json:"notes,omitempty"`
	Summary  []spanSummary `json:"summary"`
	Spans    []Span        `json:"spans"`
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
