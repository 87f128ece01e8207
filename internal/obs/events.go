package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// JournalSchema identifies the event-journal layout (the first JSONL line
// of every archived journal); bump it when the event shape changes
// incompatibly.
const JournalSchema = "fase-events/1"

// Event kinds, in rough lifecycle order. Every event the pipeline emits
// uses one of these; ValidateJournal rejects unknown kinds.
const (
	// EventCampaignStart opens a run: Name is the planner mode
	// ("exhaustive" or "adaptive"), F1Hz/F2Hz the scanned band, Total the
	// planned capture count (the budget cap for adaptive runs).
	EventCampaignStart = "campaign_start"
	// EventCampaignEnd closes a run: Captures spent, Detections reported.
	EventCampaignEnd = "campaign_end"
	// EventStageStart/EventStageEnd bracket one sequential pipeline stage
	// (Name); the end event carries the stage's WallSeconds and
	// CPUSeconds. Run.Stages and the manifest's stages are read from the
	// coordinator track's stage_end events.
	EventStageStart = "stage_start"
	EventStageEnd   = "stage_end"
	// EventSweepPlan announces one ladder sweep before it starts: FAltHz
	// is the alternation frequency, F1Hz/F2Hz the swept band.
	EventSweepPlan = "sweep_plan"
	// EventSweepStart/Progress/End trace one sweep's capture work: Total
	// is the sweep's capture count, Captures the deterministic progress
	// position (reduce-order, not render-completion order).
	EventSweepStart    = "sweep_start"
	EventSweepProgress = "sweep_progress"
	EventSweepEnd      = "sweep_end"
	// EventBudgetReserve records one specan.Meter reservation attempt:
	// Captures requested, Outcome "granted" or "denied", Reserved/Cap the
	// meter state after the attempt.
	EventBudgetReserve = "budget_reserve"
	// EventWindowProbe records an adaptive window's probe result (Score)
	// before the scheduler decides its fate; EventWindowOutcome records
	// that fate (Outcome is one of the Window* manifest constants).
	EventWindowProbe   = "window_probe"
	EventWindowOutcome = "window_outcome"
	// EventDetection reports one merged carrier (FreqHz, Score, best
	// Harmonic); EventDetectionHarmonic reports each harmonic's sub-score
	// and elevated count at that carrier.
	EventDetection         = "detection"
	EventDetectionHarmonic = "detection_harmonic"
	// EventEventsDropped is synthesized per SSE subscriber when the
	// slow-subscriber drop policy discarded Dropped events since the last
	// delivery. It exists only in live streams, never in the archived
	// journal, and carries Track -1.
	EventEventsDropped = "events_dropped"
)

// Budget-reservation outcomes (Event.Outcome on EventBudgetReserve).
const (
	ReserveGranted = "granted"
	ReserveDenied  = "denied"
)

// Event is one typed journal entry. Payload fields are a union across
// kinds — unset fields are omitted from the JSON — and every field except
// the wall-clock ones (T, WallSeconds, CPUSeconds; see WithoutWallClock)
// is deterministic for a bit-identical run, which is what makes archived
// journals byte-comparable (see WriteJSONL).
type Event struct {
	// Seq is the event's position in the canonical journal: assigned by
	// WriteJSONL after the deterministic (Track, TSeq) sort. In live SSE
	// streams it reflects arrival order instead, which may interleave
	// tracks differently from run to run.
	Seq int64 `json:"seq"`
	// Track and TSeq are the deterministic ordering key. Track 0 is the
	// campaign coordinator (lifecycle, stages, budget, windows,
	// detections); track 1+i belongs to ladder index i's sweeps. Within a
	// track, emission is sequential, so TSeq is reproducible even though
	// tracks run concurrently.
	Track int64 `json:"track"`
	TSeq  int64 `json:"tseq"`
	// T is wall-clock seconds since the journal was created. It and
	// WallSeconds and CPUSeconds (a stage's elapsed wall time and the
	// process CPU time spent during it, on stage_end) are the wall-clock
	// fields, the only ones that differ between bit-identical runs;
	// WithoutWallClock zeroes all three.
	T    float64 `json:"t"`
	Kind string  `json:"kind"`

	Name        string  `json:"name,omitempty"`
	F1Hz        float64 `json:"f1_hz,omitempty"`
	F2Hz        float64 `json:"f2_hz,omitempty"`
	FAltHz      float64 `json:"falt_hz,omitempty"`
	FreqHz      float64 `json:"freq_hz,omitempty"`
	Harmonic    int     `json:"harmonic,omitempty"`
	Score       float64 `json:"score,omitempty"`
	Priority    float64 `json:"priority,omitempty"`
	Elevated    int     `json:"elevated,omitempty"`
	Captures    int64   `json:"captures,omitempty"`
	Total       int64   `json:"total,omitempty"`
	Reserved    int64   `json:"reserved,omitempty"`
	Cap         int64   `json:"cap,omitempty"`
	Outcome     string  `json:"outcome,omitempty"`
	Detections  int     `json:"detections,omitempty"`
	Dropped     int64   `json:"dropped,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	CPUSeconds  float64 `json:"cpu_seconds,omitempty"`
}

// WithoutWallClock returns the event with every wall-clock field (T,
// WallSeconds, CPUSeconds) zeroed: what is left is the same for every
// bit-identical run, so equivalence checks compare these.
func (e Event) WithoutWallClock() Event {
	e.T, e.WallSeconds, e.CPUSeconds = 0, 0, 0
	return e
}

// Process-wide journal counters (all journals share them).
var (
	journalEmittedTotal = Default.Counter(MetricEventsEmitted)
	journalDroppedTotal = Default.Counter(MetricEventsDropped)
)

// Journal is one run's structured event log plus its live fan-out. Emits
// go through per-track handles (Track) so ordering stays deterministic;
// subscribers (Subscribe) receive the live tail over bounded channels
// with a drop-don't-block policy. All methods are safe for concurrent use
// and nil-safe, so instrumented code threads a *Journal unconditionally.
type Journal struct {
	mu      sync.Mutex
	epoch   time.Time
	events  []Event
	tracks  map[int64]*JournalTrack
	subs    map[*Subscriber]struct{}
	dropped int64
	closed  bool
}

// NewJournal returns an empty journal with its epoch set to now.
func NewJournal() *Journal {
	return &Journal{
		epoch:  time.Now(),
		tracks: make(map[int64]*JournalTrack),
		subs:   make(map[*Subscriber]struct{}),
	}
}

// JournalTrack is a deterministic emission handle: all events emitted
// through the same track id form one sequential (TSeq-ordered) stream,
// shared by every Track(id) call. A nil track's Emit is a no-op, so hot
// paths thread tracks unconditionally and pay only a nil check when the
// journal is off.
type JournalTrack struct {
	j    *Journal
	id   int64
	next int64 // next TSeq; guarded by j.mu
}

// Track returns the shared handle for track id, creating it on first use.
// A nil journal returns a nil (no-op) track. Negative ids are reserved
// for synthetic events and panic.
func (j *Journal) Track(id int64) *JournalTrack {
	if j == nil {
		return nil
	}
	if id < 0 {
		panic(fmt.Sprintf("obs: journal track id must be non-negative, got %d", id))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	t, ok := j.tracks[id]
	if !ok {
		t = &JournalTrack{j: j, id: id}
		j.tracks[id] = t
	}
	return t
}

// Emit appends one event: the track and track-sequence fields are filled
// in, the timestamp stamped, and the event fanned out to live
// subscribers. Emitting through a nil track does nothing.
func (t *JournalTrack) Emit(e Event) {
	if t == nil {
		return
	}
	j := t.j
	journalEmittedTotal.Inc()
	// Clamp non-finite payload floats exactly like the manifest's
	// detection sanitizer: Inf/NaN would fail json.Marshal in WriteJSONL
	// and the SSE fan-out.
	e.F1Hz = finiteOr(e.F1Hz, 0)
	e.F2Hz = finiteOr(e.F2Hz, 0)
	e.FAltHz = finiteOr(e.FAltHz, 0)
	e.FreqHz = finiteOr(e.FreqHz, 0)
	e.Score = finiteOr(e.Score, math.MaxFloat64)
	e.Priority = finiteOr(e.Priority, math.MaxFloat64)
	e.WallSeconds = finiteOr(e.WallSeconds, 0)
	e.CPUSeconds = finiteOr(e.CPUSeconds, 0)
	j.mu.Lock()
	e.Track = t.id
	e.TSeq = t.next
	t.next++
	e.T = time.Since(j.epoch).Seconds()
	e.Seq = int64(len(j.events))
	j.events = append(j.events, e)
	for s := range j.subs {
		j.deliver(s, e)
	}
	j.mu.Unlock()
}

// Subscriber is one live tail of the journal. Read events from C; the
// channel is closed on Unsubscribe or Journal.Close.
type Subscriber struct {
	// C delivers live events in arrival order. Bounded: when the reader
	// falls behind, events are dropped (never blocking the emitters) and
	// a synthetic EventEventsDropped is delivered once there is room.
	C chan Event
	// dropped is the pending drop count since the last delivery; guarded
	// by the journal mutex.
	dropped int64
}

// Subscribe registers a live subscriber with the given channel capacity
// (minimum 8) and returns it together with a snapshot of every event
// emitted so far — the backlog and the live stream never overlap or gap.
// A nil journal returns a nil subscriber and no backlog.
func (j *Journal) Subscribe(buf int) (*Subscriber, []Event) {
	if j == nil {
		return nil, nil
	}
	if buf < 8 {
		buf = 8
	}
	s := &Subscriber{C: make(chan Event, buf)}
	j.mu.Lock()
	defer j.mu.Unlock()
	backlog := append([]Event(nil), j.events...)
	if j.closed {
		close(s.C)
		return s, backlog
	}
	j.subs[s] = struct{}{}
	return s, backlog
}

// Unsubscribe removes a subscriber and closes its channel. Safe to call
// twice and on nil values.
func (j *Journal) Unsubscribe(s *Subscriber) {
	if j == nil || s == nil {
		return
	}
	j.mu.Lock()
	if _, ok := j.subs[s]; ok {
		delete(j.subs, s)
		close(s.C)
	}
	j.mu.Unlock()
}

// Close detaches and closes every live subscriber. The journal itself
// stays readable (and emittable) — Close only ends the live streams, e.g.
// when the debug server shuts down.
func (j *Journal) Close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.closed = true
	for s := range j.subs {
		delete(j.subs, s)
		close(s.C)
	}
	j.mu.Unlock()
}

// deliver implements the slow-subscriber drop policy: an event is
// delivered only if the subscriber's channel has room (plus room for the
// pending drop notice, if any); otherwise it is counted as dropped and
// the emitter moves on. Callers hold j.mu.
func (j *Journal) deliver(s *Subscriber, e Event) {
	need := 1
	if s.dropped > 0 {
		need = 2 // drop notice + event
	}
	if cap(s.C)-len(s.C) < need {
		s.dropped++
		j.dropped++
		journalDroppedTotal.Inc()
		return
	}
	if s.dropped > 0 {
		s.C <- Event{Kind: EventEventsDropped, Track: -1, T: e.T, Dropped: s.dropped}
		s.dropped = 0
	}
	s.C <- e
}

// Stats returns how many events were emitted and how many SSE deliveries
// the drop policy discarded (summed over all subscribers).
func (j *Journal) Stats() (emitted, dropped int64) {
	if j == nil {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return int64(len(j.events)), j.dropped
}

// scan calls fn on every event emitted so far, in arrival order, with
// the journal locked: fn must not emit. Each track's events arrive in
// TSeq order. A nil journal has no events.
func (j *Journal) scan(fn func(e *Event)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.events {
		fn(&j.events[i])
	}
}

// CanonicalEvents returns a copy of the journal sorted by (Track, TSeq)
// with Seq rewritten to the canonical position. This ordering is a pure
// function of the run's deterministic event content — two bit-identical
// runs produce identical canonical journals regardless of parallelism or
// caching, up to the wall-clock fields (Event.WithoutWallClock).
func (j *Journal) CanonicalEvents() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	evs := append([]Event(nil), j.events...)
	j.mu.Unlock()
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Track != evs[b].Track {
			return evs[a].Track < evs[b].Track
		}
		return evs[a].TSeq < evs[b].TSeq
	})
	for i := range evs {
		evs[i].Seq = int64(i)
	}
	return evs
}

// journalHeader is the first line of an archived journal.
type journalHeader struct {
	Schema string `json:"schema"`
	Events int    `json:"events"`
}

// WriteJSONL writes the canonical journal: a schema header line followed
// by one JSON object per event in (Track, TSeq) order.
func (j *Journal) WriteJSONL(w io.Writer) error {
	events := j.CanonicalEvents()
	bw := bufio.NewWriter(w)
	head, err := json.Marshal(journalHeader{Schema: JournalSchema, Events: len(events)})
	if err != nil {
		return fmt.Errorf("obs: marshal journal header: %w", err)
	}
	bw.Write(head)
	bw.WriteByte('\n')
	for i := range events {
		line, err := json.Marshal(&events[i])
		if err != nil {
			return fmt.Errorf("obs: marshal event %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSONLFile writes the canonical journal to path, replacing any
// previous file whole (see writeFileAtomic).
func (j *Journal) WriteJSONLFile(path string) error {
	return writeFileAtomic(path, j.WriteJSONL)
}

// knownEventKinds is the archived-journal kind set (EventEventsDropped is
// live-stream-only and deliberately absent).
var knownEventKinds = map[string]bool{
	EventCampaignStart: true, EventCampaignEnd: true,
	EventStageStart: true, EventStageEnd: true,
	EventSweepPlan: true, EventSweepStart: true,
	EventSweepProgress: true, EventSweepEnd: true,
	EventBudgetReserve: true,
	EventWindowProbe:   true, EventWindowOutcome: true,
	EventDetection: true, EventDetectionHarmonic: true,
}

// ValidateJournal checks a serialized journal against the schema: header
// first, canonical contiguous Seq, per-track contiguous TSeq, known
// kinds, non-negative counters and timings, well-formed outcome enums,
// and the pairs the stage, trace and progress views fold: every track-0
// stage_end closes an open stage_start of the same name, and sweep_start
// and sweep_end alternate on each track. It returns the first violation
// found.
func ValidateJournal(data []byte) error {
	lines := splitLines(data)
	if len(lines) == 0 {
		return fmt.Errorf("obs: empty journal")
	}
	var head journalHeader
	if err := json.Unmarshal(lines[0], &head); err != nil {
		return fmt.Errorf("obs: parse journal header: %w", err)
	}
	if head.Schema != JournalSchema {
		return fmt.Errorf("obs: journal schema %q, want %q", head.Schema, JournalSchema)
	}
	events := lines[1:]
	if head.Events != len(events) {
		return fmt.Errorf("obs: journal header says %d events, found %d", head.Events, len(events))
	}
	if len(events) == 0 {
		return fmt.Errorf("obs: journal has no events")
	}
	nextTSeq := map[int64]int64{}
	openStages := map[string]bool{}
	inSweep := map[int64]bool{}
	sawStart := false
	for i, line := range events {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("obs: parse event %d: %w", i, err)
		}
		if e.Seq != int64(i) {
			return fmt.Errorf("obs: event %d has seq %d — journal is not canonical", i, e.Seq)
		}
		if e.Track < 0 {
			return fmt.Errorf("obs: event %d has negative track %d", i, e.Track)
		}
		if e.TSeq != nextTSeq[e.Track] {
			return fmt.Errorf("obs: event %d has tseq %d on track %d, want %d",
				i, e.TSeq, e.Track, nextTSeq[e.Track])
		}
		nextTSeq[e.Track]++
		if !knownEventKinds[e.Kind] {
			return fmt.Errorf("obs: event %d has unknown kind %q", i, e.Kind)
		}
		if e.T < 0 || e.WallSeconds < 0 || e.CPUSeconds < 0 {
			return fmt.Errorf("obs: event %d (%s) has negative timing", i, e.Kind)
		}
		if e.Captures < 0 || e.Total < 0 || e.Reserved < 0 || e.Cap < 0 ||
			e.Detections < 0 || e.Dropped < 0 || e.Elevated < 0 {
			return fmt.Errorf("obs: event %d (%s) has negative counts", i, e.Kind)
		}
		switch e.Kind {
		case EventCampaignStart:
			sawStart = true
		case EventBudgetReserve:
			if e.Outcome != ReserveGranted && e.Outcome != ReserveDenied {
				return fmt.Errorf("obs: event %d has budget outcome %q", i, e.Outcome)
			}
			if e.Reserved > e.Cap {
				return fmt.Errorf("obs: event %d reserves %d over cap %d", i, e.Reserved, e.Cap)
			}
		case EventWindowOutcome:
			switch e.Outcome {
			case WindowRefined, WindowAbandoned, WindowPartial, WindowSkipped:
			default:
				return fmt.Errorf("obs: event %d has window outcome %q", i, e.Outcome)
			}
		case EventStageStart:
			if e.Track == 0 {
				openStages[e.Name] = true
			}
		case EventStageEnd:
			if e.Track == 0 {
				if !openStages[e.Name] {
					return fmt.Errorf("obs: event %d ends stage %q, which is not open", i, e.Name)
				}
				delete(openStages, e.Name)
			}
		case EventSweepStart:
			if inSweep[e.Track] {
				return fmt.Errorf("obs: event %d starts a sweep on track %d inside another", i, e.Track)
			}
			inSweep[e.Track] = true
		case EventSweepProgress, EventSweepEnd:
			if e.Captures > e.Total {
				return fmt.Errorf("obs: event %d reports %d of %d captures", i, e.Captures, e.Total)
			}
			if e.Kind == EventSweepEnd {
				if !inSweep[e.Track] {
					return fmt.Errorf("obs: event %d ends a sweep on track %d that never started", i, e.Track)
				}
				inSweep[e.Track] = false
			}
		}
	}
	if !sawStart {
		return fmt.Errorf("obs: journal has no %s event", EventCampaignStart)
	}
	return nil
}

// ValidateJournalFile reads and validates a journal file.
func ValidateJournalFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return ValidateJournal(data)
}

// splitLines splits on '\n', dropping empty lines (e.g. the trailing
// newline).
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	return out
}
