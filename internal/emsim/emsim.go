// Package emsim renders the electromagnetic emanations of a simulated
// computer system plus its RF environment as complex-baseband captures —
// the software stand-in for the paper's antenna.
//
// Rendering uses the superheterodyne model: a capture is taken for a Band
// (center frequency + sample rate); each component adds only the spectral
// content that falls within the band, so carriers at hundreds of MHz never
// require GHz-scale sample rates. Amplitudes are RMS envelopes in √mW, so
// a component emitting a tone with envelope magnitude |A| reads
// 10·log10(|A|²) dBm at the antenna (see package spectral).
package emsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fase/internal/activity"
	"fase/internal/obs"
)

// Band is the frequency window of one capture.
type Band struct {
	Center     float64 // Hz
	SampleRate float64 // complex samples per second; spans Center ± SampleRate/2
}

// Contains reports whether frequency f falls inside the band, with a small
// guard margin so content right at the edge (where the anti-alias response
// would be rolling off) is excluded.
func (b Band) Contains(f float64) bool {
	const guard = 0.98
	half := b.SampleRate / 2 * guard
	return f > b.Center-half && f < b.Center+half
}

// Overlaps reports whether the closed interval [lo, hi] intersects the
// band, with the same guard margin (and the same strict comparisons) as
// Contains: Overlaps(f, f) == Contains(f) for every f, so extent-based
// culling agrees exactly with the per-line tests renderers apply.
func (b Band) Overlaps(lo, hi float64) bool {
	const guard = 0.98
	half := b.SampleRate / 2 * guard
	return lo < b.Center+half && hi > b.Center-half
}

// Context carries everything a component needs to render one capture.
type Context struct {
	Band  Band
	Start float64 // absolute time of sample 0, seconds
	N     int     // number of samples
	// Rand is the capture's noise source. The scene hands each component
	// its own child generator so components draw independent streams.
	Rand *rand.Rand
	// Activity is the program-activity envelope; nil means idle.
	Activity *activity.Trace
	// NearField enables the short-range probe model used for source
	// localization (§4): system emitters appear stronger and with
	// per-element coupling (e.g. individual DRAM ranks), while
	// environment signals do not.
	NearField bool
	// NearFieldGainDB is the probe gain applied to system emitters when
	// NearField is set.
	NearFieldGainDB float64
	// Prep is the component's prepared per-segment state when the capture
	// was rendered under a RenderPlan (see Prepper), nil otherwise.
	// Renderers must produce bit-identical output with or without it.
	Prep any
	// NoSegment asks load-following renderers to walk the activity trace
	// sample by sample instead of iterating its constant-load runs. Both
	// paths are bit-identical by contract (enforced by the equivalence
	// tests); this is a debugging escape hatch, mirrored by
	// specan.Config.NoSegment.
	NoSegment bool
}

// Dt returns the sample period.
func (c *Context) Dt() float64 { return 1 / c.Band.SampleRate }

// idleTrace is the shared constant-idle envelope used when a capture has
// no activity trace (read-only, so safe to share between captures).
var idleTrace = activity.NewConstant(activity.LoadOf(activity.Idle))

// Loads returns an activity cursor for the capture, treating a nil
// activity trace as idle.
func (c *Context) Loads() *activity.Cursor {
	tr := c.Activity
	if tr == nil {
		tr = idleTrace
	}
	return tr.Cursor()
}

// DomainRuns returns the capture's activity envelope projected onto one
// power domain as constant-load sample runs (see activity.DomainRuns),
// with the same nil-trace-means-idle substitution as Loads. Renderers
// iterating these runs see exactly the per-sample loads a Cursor walk
// would produce, so run-length and per-sample rendering agree bit for bit.
func (c *Context) DomainRuns(d activity.Domain) activity.DomainRuns {
	tr := c.Activity
	if tr == nil {
		tr = idleTrace
	}
	return tr.DomainRuns(d, c.Start, c.Dt(), c.N)
}

// Component is anything that adds signal (or noise) to a capture.
type Component interface {
	// Name identifies the component in reports and ground-truth tables.
	Name() string
	// Render adds the component's complex-baseband contribution to dst,
	// which has ctx.N samples.
	Render(dst []complex128, ctx *Context)
}

// Emitter is a system component with known carriers — the ground truth
// FASE's output is validated against.
type Emitter interface {
	Component
	// Carriers lists the carrier frequencies the component emits within
	// [f1, f2].
	Carriers(f1, f2 float64) []float64
	// Domain is the power domain whose activity modulates the component's
	// amplitude; DomainNone means no program activity modulates it.
	Domain() activity.Domain
	// AMModulated reports whether the component's emissions are
	// amplitude-modulated by activity in its domain. False for emitters
	// that are only frequency-modulated (§4.4's constant-on-time
	// regulator), which FASE must correctly not report.
	AMModulated() bool
}

// Scene is a complete measurement setup: a system's emitters plus the
// surrounding RF environment.
type Scene struct {
	Components []Component
}

// Add appends components to the scene.
func (s *Scene) Add(cs ...Component) { s.Components = append(s.Components, cs...) }

// Emitters returns the scene's components that expose ground truth.
func (s *Scene) Emitters() []Emitter {
	var out []Emitter
	for _, c := range s.Components {
		if e, ok := c.(Emitter); ok {
			out = append(out, e)
		}
	}
	return out
}

// Capture describes one rendering request.
type Capture struct {
	Band            Band
	Start           float64
	N               int
	Activity        *activity.Trace
	Seed            int64
	NearField       bool
	NearFieldGainDB float64
	// Plan, when non-nil, is a render plan computed by Scene.Plan for this
	// capture's Band and N: components the plan marks inactive are skipped
	// (their child-seed draw is still consumed, so output is bit-identical)
	// and active components receive their prepared state via Context.Prep.
	Plan *RenderPlan
	// Static, when non-nil, is the cached static layer built by
	// Scene.BuildStaticSet for this exact capture identity (band, n,
	// start, seed, probe) and conditional-static key: RenderInto copies
	// it into dst in place of rendering the layer's components. Every
	// render, cached or not, accumulates the static layer first and the
	// dynamic components after it, so replay is bit-identical to live
	// rendering by construction (see StaticRenderer). RenderInto verifies
	// the set's identity and key against the capture.
	Static *StaticSet
	// NoSegment is forwarded to Context.NoSegment: load-following
	// renderers fall back to per-sample trace walks (bit-identical; a
	// debugging escape hatch).
	NoSegment bool
	// Obs, when non-nil, attributes this capture's live component renders
	// by wall time and count (the per-component table of the run
	// manifest, plus the fase_render_component_seconds histogram), and
	// BuildStaticSet adds the bytes of the set it builds to the run's
	// static-cache total. Instrumentation never changes rendered output.
	Obs *obs.Run
}

// renderScratch holds the per-capture PRNG and context state RenderInto
// reuses between captures. Re-seeding a pooled generator produces exactly
// the same stream as constructing a fresh one, so pooling does not change
// rendered output.
type renderScratch struct {
	root, child *rand.Rand
	ctx         Context
	// seeds holds the capture's per-component child seeds, drawn up front
	// so the static layer can render before the dynamic components.
	seeds []int64
	// layer marks the components a live render put in the static layer.
	layer []bool
	// cond is the capture's conditional-static key scratch (see
	// AppendCondStaticKey), pooled so set verification stays allocation-free.
	cond []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &renderScratch{
		root:  rand.New(rand.NewSource(0)),
		child: rand.New(rand.NewSource(0)),
	}
}}

// begin prepares the scratch for one capture of the scene: the context
// from the capture, and every component's child seed, drawn from the
// root stream in component order. The draw covers components the plan
// skips or the static set replays too, so every component's stream — and
// therefore the rendered output — is independent of both.
func (sc *renderScratch) begin(s *Scene, c Capture) {
	sc.ctx = Context{
		Band:            c.Band,
		Start:           c.Start,
		N:               c.N,
		Activity:        c.Activity,
		NearField:       c.NearField,
		NearFieldGainDB: c.NearFieldGainDB,
		NoSegment:       c.NoSegment,
	}
	n := len(s.Components)
	if cap(sc.seeds) < n {
		sc.seeds, sc.layer = make([]int64, n), make([]bool, n)
	}
	sc.seeds, sc.layer = sc.seeds[:n], sc.layer[:n]
	sc.root.Seed(c.Seed)
	for i := range sc.seeds {
		sc.seeds[i] = sc.root.Int63()
		sc.layer[i] = false
	}
}

// render adds component i's contribution to dst from its drawn child
// seed (and its prepared state under plan), attributing the wall time to
// run when it is non-nil. Seeding the child is deferred to here because
// rand.Seed walks the generator's whole 607-word state, which costs more
// than replaying a cached layer.
func (sc *renderScratch) render(dst []complex128, s *Scene, plan *RenderPlan, i int, run *obs.Run) {
	c := s.Components[i]
	sc.child.Seed(sc.seeds[i])
	sc.ctx.Rand = sc.child
	if plan != nil {
		sc.ctx.Prep = plan.prep[i]
	}
	if run != nil {
		t0 := time.Now()
		c.Render(dst, &sc.ctx)
		run.AddComponentRender(c.Name(), time.Since(t0).Seconds())
	} else {
		c.Render(dst, &sc.ctx)
	}
	sc.ctx.Prep = nil
}

// end drops the capture's references and returns the scratch to the pool.
func (sc *renderScratch) end() {
	sc.ctx.Rand = nil
	sc.ctx.Activity = nil
	scratchPool.Put(sc)
}

// Render counters: captures rendered and components the active plan let a
// capture skip — the planner's realized savings, per capture.
var (
	capturesRendered = obs.Default.Counter(obs.MetricRenderCaptures)
	renderSkips      = obs.Default.Counter(obs.MetricRenderComponentSkips)
)

// Render produces the complex-baseband samples for a capture.
func (s *Scene) Render(cap Capture) []complex128 {
	dst := make([]complex128, cap.N)
	s.RenderInto(dst, cap)
	return dst
}

// RenderInto renders a capture into dst, which must have exactly cap.N
// elements; dst is overwritten. The accumulation order is fixed: the
// capture's static layer (see StaticRenderer) is summed into the zeroed
// dst first, in component order — or copied from cap.Static — and every
// other active component is then added in component order. It is the
// allocation-free form of Render used by the sweep worker pool: all
// per-capture bookkeeping comes from a pool, so only component-internal
// state allocates. Concurrent RenderInto calls on one Scene are safe as
// long as every component's Render is (all components in this repository
// are).
func (s *Scene) RenderInto(dst []complex128, cap Capture) {
	if cap.N <= 0 {
		panic(fmt.Sprintf("emsim: capture length %d must be positive", cap.N))
	}
	if cap.Band.SampleRate <= 0 {
		panic(fmt.Sprintf("emsim: sample rate %g must be positive", cap.Band.SampleRate))
	}
	if len(dst) != cap.N {
		panic(fmt.Sprintf("emsim: destination has %d samples for a %d-sample capture", len(dst), cap.N))
	}
	sc := scratchPool.Get().(*renderScratch)
	sc.begin(s, cap)
	plan := cap.Plan
	if plan != nil {
		plan.check(cap, len(s.Components))
		renderSkips.Add(int64(plan.ncomp - plan.nactive))
	}
	capturesRendered.Inc()
	run := cap.Obs
	// The static layer first, then every other active component on top.
	layer := sc.layer
	if static := cap.Static; static != nil {
		static.check(cap, len(s.Components))
		// The set bakes in the capture's conditionally static layers: the
		// capture's activity trace must reproduce the same classification
		// and window-constant loads the set was built under.
		sc.cond = s.AppendCondStaticKey(sc.cond[:0], cap)
		if string(sc.cond) != static.cond {
			panic(fmt.Sprintf(
				"emsim: static set built for cond-static key %x used with a capture keying %x",
				static.cond, sc.cond))
		}
		copy(dst, static.sum)
		layer = static.in
		staticReplays.Add(int64(static.cached))
		if run != nil {
			for i, in := range layer {
				if in {
					run.AddComponentReplay(s.Components[i].Name())
				}
			}
		}
	} else {
		clear(dst)
		s.staticLayer(cap, func(i int, _ activity.Domain, _ float64) {
			layer[i] = true
			sc.render(dst, s, plan, i, run)
		})
	}
	for i := range s.Components {
		if layer[i] || plan != nil && !plan.active[i] {
			continue
		}
		sc.render(dst, s, plan, i, run)
	}
	sc.end()
}

// GroundTruthCarrier is one expected detection for validation.
type GroundTruthCarrier struct {
	Source    string
	Freq      float64
	Domain    activity.Domain
	Modulated bool // AM-modulated by the given X/Y activity pair
}

// GroundTruth enumerates every emitter carrier in [f1, f2] and whether the
// X/Y activity pair AM-modulates it: the pair must change the emitter's
// domain load by at least minDelta, and the emitter must be AM-capable.
func (s *Scene) GroundTruth(f1, f2 float64, x, y activity.Kind, minDelta float64) []GroundTruthCarrier {
	lx, ly := activity.LoadOf(x), activity.LoadOf(y)
	var out []GroundTruthCarrier
	for _, e := range s.Emitters() {
		d := e.Domain()
		delta := d.Of(lx) - d.Of(ly)
		if delta < 0 {
			delta = -delta
		}
		mod := e.AMModulated() && d != activity.DomainNone && delta >= minDelta
		for _, f := range e.Carriers(f1, f2) {
			out = append(out, GroundTruthCarrier{Source: e.Name(), Freq: f, Domain: d, Modulated: mod})
		}
	}
	return out
}
