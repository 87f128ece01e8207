package emsim

import (
	"fmt"
	"math"

	"fase/internal/activity"
	"fase/internal/obs"
)

// StaticRenderer is the static-layer capability: a component that can
// report, for a given capture geometry, that its rendered contribution
// depends on the program-activity trace at most through one power
// domain's load. Such a component belongs to a capture's static layer —
// unconditionally, or whenever its domain's load is constant across the
// capture window — and the layer is a pure function of the capture
// identity (band, n, start, seed, probe) plus those window-constant loads,
// so one rendering can be cached and replayed across every alternation
// scan of a campaign: the scans share capture seeds and differ only in
// activity.
//
// The contract is exact, not approximate. RenderInto accumulates the
// static layer into the zeroed capture first, in component order, and
// adds the dynamic components after it; BuildStaticSet renders the same
// layer in the same order into a zeroed buffer. Replay is therefore a
// plain copy of the summed layer, bit-identical to the live render by
// construction — provided every classification below is true.
type StaticRenderer interface {
	Component
	// StaticDomain returns (activity.DomainNone, true) when the
	// component's contribution to captures of n samples in band is
	// independent of the activity trace, and (d, true) when it depends on
	// the trace only through domain d's load: for any trace whose d-load
	// equals the same constant at every sample of the capture, Render
	// must produce the same output, drawing from ctx.Rand identically.
	// Any other activity dependence must return ok == false.
	StaticDomain(band Band, n int) (d activity.Domain, ok bool)
}

// StaticSet is the cached static layer of one capture: the summed
// contribution of every static-layer component, keyed by the full capture
// identity (geometry, start time, seed, probe placement) and, when the
// layer includes conditionally static components, by their window-constant
// loads. It is immutable after BuildStaticSet returns and safe to share
// between concurrent RenderInto calls.
type StaticSet struct {
	band            Band
	start           float64
	n               int
	seed            int64
	nearField       bool
	nearFieldGainDB float64
	// sum is the rendered static layer, one n-sample stream.
	sum []complex128
	// in[i] reports whether component i is part of the layer (and so is
	// skipped by the dynamic pass of RenderInto).
	in     []bool
	cached int
	// cond is the conditional-static key the set was built under (see
	// AppendCondStaticKey); RenderInto verifies a capture's key against
	// it before replaying.
	cond string
}

// Static-layer counters: components captured into static sets, component
// renders replaced by replays, and the bytes the built sets hold. The
// cache-level hit/miss pair lives with the cache owner in package specan.
var (
	staticComponents = obs.Default.Counter(obs.MetricStaticComponents)
	staticReplays    = obs.Default.Counter(obs.MetricStaticReplays)
	staticBytes      = obs.Default.Counter(obs.MetricStaticCacheBytes)
)

// Components reports how many components the set caches.
func (st *StaticSet) Components() int { return st.cached }

// staticDomain resolves a component's static classification for one
// geometry (see StaticRenderer).
func staticDomain(c Component, band Band, n int) (activity.Domain, bool) {
	sr, ok := c.(StaticRenderer)
	if !ok {
		return activity.DomainNone, false
	}
	return sr.StaticDomain(band, n)
}

// staticLayer walks the capture's static layer in component order: every
// component active under cap.Plan (every component, without a plan) that
// classifies static for the geometry — unconditionally, or conditionally
// when its domain's load is constant across the capture window — yielding
// the component's index, domain, and window-constant load (0 for
// DomainNone). RenderInto, BuildStaticSet and AppendCondStaticKey all go
// through this walk, so the live render, the cached set, and its cache key
// agree on the layer by construction.
func (s *Scene) staticLayer(cap Capture, fn func(i int, d activity.Domain, load float64)) {
	plan := cap.Plan
	tr := cap.Activity
	if tr == nil {
		tr = idleTrace
	}
	dt := 1 / cap.Band.SampleRate
	t1 := cap.Start + float64(cap.N-1)*dt
	for i, c := range s.Components {
		var d activity.Domain
		if plan != nil {
			if !plan.static[i] {
				continue
			}
			d = plan.dom[i]
		} else {
			var ok bool
			if d, ok = staticDomain(c, cap.Band, cap.N); !ok {
				continue
			}
		}
		var load float64
		if d != activity.DomainNone {
			var constant bool
			if load, constant = tr.DomainConstant(d, cap.Start, t1); !constant {
				continue
			}
		}
		fn(i, d, load)
	}
}

// appendCondKey appends one conditional-static key entry: the component
// index (2 bytes big-endian) followed by the load's IEEE-754 bits.
func appendCondKey(dst []byte, i int, load float64) []byte {
	b := math.Float64bits(load)
	return append(dst,
		byte(i>>8), byte(i),
		byte(b>>56), byte(b>>48), byte(b>>40), byte(b>>32),
		byte(b>>24), byte(b>>16), byte(b>>8), byte(b))
}

// AppendCondStaticKey appends the capture's conditional-static key to dst
// and returns the extended slice: for every conditionally static component
// whose domain load is constant across the capture window, the component
// index (2 bytes big-endian) followed by the load's IEEE-754 bits (8
// bytes). Two captures with equal static identity and equal keys share
// one static layer bit for bit; the empty key means no conditionally
// static component joins the layer under this activity trace.
// Allocation-free when dst has capacity.
func (s *Scene) AppendCondStaticKey(dst []byte, cap Capture) []byte {
	s.staticLayer(cap, func(i int, d activity.Domain, load float64) {
		if d != activity.DomainNone {
			dst = appendCondKey(dst, i, load)
		}
	})
	return dst
}

// BuildStaticSet renders the capture's static layer (see staticLayer) into
// one zeroed n-sample stream, in component order and from the same child
// seeds RenderInto draws. The trace never feeds the renders directly:
// activity-independent components run against a nil trace and
// conditionally static ones against a constant trace holding only their
// own domain's window load, so a misclassified component diverges from the
// live render immediately rather than matching one scan's activity by
// accident. Returns nil when no component qualifies.
func (s *Scene) BuildStaticSet(cap Capture) *StaticSet {
	if cap.N <= 0 || cap.Band.SampleRate <= 0 {
		panic(fmt.Sprintf("emsim: invalid static-set capture geometry %+v", cap.Band))
	}
	plan := cap.Plan
	if plan != nil {
		plan.check(cap, len(s.Components))
	}
	st := &StaticSet{
		band:            cap.Band,
		start:           cap.Start,
		n:               cap.N,
		seed:            cap.Seed,
		nearField:       cap.NearField,
		nearFieldGainDB: cap.NearFieldGainDB,
		in:              make([]bool, len(s.Components)),
	}
	sc := scratchPool.Get().(*renderScratch)
	sc.begin(s, cap)
	var key []byte
	s.staticLayer(cap, func(i int, d activity.Domain, load float64) {
		if st.sum == nil {
			st.sum = make([]complex128, cap.N)
		}
		sc.ctx.Activity = nil
		if d != activity.DomainNone {
			sc.ctx.Activity = activity.NewConstant(d.Only(load))
			key = appendCondKey(key, i, load)
		}
		sc.render(st.sum, s, plan, i, nil)
		st.in[i] = true
		st.cached++
	})
	sc.end()
	if st.cached == 0 {
		return nil
	}
	st.cond = string(key)
	bytes := int64(16 * cap.N)
	staticComponents.Add(int64(st.cached))
	staticBytes.Add(bytes)
	if cap.Obs != nil {
		cap.Obs.StaticCacheBytes.Add(bytes)
	}
	return st
}

// check panics if the set was built for a different capture identity than
// the one being rendered — replaying across seeds, start times, or probe
// placements would silently corrupt output, so geometry mismatches are
// programming errors.
func (st *StaticSet) check(cap Capture, ncomp int) {
	if st.band != cap.Band || st.n != cap.N || st.start != cap.Start || st.seed != cap.Seed ||
		st.nearField != cap.NearField || st.nearFieldGainDB != cap.NearFieldGainDB || len(st.in) != ncomp {
		panic(fmt.Sprintf(
			"emsim: static set for band %+v n=%d start=%g seed=%d used with band %+v n=%d start=%g seed=%d",
			st.band, st.n, st.start, st.seed, cap.Band, cap.N, cap.Start, cap.Seed))
	}
}
