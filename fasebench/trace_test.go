package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	u := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "campaign", Start: 0, End: 100 * u},
		// Two overlapping children cover [10, 60]: 50 ms, not 70.
		{ID: 2, Parent: 1, Name: "shard", Start: 10 * u, End: 50 * u},
		{ID: 3, Parent: 1, Name: "shard", Start: 30 * u, End: 60 * u},
		// A disjoint child covers [70, 80]; one overrunning the parent
		// is clipped to [90, 100].
		{ID: 4, Parent: 1, Name: "reduce", Start: 70 * u, End: 80 * u},
		{ID: 5, Parent: 1, Name: "late", Start: 90 * u, End: 120 * u},
		// A grandchild reduces its parent's self time only.
		{ID: 6, Parent: 2, Name: "capture", Start: 20 * u, End: 25 * u},
		// An unfinished span counts as zero and covers nothing.
		{ID: 7, Parent: 1, Name: "open", Start: 0, End: -1},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 30 * u, 2: 35 * u, 3: 30 * u, 4: 10 * u, 5: 30 * u, 6: 5 * u, 7: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if len(sum) != 5 || sum[1].Name != "shard" || sum[1].Count != 2 || sum[1].SelfMS != 65 {
		t.Errorf("summary %+v", sum)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0)
	if id != 0 || tr.End(id) != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded something")
	}
	tr = newTracer()
	a := tr.Begin("a", 0)
	b := tr.Begin("b", a)
	tr.End(b)
	tr.End(a)
	sp := tr.Spans()
	if len(sp) != 2 || sp[1].Parent != a || sp[0].End < sp[1].End {
		t.Fatalf("spans %+v", sp)
	}
}
