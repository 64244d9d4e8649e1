package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside the engine are ROADMAP item 5).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Op     int    `json:"op_id"`  // spans of one replayed operation share it
}

// tracer keeps spans in memory; one goroutine drives it, so the open
// spans form a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.op++
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, i)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].Start = int64(start.Sub(t.t0))
	t.spans[i].End = int64(end.Sub(t.t0))
	return end.Sub(start)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (and stick out of the parent); covered time is counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeTrace writes the spans and the per-layer self-time totals.
func writeTrace(path, workload string, spans []span) error {
	selfByName := map[string]int64{}
	for i, ns := range selfTimes(spans) {
		selfByName[spans[i].Name] += ns
	}
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		SelfNS   map[string]int64 `json:"self_ns_by_name"`
		Spans    []span           `json:"spans"`
	}{workload, selfByName, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
