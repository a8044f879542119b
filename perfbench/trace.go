package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded around the call from the
// benchmark's own code. Spans of one op share Op; Parent is the ID of the
// span that caused this one (0 for a top-level span). Times are Unix
// nanoseconds, so spans from the op's child process and from the parent process
// lie on one timeline.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and returns ID 0, so untraced ops pay one branch per
// boundary.
type tracer struct {
	on    bool
	op    int
	base  int // IDs start after base, so a child's spans can nest under a parent-process span
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	id := t.base + len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: time.Now().UnixNano()})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-t.base-1].End = time.Now().UnixNano()
}

// elapsed is the duration of a closed span begin returned.
func (t *tracer) elapsed(id int) time.Duration {
	if id == 0 {
		return 0
	}
	s := t.spans[id-t.base-1]
	return time.Duration(s.End - s.Start)
}

// layerOf is the layer a span belongs to: its name up to the first dot,
// which the benchmark spells after the package it calls into.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (work
// running in parallel under one caller) are merged first, so covered time
// is never counted twice and self time is never negative.
func selfTimes(spans []span) []int64 {
	type key struct{ op, id int }
	children := map[key][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[key{s.Op, s.ID}] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] || iv[a][0] == iv[b][0] && iv[a][1] < iv[b][1] })
		covered, reach := int64(0), s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, st := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += st
	}
	return out
}
