package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into the simulator's public surface, or one of
// the benchmark's own grouping scopes (an iteration, a backend).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Run    int    `json:"run"`    // iteration index within the process
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// spans records spans in memory. A nil *spans records nothing, so the
// untraced run pays one nil check per call.
type spans struct {
	t0    time.Time
	run   int
	all   []Span
	stack []int // indices into all of the open spans
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its close
// function.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := 0
	if n := len(s.stack); n > 0 {
		parent = s.all[s.stack[n-1]].ID
	}
	s.all = append(s.all, Span{
		ID: len(s.all) + 1, Parent: parent, Run: s.run, Name: name,
		Start: time.Since(s.t0).Nanoseconds(),
	})
	idx := len(s.all) - 1
	s.stack = append(s.stack, idx)
	return func() {
		s.all[idx].End = time.Since(s.t0).Nanoseconds()
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children: the time spent in that layer itself.
func selfTimes(all []Span) map[string]int64 {
	child := map[int]int64{}
	for _, sp := range all {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]int64{}
	for _, sp := range all {
		out[sp.Name] += sp.End - sp.Start - child[sp.ID]
	}
	return out
}

// write stores every span and the per-name self times as one JSON file,
// labelled with the workload and seed they came from.
func (s *spans) write(path, workload string, seed uint64) error {
	if s == nil {
		return nil
	}
	self := selfTimes(s.all)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name   string `json:"name"`
		SelfNS int64  `json:"self_ns"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Self     []selfRow `json:"self"`
		Spans    []Span    `json:"spans"`
	}{Workload: workload, Seed: seed, Spans: s.all}
	for _, n := range names {
		doc.Self = append(doc.Self, selfRow{n, self[n]})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
