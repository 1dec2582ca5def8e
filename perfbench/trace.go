package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: what was called,
// when it started and ended, the span that caused it, and the operation
// (one study, request or live run) it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for an operation's root span
	Op     string `json:"op"`
	Name   string `json:"name"`
	// StartNS and EndNS count nanoseconds since the tracer was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps every span in memory until the run ends, when write dumps
// them. A nil *tracer records nothing, so the untraced passes execute the
// same code with one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// begin opens a span of op under parent (0 opens a root) and returns its
// id for end.
func (t *tracer) begin(op, name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: start, EndNS: start})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// add records a span timed elsewhere: the run-store wrapper times appends
// on service goroutines, and they are attributed to requests afterwards.
func (t *tracer) add(op, name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: t.since(start), EndNS: t.since(end)})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durationsMS lists the durations of every span with the given name, in
// milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, ms(spans[i].dur()))
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Children may overlap one
// another (the ingest follower streams beside the posts), so the covered
// part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		start, end := max(k.StartNS, p.StartNS), min(k.EndNS, p.EndNS)
		if end <= start {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = start, end, true
		case start <= curEnd:
			curEnd = max(curEnd, end)
		default:
			total += curEnd - curStart
			curStart, curEnd = start, end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// uncoveredMS lists, per root span with the given name, the time no layer
// span covers: the benchmark's own glue between calls.
func uncoveredMS(spans []span, root string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}
