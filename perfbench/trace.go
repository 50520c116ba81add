package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded around a call into the program. Spans
// of one operation (a query execution or a served request) share req;
// parent is the id of the enclosing span, 0 for a root.
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished interval and returns its id.
func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children's intervals cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps in ascending order), one thread row
// per operation.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: s.Start.Microseconds(), Dur: (s.End - s.Start).Microseconds(),
			Pid: 1, Tid: s.Req,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
