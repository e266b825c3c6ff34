package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Ring is a bounded in-memory exporter: the newest finished spans are
// kept in a circular buffer and queryable by trace id. It backs the
// daemon's GET /v1/traces and GET /v1/traces/{id} endpoints. Safe for
// concurrent export and query.
type Ring struct {
	mu   sync.Mutex
	buf  []SpanData
	next int
	full bool
}

// NewRing builds a Ring holding at most capacity finished spans; capacity
// must be positive.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: ring capacity %d must be positive", capacity))
	}
	return &Ring{buf: make([]SpanData, capacity)}
}

// ExportSpan implements Exporter: the oldest span is overwritten once the
// ring is full.
func (r *Ring) ExportSpan(sd SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = sd
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// Len reports how many spans the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Spans returns the retained spans, oldest first.
func (r *Ring) Spans() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spansLocked()
}

func (r *Ring) spansLocked() []SpanData {
	if !r.full {
		return append([]SpanData(nil), r.buf[:r.next]...)
	}
	out := make([]SpanData, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Trace returns every retained span of the trace, ordered by start time
// (nil when the trace is unknown or fully evicted).
func (r *Ring) Trace(traceID string) []SpanData {
	if traceID == "" {
		return nil
	}
	var out []SpanData
	for _, sd := range r.Spans() {
		if sd.TraceID == traceID {
			out = append(out, sd)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceSummary is one row of the trace listing.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// Root is the name of the trace's root span (no parent among the
	// retained spans); when the root was evicted, the earliest span.
	Root       string    `json:"root"`
	Spans      int       `json:"spans"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	// Error carries the first span error in the trace, if any.
	Error string `json:"error,omitempty"`
}

// Traces summarises the retained traces, most recently finished first,
// capped at limit (limit <= 0 means all).
func (r *Ring) Traces(limit int) []TraceSummary {
	spans := r.Spans()
	byTrace := make(map[string][]SpanData)
	order := make([]string, 0)
	for _, sd := range spans {
		if _, ok := byTrace[sd.TraceID]; !ok {
			order = append(order, sd.TraceID)
		}
		byTrace[sd.TraceID] = append(byTrace[sd.TraceID], sd)
	}
	out := make([]TraceSummary, 0, len(order))
	for _, id := range order {
		group := byTrace[id]
		ids := make(map[string]bool, len(group))
		for _, sd := range group {
			ids[sd.SpanID] = true
		}
		sum := TraceSummary{TraceID: id, Spans: len(group)}
		var latestEnd time.Time
		for i, sd := range group {
			if i == 0 || sd.Start.Before(sum.Start) {
				sum.Start = sd.Start
			}
			if sd.End.After(latestEnd) {
				latestEnd = sd.End
			}
			if sum.Root == "" && (sd.ParentID == "" || !ids[sd.ParentID]) {
				sum.Root = sd.Name
			}
			if sum.Error == "" && sd.Error != "" {
				sum.Error = sd.Error
			}
		}
		if sum.Root == "" {
			sum.Root = group[0].Name
		}
		sum.DurationMS = float64(latestEnd.Sub(sum.Start)) / float64(time.Millisecond)
		out = append(out, sum)
	}
	// Most recently started first: newest activity is what an operator
	// looks for.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
