package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// collector is a test exporter that records every finished span.
type collector struct {
	mu    sync.Mutex
	spans []SpanData
}

func (c *collector) ExportSpan(sd SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, sd)
}

func (c *collector) all() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

func TestSpanParenting(t *testing.T) {
	col := &collector{}
	tr := NewTracer(col)

	ctx, root := tr.StartRoot(context.Background(), "req-123", "http.request")
	cctx, child := Start(ctx, "job.submit", KV("algorithm", "MPPm"))
	_, grand := Start(cctx, "mine.level")
	grand.SetAttr("level", 3)
	grand.End()
	child.End()
	root.SetAttr("status", 200)
	root.End()

	spans := col.all()
	if len(spans) != 3 {
		t.Fatalf("%d spans exported, want 3", len(spans))
	}
	g, c, r := spans[0], spans[1], spans[2]
	if r.TraceID != "req-123" || c.TraceID != "req-123" || g.TraceID != "req-123" {
		t.Errorf("trace ids %q/%q/%q, want req-123 throughout", r.TraceID, c.TraceID, g.TraceID)
	}
	if r.ParentID != "" {
		t.Errorf("root parent = %q, want none", r.ParentID)
	}
	if c.ParentID != r.SpanID {
		t.Errorf("child parent = %q, want root span %q", c.ParentID, r.SpanID)
	}
	if g.ParentID != c.SpanID {
		t.Errorf("grandchild parent = %q, want child span %q", g.ParentID, c.SpanID)
	}
	if g.Name != "mine.level" || len(g.Attrs) != 1 || g.Attrs[0].Key != "level" {
		t.Errorf("grandchild data %+v, want mine.level with a level attr", g)
	}
	if c.Attrs[0].Value != "MPPm" {
		t.Errorf("start attrs not preserved: %+v", c.Attrs)
	}
}

func TestStartLinkAcrossGoroutines(t *testing.T) {
	col := &collector{}
	tr := NewTracer(col)
	_, submit := tr.Start(context.Background(), "job.submit")
	sc := submit.Context()
	submit.End()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, run := tr.StartLink(context.Background(), sc, "job.run")
		run.End()
	}()
	<-done

	spans := col.all()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[1].TraceID != spans[0].TraceID {
		t.Error("linked span landed in a different trace")
	}
	if spans[1].ParentID != spans[0].SpanID {
		t.Errorf("linked span parent = %q, want %q", spans[1].ParentID, spans[0].SpanID)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.Start(context.Background(), "noop")
	if span != nil {
		t.Fatal("nil tracer produced a non-nil span")
	}
	// Every span method must no-op on nil.
	span.SetAttr("k", 1)
	span.AddEvent("e")
	span.RecordError(errors.New("x"))
	span.End()
	if sc := span.Context(); sc.Valid() {
		t.Errorf("nil span context = %+v, want invalid", sc)
	}
	// Start without a span in ctx is also a no-op.
	if _, s := Start(ctx, "child"); s != nil {
		t.Error("Start on a bare context produced a span")
	}
}

func TestEndIdempotent(t *testing.T) {
	col := &collector{}
	tr := NewTracer(col)
	_, span := tr.Start(context.Background(), "once")
	span.End()
	span.End()
	span.End()
	if n := len(col.all()); n != 1 {
		t.Fatalf("span exported %d times, want 1", n)
	}
}

func TestRecordError(t *testing.T) {
	col := &collector{}
	tr := NewTracer(col)
	_, span := tr.Start(context.Background(), "fail")
	span.RecordError(errors.New("boom"))
	span.End()
	if got := col.all()[0].Error; got != "boom" {
		t.Errorf("span error = %q, want boom", got)
	}
}

func TestRingBoundedEviction(t *testing.T) {
	r := NewRing(8)
	tr := NewTracer(r)
	for i := 0; i < 20; i++ {
		_, s := tr.StartRoot(context.Background(), fmt.Sprintf("t-%02d", i), "op")
		s.End()
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("ring holds %d spans, want capacity 8", got)
	}
	spans := r.Spans()
	if spans[0].TraceID != "t-12" || spans[7].TraceID != "t-19" {
		t.Errorf("ring kept %q..%q, want the newest 8 (t-12..t-19)", spans[0].TraceID, spans[7].TraceID)
	}
	if r.Trace("t-03") != nil {
		t.Error("evicted trace still queryable")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) built a ring")
		}
	}()
	NewRing(0)
}

func TestRingTraceQueryAndSummaries(t *testing.T) {
	r := NewRing(64)
	tr := NewTracer(r)

	ctx, root := tr.StartRoot(context.Background(), "trace-a", "http.request")
	_, child := Start(ctx, "job.run")
	child.RecordError(errors.New("timeout"))
	child.End()
	root.End()
	_, other := tr.StartRoot(context.Background(), "trace-b", "http.request")
	other.End()

	got := r.Trace("trace-a")
	if len(got) != 2 {
		t.Fatalf("trace-a has %d spans, want 2", len(got))
	}
	if got[0].Name != "http.request" || got[1].Name != "job.run" {
		t.Errorf("trace spans out of start order: %q, %q", got[0].Name, got[1].Name)
	}

	sums := r.Traces(0)
	if len(sums) != 2 {
		t.Fatalf("%d trace summaries, want 2", len(sums))
	}
	var a *TraceSummary
	for i := range sums {
		if sums[i].TraceID == "trace-a" {
			a = &sums[i]
		}
	}
	if a == nil || a.Spans != 2 || a.Root != "http.request" || a.Error != "timeout" {
		t.Errorf("trace-a summary %+v, want 2 spans, http.request root, timeout error", a)
	}
	if got := r.Traces(1); len(got) != 1 {
		t.Errorf("limit 1 returned %d summaries", len(got))
	}
}

// TestConcurrentTracing hammers export and query concurrently; run under
// -race this is the trace-ring half of the ISSUE's concurrency gate.
func TestConcurrentTracing(t *testing.T) {
	r := NewRing(128)
	tr := NewTracer(r)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Traces(10)
					r.Trace("g0-5")
					r.Len()
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRoot(context.Background(), fmt.Sprintf("g%d-%d", g, i), "op")
				_, child := Start(ctx, "child", KV("i", i))
				child.AddEvent("tick")
				child.End()
				root.End()
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := r.Len(); got != 128 {
		t.Errorf("ring holds %d spans after the storm, want full capacity 128", got)
	}
}

func TestSlogExporter(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTracer(&SlogExporter{Logger: logger})
	ctx, root := tr.StartRoot(context.Background(), "corr-42", "http.request")
	_, child := Start(ctx, "job.submit", KV("algorithm", "MPP"))
	child.End()
	root.End()

	out := buf.String()
	if c := strings.Count(out, "trace_id=corr-42"); c != 2 {
		t.Errorf("%d log records carry trace_id=corr-42, want 2:\n%s", c, out)
	}
	if !strings.Contains(out, "span=job.submit") || !strings.Contains(out, "algorithm=MPP") {
		t.Errorf("span log lacks name or attrs:\n%s", out)
	}
	if !strings.Contains(out, "parent_id=") {
		t.Errorf("child log lacks parent link:\n%s", out)
	}
}

func TestSlogExporterLevelGate(t *testing.T) {
	var buf bytes.Buffer
	// Default Info logger must not see Debug-level span records.
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(&SlogExporter{Logger: logger})
	_, s := tr.Start(context.Background(), "quiet")
	s.End()
	if buf.Len() != 0 {
		t.Errorf("debug span leaked into an info logger: %s", buf.String())
	}
}
