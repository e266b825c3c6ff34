package server

import (
	"sync"
	"testing"
	"time"

	"permine/internal/corpus"
)

// TestHistogramZeroObservations: a histogram that never saw a sample
// renders a complete, all-zero view — no NaN mean, full bucket list.
func TestHistogramZeroObservations(t *testing.T) {
	m := NewMetrics(0)
	m.ObserveMining("mppm", time.Millisecond) // materialise one histogram...
	h := newHistogram()                       // ...but inspect an untouched one
	v := h.view()
	if v.Count != 0 || v.SumSeconds != 0 || v.MeanSeconds != 0 {
		t.Fatalf("empty histogram view = %+v, want all zero", v)
	}
	if len(v.Buckets) != len(latencyBuckets)+1 {
		t.Fatalf("empty view has %d buckets, want %d", len(v.Buckets), len(latencyBuckets)+1)
	}
	for i, b := range v.Buckets {
		if b.Cumulative != 0 {
			t.Errorf("bucket %d cumulative = %d, want 0", i, b.Cumulative)
		}
	}
	// The last bucket is +Inf, encoded as LE == 0.
	if last := v.Buckets[len(v.Buckets)-1]; last.LE != 0 {
		t.Errorf("overflow bucket LE = %v, want 0 (+Inf)", last.LE)
	}
}

// TestHistogramOverflowBucket: samples beyond the largest bound land in the
// implicit +Inf bucket and still count toward sum/mean.
func TestHistogramOverflowBucket(t *testing.T) {
	m := NewMetrics(0)
	m.ObserveMining("mppm", 600*time.Second) // > 300s, the largest bound
	v := m.Snapshot().Latency["mppm"]
	if v.Count != 1 || v.SumSeconds != 600 || v.MeanSeconds != 600 {
		t.Fatalf("view = %+v, want one 600s sample", v)
	}
	for i, b := range v.Buckets {
		isInf := i == len(v.Buckets)-1
		want := int64(0)
		if isInf {
			want = 1
		}
		if b.Cumulative != want {
			t.Errorf("bucket %d (le=%v) cumulative = %d, want %d", i, b.LE, b.Cumulative, want)
		}
	}
}

// TestHistogramBoundaryValue: a sample exactly on a bucket's upper bound is
// counted in that bucket (bounds are inclusive).
func TestHistogramBoundaryValue(t *testing.T) {
	h := newHistogram()
	h.observe(0.001) // exactly the first bound
	v := h.view()
	if v.Buckets[0].Cumulative != 1 {
		t.Fatalf("first bucket cumulative = %d, want 1 (bounds inclusive)", v.Buckets[0].Cumulative)
	}
	h.observe(0.0010001) // just past it
	if v = h.view(); v.Buckets[0].Cumulative != 1 || v.Buckets[1].Cumulative != 2 {
		t.Fatalf("buckets = %+v, want 1 then cumulative 2", v.Buckets[:2])
	}
}

// TestMetricsConcurrent: hammer every mutating method while snapshotting;
// the race detector and the final totals are the assertions.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics(0)
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.ObserveMining("mppm", time.Duration(i)*time.Millisecond)
				m.ObserveRequest("POST /v1/jobs", 202, 3*time.Millisecond)
				m.JobTransition(false, "", corpus.StateQueued)
				m.JobTransition(false, corpus.StateQueued, corpus.StateDone)
				m.JobRecovered(false, corpus.StateDone, "terminal")
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				m.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)

	snap := m.Snapshot()
	const total = 4 * perWorker
	if got := snap.Latency["mppm"].Count; got != total {
		t.Errorf("latency count = %d, want %d", got, total)
	}
	if got := snap.Requests["POST /v1/jobs 2xx"]; got != total {
		t.Errorf("request count = %d, want %d", got, total)
	}
	if got := snap.JobsFinished["done"]; got != total {
		t.Errorf("finished count = %d, want %d", got, total)
	}
	if got := snap.Recovery["terminal"]; got != total {
		t.Errorf("recovery count = %d, want %d", got, total)
	}
	// Gauge arithmetic: total queued in, total moved to done, plus total
	// recovered straight into done.
	if got := snap.Jobs["done"]; got != 2*total {
		t.Errorf("done gauge = %d, want %d", got, 2*total)
	}
	if got := snap.Jobs["queued"]; got != 0 {
		t.Errorf("queued gauge = %d, want 0", got)
	}
}

// TestObserveRequestSLO: request durations feed the per-route histogram
// and the SLO counters; only durations over the target count as breaches,
// and streaming routes are excluded entirely (an SSE connection's
// "latency" is its lifetime).
func TestObserveRequestSLO(t *testing.T) {
	m := NewMetrics(50 * time.Millisecond)
	m.ObserveRequest("POST /v1/jobs", 202, 10*time.Millisecond)
	m.ObserveRequest("POST /v1/jobs", 202, 80*time.Millisecond)
	m.ObserveRequest("GET /v1/jobs/{id}", 200, 40*time.Millisecond)
	m.ObserveRequest("GET /v1/jobs/{id}/events", 200, time.Hour)

	snap := m.Snapshot()
	if snap.SLO.TargetP99Seconds != 0.05 {
		t.Errorf("SLO target = %v, want 0.05", snap.SLO.TargetP99Seconds)
	}
	if snap.SLO.Requests != 3 {
		t.Errorf("SLO requests = %d, want 3 (events route excluded)", snap.SLO.Requests)
	}
	if snap.SLO.Breaches != 1 {
		t.Errorf("SLO breaches = %d, want 1", snap.SLO.Breaches)
	}
	if h := snap.RequestLatency["POST /v1/jobs"]; h.Count != 2 {
		t.Errorf("POST /v1/jobs duration count = %d, want 2", h.Count)
	}
	if _, ok := snap.RequestLatency["GET /v1/jobs/{id}/events"]; ok {
		t.Error("streaming route grew a duration histogram")
	}
	// The request-class counter still sees every route, streaming included.
	if got := snap.Requests["GET /v1/jobs/{id}/events 2xx"]; got != 1 {
		t.Errorf("events route request count = %d, want 1", got)
	}
}
