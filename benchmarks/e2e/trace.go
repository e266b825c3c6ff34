package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"permine"
	"permine/internal/obs"
	"permine/internal/server"
)

// layerTrace gathers the per-layer measurements of a traced serve run:
// the daemons' spans of every traced step, their journal and cache
// counters summed over the sessions, and the per-layer samples taken
// while checking the traced fresh jobs.
type layerTrace struct {
	col    *obs.Collector
	tracer *obs.Tracer
	server map[string][]obs.SpanData // the daemon's spans by request id
	before server.MetricsSnapshot    // of the current session's daemon

	fsyncs, compactions, hits, lookups int64 // summed over sessions

	times, counts series // per traced fresh job, filled by addFresh
	spans         []obs.SpanData
}

func newLayerTrace() *layerTrace {
	col := &obs.Collector{}
	return &layerTrace{
		col:    col,
		tracer: obs.NewTracer(col),
		server: map[string][]obs.SpanData{},
		times:  series{},
		counts: series{},
	}
}

// begin snapshots a session daemon's counters before its rounds.
func (lt *layerTrace) begin(ctx context.Context, d *daemon) (err error) {
	lt.before, err = d.metrics(ctx)
	return err
}

// end adds what the session's daemon counted during its rounds (after is
// its /v1/metrics) and reads its spans of every traced step.
func (lt *layerTrace) end(d *daemon, after server.MetricsSnapshot, cycles []*cycle) {
	b, a := lt.before, after
	lt.fsyncs += a.Store.Fsyncs - b.Store.Fsyncs
	lt.compactions += a.Store.Compactions - b.Store.Compactions
	hits := a.Cache.Hits + a.Cache.SubsumptionHits - b.Cache.Hits - b.Cache.SubsumptionHits
	lt.hits += hits
	lt.lookups += hits + a.Cache.Misses - b.Cache.Misses
	ring := d.srv.Traces()
	for _, cy := range cycles {
		if !cy.traced {
			continue
		}
		for cl := opFresh; cl < opClass(cy.done); cl++ {
			lt.server[cy.reqID[cl]] = ring.Trace(cy.reqID[cl])
		}
	}
}

// addFresh measures the mining layers of one traced fresh job: e_m,
// scan-3 and the top-K derivation are timed on their own on the job's
// input, the rest comes from the job's result.
func (lt *layerTrace) addFresh(ctx context.Context, s *permine.Sequence, res *permine.Result, sums levelSums) error {
	ctx, span := lt.tracer.Start(ctx, "bench.layers", obs.KV("seq", s.Name()))
	em, scan3, derive, err := measureLayers(ctx, s, res)
	span.End()
	if err != nil {
		return err
	}
	lt.times.addDur("embound.em_s", em)
	lt.times.addDur("pil.scan3_s", scan3)
	lt.times.addDur("query.derive_s", derive)
	lt.times.addDur("mine.gen_s", sums.gen)
	lt.times.addDur("mine.count_s", sums.count)
	lt.times.addDur("mine.self_s", res.Elapsed-em-scan3-sums.gen-sums.count)
	for name, v := range countValues(res, sums) {
		lt.counts.add(name, v)
	}
	return nil
}

// values reduces the run to the per-layer metrics, per cycle, over the
// rounds that ran without a cache race. Step latencies and allocation come
// from the untraced rounds; daemon span times are medians over the traced
// cycles (queue, run and persist are the fresh job's); journal and cache
// counters are summed over the sessions.
func (lt *layerTrace) values(vals map[string]float64, sessions []*session) {
	lt.times.medians(vals)
	lt.counts.medians(vals)
	srv := series{}
	var base, durs []float64
	var alloc uint64
	var gcs uint32
	jobs, untraced := 0, 0
	for _, sess := range sessions {
		for _, r := range sess.rounds {
			for _, cy := range r.cycles {
				jobs += cy.done + cy.races
			}
			if !r.clean() {
				continue
			}
			if !r.traced {
				alloc += r.alloc
				gcs += r.gcs
				untraced += len(r.cycles)
			}
			for _, cy := range r.cycles {
				if cy.failure() != nil {
					continue
				}
				if !r.traced {
					base = append(base, cy.total.Seconds())
					srv.addDur("serve.fresh_s", cy.dur[opFresh])
					srv.addDur("serve.hit_s", cy.dur[opHit])
					srv.addDur("serve.derive_s", cy.dur[opDerive])
					continue
				}
				durs = append(durs, cy.total.Seconds())
				var st stepTimes
				var n int64
				for cl := opFresh; cl < numClasses; cl++ {
					st.add(lt.server[cy.reqID[cl]])
					n += cy.body[cl].n
				}
				srv.add("server.response_mb", float64(n)/1e6)
				srv.addDur("server.submit_s", st.submit)
				srv.addDur("server.http_self_s", st.httpSelf)
				srv.addDur("server.queue_wait_s", st.queue)
				srv.addDur("server.run_s", st.run-st.persist)
				srv.addDur("store.persist_s", st.persist)
			}
		}
	}
	srv.medians(vals)
	for _, name := range serverLayerMetrics {
		if _, ok := vals[name]; !ok {
			vals[name] = 0
		}
	}
	if jobs > 0 {
		vals["store.fsyncs_per_job"] = float64(lt.fsyncs) / float64(jobs)
		vals["store.compactions_per_job"] = float64(lt.compactions) / float64(jobs)
	}
	if lt.lookups > 0 {
		vals["cache.hit_frac"] = float64(lt.hits) / float64(lt.lookups)
	}
	vals["mine.alloc_mb"], vals["mine.gc_cycles"] = 0, 0
	if untraced > 0 {
		vals["mine.alloc_mb"] = float64(alloc) / 1e6 / float64(untraced)
		vals["mine.gc_cycles"] = float64(gcs) / float64(untraced)
	}
	vals["trace_overhead_frac"] = overhead(median(durs), median(base))

	lt.spans = lt.col.Spans()
	for _, spans := range lt.server {
		lt.spans = append(lt.spans, spans...)
	}
}

// stepTimes are daemon-side times, summed over the steps added.
type stepTimes struct {
	submit, queue, run, persist time.Duration
	httpSelf                    time.Duration // request decode and response encode
}

// add sums one step's daemon spans into st. The event stream's request is
// left out of httpSelf: its time is spent waiting for the job.
func (st *stepTimes) add(spans []obs.SpanData) {
	kids := childIndex(spans)
	for _, s := range spans {
		d := s.End.Sub(s.Start)
		switch s.Name {
		case "job.submit":
			st.submit += d
		case "job.queue":
			st.queue += d
		case "job.run":
			st.run += d
		case "job.persist":
			st.persist += d
		case "http.request":
			if attr(s, "route") != "GET /v1/jobs/{id}/events" {
				st.httpSelf += selfTime(s, kids[spanKey(s.TraceID, s.SpanID)])
			}
		}
	}
}

func attr(s obs.SpanData, key string) any {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

func spanKey(traceID, spanID string) string { return traceID + "/" + spanID }

// childIndex maps each span to its children.
func childIndex(spans []obs.SpanData) map[string][]obs.SpanData {
	kids := map[string][]obs.SpanData{}
	for _, s := range spans {
		if s.ParentID != "" {
			k := spanKey(s.TraceID, s.ParentID)
			kids[k] = append(kids[k], s)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of its interval its
// children cover.
func selfTime(p obs.SpanData, kids []obs.SpanData) time.Duration {
	type interval struct{ lo, hi time.Time }
	var ivs []interval
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(p.Start) {
			lo = p.Start
		}
		if hi.After(p.End) {
			hi = p.End
		}
		if hi.After(lo) {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		for i++; i < len(ivs) && !ivs[i].lo.After(hi); i++ {
			if ivs[i].hi.After(hi) {
				hi = ivs[i].hi
			}
		}
		covered += hi.Sub(lo)
	}
	return p.End.Sub(p.Start) - covered
}

// printSpanTable prints, per span name, how many spans were recorded and
// the medians of their durations and self times.
func printSpanTable(w io.Writer, spans []obs.SpanData) {
	kids := childIndex(spans)
	durs, selfs := series{}, series{}
	for _, s := range spans {
		durs.addDur(s.Name, s.End.Sub(s.Start))
		selfs.addDur(s.Name, selfTime(s, kids[spanKey(s.TraceID, s.SpanID)]))
	}
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   %-34s %7s %12s %12s\n", "span", "count", "p50 ms", "self p50 ms")
	for _, name := range names {
		fmt.Fprintf(w, "   %-34s %7d %12.3f %12.3f\n", name, len(durs[name]),
			median(durs[name])*1e3, median(selfs[name])*1e3)
	}
}

// memStats reads the process's allocation counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
