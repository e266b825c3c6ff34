// Command permined serves the permine miners over HTTP/JSON: asynchronous
// mining jobs with cancellation and progress, an LRU result cache, and a
// metrics endpoint. See internal/server for the API and README.md
// ("Serving") for curl examples.
//
//	permined -addr :8080 -workers 4 -cache 256 -job-timeout 2m
//
// Every job has one lifecycle: POST /v1/jobs submits a job of one
// sequence, POST /v1/corpus one of a shard per FASTA record, and one
// engine schedules every shard on the worker pool. A shard's transient
// failure — a panic, a lapsed per-attempt deadline (-shard-timeout, corpus
// shards only), a cluster transport error — is retried under
// -retry-budget with jittered -retry-backoff; any other outcome is final.
// A corpus whose shards do not all complete degrades to "partial" instead
// of failing. See README.md ("Corpus mining").
//
// With -data-dir set, jobs are journaled to a checksummed write-ahead log
// and recovered on restart: finished jobs stay queryable, interrupted
// ones resume from their journaled shards under the same -retry-budget
// and -retry-backoff, and a failing disk degrades the store to
// memory-only (visible on /healthz) instead of killing the daemon. See
// README.md ("Persistence & crash recovery").
//
// With -cluster-role coordinator and -cluster-peers set, shards are
// placed across the peer daemons by consistent hash over sequence content
// (keeping the result cache node-affine), peers are health-checked with
// jittered heartbeats, and work assigned to a node that dies is requeued
// onto survivors through the normal retry budget. See README.md
// ("Clustering").
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight work stops at
// the next level boundary — a /v1/jobs job cancelled, a corpus journaled
// as still open, so the next boot resumes it — and the listener closes
// once the pool is idle (bounded by -drain-timeout); /readyz turns 503
// the moment the drain starts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"permine"
	"permine/internal/server"
)

// splitPeers parses the -cluster-peers list, tolerating blanks and spaces.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	return peers
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "permined:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("permined", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 2, "concurrent mining workers")
		queueDepth   = fs.Int("queue", 64, "job queue depth (submits beyond it are rejected with 429 + Retry-After)")
		cacheSize    = fs.Int("cache", 128, "result cache size in entries (negative disables)")
		cacheSubsume = fs.Bool("cache-subsumption", true, "serve jobs by filtering cached results mined at other thresholds")
		retain       = fs.Int("retain", 1024, "finished jobs kept queryable")
		jobTimeout   = fs.Duration("job-timeout", 5*time.Minute, "default per-job deadline")
		maxTimeout   = fs.Duration("max-timeout", 0, "ceiling for client-supplied timeouts (0 = job-timeout; none when job-timeout is negative)")
		syncLen      = fs.Int("max-sync-len", 1<<20, "longest sequence /v1/query accepts synchronously")
		maxBody      = fs.Int64("max-body-bytes", 64<<20, "request body size limit in bytes (oversized bodies get 413)")
		memBudget    = fs.Int64("mem-budget", 0, "default per-job mining memory budget in bytes (0 = unlimited); over-budget jobs end resource_exhausted with partial results")
		memGlobal    = fs.Int64("mem-global", 0, "process-wide mining memory ceiling in bytes (0 = unlimited); nearing it browns out expensive job classes")
		brownoutPct  = fs.Int("brownout-pct", 85, "percent of -mem-global at which brownout shedding starts")
		dataDir      = fs.String("data-dir", "", "journal jobs here and recover them on restart (empty = in-memory only)")
		compactBytes = fs.Int64("compact-bytes", 4<<20, "journal size triggering compaction")
		retryBudget  = fs.Int("retry-budget", 3, "attempts allowed per shard under transient failures, and re-executions per job after crashes")
		retryBackoff = fs.Duration("retry-backoff", 500*time.Millisecond, "base delay before a shard retries or a recovered job re-runs (doubles per attempt, jittered)")
		shardTimeout = fs.Duration("shard-timeout", 2*time.Minute, "per-attempt deadline of a corpus shard")
		maxInflight  = fs.Int("corpus-max-inflight", 0, "corpus shards mined concurrently per job (0 = 2x workers)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
		clusterRole  = fs.String("cluster-role", "", `cluster mode: "" standalone, "coordinator" places work on peers, "peer" serves forwarded work`)
		clusterPeers = fs.String("cluster-peers", "", "comma-separated peer base URLs the coordinator heartbeats and forwards to")
		clusterSelf  = fs.String("cluster-self", "", "this node's advertised base URL (journaled on local placements)")
		clusterHB    = fs.Duration("cluster-heartbeat", time.Second, "heartbeat probe interval (jittered)")
		clusterSusp  = fs.Int("cluster-suspect-after", 2, "consecutive probe failures before a peer is suspect")
		clusterDead  = fs.Int("cluster-dead-after", 4, "consecutive probe failures before a peer is dead and leaves the ring")
		shardDelay   = fs.Duration("shard-delay", 0, "debug: stretch every local mining run by this sleep")
		traceSpans   = fs.Int("trace-spans", 0, "finished tracing spans kept for /v1/traces (0 = default 4096)")
		traceSample  = fs.Float64("trace-sample", 1, "head-sampling rate for traces in [0,1]; sampled-out requests produce no spans")
		sloTargetMS  = fs.Int("slo-p99-ms", 250, "p99 request-latency objective in ms for the permine_slo_* counters")
		pprofAddr    = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		logJSON      = fs.Bool("log-json", false, "emit JSON logs instead of text")
		version      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(stdout, "permined %s\n", permine.Version)
		return nil
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	// Config treats 0 as "default" (sample everything); an explicit
	// -trace-sample 0 means drop every trace, which Config spells negative.
	sampleRate := *traceSample
	if sampleRate == 0 {
		sampleRate = -1
	}

	srv := server.New(server.Config{
		Version:             permine.Version,
		Workers:             *workers,
		QueueDepth:          *queueDepth,
		CacheSize:           *cacheSize,
		DisableSubsumption:  !*cacheSubsume,
		Retain:              *retain,
		JobTimeout:          *jobTimeout,
		MaxTimeout:          *maxTimeout,
		MaxSyncSeqLen:       *syncLen,
		MaxBodyBytes:        *maxBody,
		MemBudget:           *memBudget,
		MemGlobal:           *memGlobal,
		BrownoutPct:         *brownoutPct,
		DataDir:             *dataDir,
		CompactBytes:        *compactBytes,
		RetryBudget:         *retryBudget,
		RetryBackoff:        *retryBackoff,
		ShardTimeout:        *shardTimeout,
		CorpusMaxInflight:   *maxInflight,
		TraceSpans:          *traceSpans,
		TraceSample:         sampleRate,
		SLOTargetP99:        time.Duration(*sloTargetMS) * time.Millisecond,
		ClusterRole:         *clusterRole,
		ClusterPeers:        splitPeers(*clusterPeers),
		ClusterSelf:         *clusterSelf,
		ClusterHeartbeat:    *clusterHB,
		ClusterSuspectAfter: *clusterSusp,
		ClusterDeadAfter:    *clusterDead,
		ShardDelay:          *shardDelay,
		Logger:              logger,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// pprof serves on its own listener so profiling never shares the API
	// port (and can be bound to localhost while the API is public). The
	// handlers are registered on a private mux — importing net/http/pprof
	// touches only http.DefaultServeMux, which the API server never uses.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pprofSrv := &http.Server{Handler: pprofMux, ReadHeaderTimeout: 10 * time.Second}
		defer pprofSrv.Close()
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof server stopped", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("permined listening", "addr", ln.Addr().String(), "version", permine.Version,
		"workers", *workers, "queue", *queueDepth, "cache", *cacheSize, "data_dir", *dataDir)
	fmt.Fprintf(stdout, "permined %s listening on %s\n", permine.Version, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain_timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// httpSrv.Shutdown closes the listener immediately but then waits for
	// in-flight connections — including SSE streams, which only end once
	// srv.Shutdown closes the event broadcaster. Run them concurrently so
	// streams drain with a final "shutdown" event instead of pinning the
	// whole drain window and being cut off at the deadline.
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Shutdown(drainCtx) }()
	shutdownErr := srv.Shutdown(drainCtx)
	if err := <-httpDone; err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && shutdownErr == nil {
		shutdownErr = err
	}
	logger.Info("permined stopped")
	return shutdownErr
}
