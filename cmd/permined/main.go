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

// options are the parsed command line: the server settings, bound over
// server.Defaults so an unset flag means what the setting's default
// means, and the daemon's own process flags.
type options struct {
	cfg          server.Config
	addr         string
	drainTimeout time.Duration
	pprofAddr    string
	logJSON      bool
	version      bool
}

func parseFlags(args []string) (options, error) {
	o := options{cfg: server.Defaults()}
	c := &o.cfg
	fs := flag.NewFlagSet("permined", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Workers, "workers", c.Workers, "concurrent mining workers")
	fs.IntVar(&c.QueueDepth, "queue", c.QueueDepth, "job queue depth (submits beyond it are rejected with 429 + Retry-After)")
	fs.IntVar(&c.CacheSize, "cache", c.CacheSize, "result cache size in entries (negative disables)")
	fs.IntVar(&c.Retain, "retain", c.Retain, "finished jobs kept queryable")
	fs.DurationVar(&c.JobTimeout, "job-timeout", c.JobTimeout, "default per-job deadline")
	fs.DurationVar(&c.MaxTimeout, "max-timeout", c.MaxTimeout, "ceiling for client-supplied timeouts (0 = job-timeout; none when job-timeout is negative)")
	fs.Int64Var(&c.MaxBodyBytes, "max-body-bytes", c.MaxBodyBytes, "request body size limit in bytes (oversized bodies get 413)")
	fs.Int64Var(&c.MemBudget, "mem-budget", c.MemBudget, "default per-job mining memory budget in bytes (0 = unlimited); over-budget jobs end resource_exhausted with partial results")
	fs.Int64Var(&c.MemGlobal, "mem-global", c.MemGlobal, "process-wide mining memory ceiling in bytes (0 = unlimited); nearing it browns out expensive job classes")
	fs.IntVar(&c.BrownoutPct, "brownout-pct", c.BrownoutPct, "percent of -mem-global at which brownout shedding starts")
	fs.StringVar(&c.DataDir, "data-dir", c.DataDir, "journal jobs here and recover them on restart (empty = in-memory only)")
	fs.IntVar(&c.RetryBudget, "retry-budget", c.RetryBudget, "attempts allowed per shard under transient failures, and re-executions per job after crashes")
	fs.DurationVar(&c.RetryBackoff, "retry-backoff", c.RetryBackoff, "base delay before a shard retries or a recovered job re-runs (doubles per attempt, jittered)")
	fs.DurationVar(&c.ShardTimeout, "shard-timeout", c.ShardTimeout, "per-attempt deadline of a corpus shard")
	fs.IntVar(&c.CorpusMaxInflight, "corpus-max-inflight", c.CorpusMaxInflight, "corpus shards mined concurrently per job (0 = 2x workers)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
	fs.StringVar(&c.ClusterRole, "cluster-role", c.ClusterRole, `cluster mode: "" standalone, "coordinator" places work on peers, "peer" serves forwarded work`)
	fs.Func("cluster-peers", "comma-separated peer base `URLs` the coordinator heartbeats and forwards to", func(s string) error {
		c.ClusterPeers = splitPeers(s)
		return nil
	})
	fs.StringVar(&c.ClusterSelf, "cluster-self", c.ClusterSelf, "this node's advertised base URL (journaled on local placements)")
	fs.DurationVar(&c.ClusterHeartbeat, "cluster-heartbeat", c.ClusterHeartbeat, "heartbeat probe interval (jittered)")
	fs.IntVar(&c.ClusterSuspectAfter, "cluster-suspect-after", c.ClusterSuspectAfter, "consecutive probe failures before a peer is suspect")
	fs.IntVar(&c.ClusterDeadAfter, "cluster-dead-after", c.ClusterDeadAfter, "consecutive probe failures before a peer is dead and leaves the ring")
	fs.DurationVar(&c.ShardDelay, "shard-delay", c.ShardDelay, "debug: stretch every local mining run by this sleep")
	fs.IntVar(&c.TraceSpans, "trace-spans", c.TraceSpans, "finished tracing spans kept for /v1/traces")
	fs.Float64Var(&c.TraceSample, "trace-sample", c.TraceSample, "head-sampling rate for traces in [0,1]; sampled-out requests produce no spans")
	sloMS := fs.Int64("slo-p99-ms", c.SLOTargetP99.Milliseconds(), "p99 request-latency objective in ms for the permine_slo_* counters")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit JSON logs instead of text")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	c.SLOTargetP99 = time.Duration(*sloMS) * time.Millisecond
	// Config reads TraceSample 0 as its default (sample everything); an
	// explicit -trace-sample 0 means drop every trace, which Config spells
	// negative.
	if c.TraceSample == 0 {
		c.TraceSample = -1
	}
	return o, nil
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "permined:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.version {
		fmt.Fprintf(stdout, "permined %s\n", permine.Version)
		return nil
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if o.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	cfg := o.cfg
	cfg.Version, cfg.Logger = permine.Version, logger
	srv := server.New(cfg)

	httpSrv := &http.Server{
		Addr:              o.addr,
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
	if o.pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", o.pprofAddr)
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

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	logger.Info("permined listening", "addr", ln.Addr().String(), "version", permine.Version,
		"workers", cfg.Workers, "queue", cfg.QueueDepth, "cache", cfg.CacheSize, "data_dir", cfg.DataDir)
	fmt.Fprintf(stdout, "permined %s listening on %s\n", permine.Version, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain_timeout", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
