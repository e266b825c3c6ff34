package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"permine/internal/cluster"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/obs"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// This file is the server side of internal/cluster: the peer RPC endpoints
// (framed heartbeat and remote-mine handlers), the /readyz readiness probe,
// and the manager hooks that place whole jobs and corpus shards onto the
// ring. Placement keys are the cache identity's sequence hash, so a shard
// always lands on the node whose subsumption-aware cache already holds (or
// will hold) results for that sequence.

// newNodeID mints the daemon's cluster identity, reported in heartbeat
// pongs and remote-mine responses so operators can tell nodes apart even
// behind proxies.
func newNodeID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "n-0"
	}
	return "n-" + hex.EncodeToString(b[:])
}

// notReadyReasons reports why the node should not receive traffic yet (or
// any more): empty means ready. Liveness (/healthz) stays 200 through all
// of these — a draining or degraded node is alive, just not placeable.
func (s *Server) notReadyReasons() []string {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "drain in progress")
	}
	if st := s.st.Stats(); st.Degraded {
		reasons = append(reasons, "store degraded: "+st.DegradedReason)
	}
	if s.clu != nil && !s.clu.Ready() {
		reasons = append(reasons, "cluster peer set unresolved")
	}
	return reasons
}

// handleReadyz is the readiness probe: 200 once the node can take traffic,
// 503 with machine-readable reasons while draining, store-degraded, or
// before every configured peer's health has resolved out of Unknown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reasons := s.notReadyReasons()
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":   false,
			"reasons": reasons,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleClusterHeartbeat answers a framed ping with this node's identity,
// readiness, queue depth, and memory pressure. The coordinator folds the
// depth and pressure into its placement load model, so a busy or memory-hot
// peer sheds work without any extra RPC.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	msg, err := cluster.ReadFrame(r.Body, int(s.cfg.MaxBodyBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad heartbeat frame: %v", err)
		return
	}
	if msg.Type != "ping" {
		apiError(w, http.StatusBadRequest, "unexpected frame type %q", msg.Type)
		return
	}
	pong, err := cluster.NewMessage("pong", cluster.Pong{
		Node:        s.nodeID,
		Version:     s.cfg.Version,
		Ready:       len(s.notReadyReasons()) == 0,
		QueueDepth:  s.mgr.QueueDepth(),
		MemPressure: s.governor.Pressure(),
	})
	if err != nil {
		apiError(w, http.StatusInternalServerError, "encoding pong: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-permine-frame")
	cluster.WriteFrame(w, pong)
}

// handleClusterMine executes one forwarded mining unit (a corpus shard or a
// whole job) on behalf of a coordinator. Queue saturation and governor shed
// map to 429 (+Retry-After) and drain to 503; both read as ErrPeerBusy on
// the coordinator, which retries elsewhere without dinging this peer's
// health. Genuine mining failures travel back inside an "error" frame and
// charge the shard's retry budget on the coordinator, not this node's.
func (s *Server) handleClusterMine(w http.ResponseWriter, r *http.Request) {
	msg, err := cluster.ReadFrame(r.Body, int(s.cfg.MaxBodyBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad mine frame: %v", err)
		return
	}
	if msg.Type != "mine" {
		apiError(w, http.StatusBadRequest, "unexpected frame type %q", msg.Type)
		return
	}
	var req cluster.MineRequest
	if err := json.Unmarshal(msg.Body, &req); err != nil {
		apiError(w, http.StatusBadRequest, "decoding mine request: %v", err)
		return
	}
	if s.draining.Load() {
		apiError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	res, spans, err := s.mineForPeerRequest(r.Context(), req)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		// Backpressure: 429 + Retry-After, so the coordinator retries
		// elsewhere without dinging this peer's health. Draining (above)
		// and shutdown keep 503 — this node is going away, not busy.
		s.rejectBusy(w, err)
		return
	case errors.Is(err, ErrShuttingDown):
		apiError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := cluster.MineResponse{Node: s.nodeID, Spans: spans}
	if err != nil {
		resp.Error = err.Error()
	} else {
		resp.Result, err = json.Marshal(res)
		if err != nil {
			resp.Result = nil
			resp.Error = fmt.Sprintf("encoding result: %v", err)
		}
	}
	out, err := cluster.NewMessage("result", resp)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-permine-frame")
	cluster.WriteFrame(w, out)
}

// mineForPeerRequest rebuilds the subject sequence and parameters from a
// wire-level MineRequest and hands them to the manager's worker pool.
func (s *Server) mineForPeerRequest(ctx context.Context, req cluster.MineRequest) (*core.Result, []obs.SpanData, error) {
	algo, err := core.ParseAlgorithm(strings.ToLower(req.Algorithm))
	if err != nil {
		return nil, nil, err
	}
	alpha, err := alphabetFor(req.SeqAlphabet, req.SeqSymbols)
	if err != nil {
		return nil, nil, err
	}
	subject, err := seq.New(alpha, req.SeqName, req.SeqData)
	if err != nil {
		return nil, nil, err
	}
	var p core.Params
	if len(req.Params) > 0 {
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return nil, nil, fmt.Errorf("decoding params: %w", err)
		}
	}
	return s.mgr.MineForPeer(ctx, subject, algo, p, RemoteTrace{Job: req.Job, Parent: req.Trace()})
}

// RemoteTrace identifies the coordinator-side trace a forwarded mining
// unit belongs to: the originating job/shard label and the coordinator
// span (job.run or corpus.shard) the peer's spans should parent under.
// An invalid Parent disables remote span collection (old coordinators,
// direct RPC callers, or a sampled-out trace).
type RemoteTrace struct {
	Job    string
	Parent obs.SpanContext
}

// MineForPeer runs one forwarded mining unit through this node's normal
// worker pool and result cache, so forwarded shards compete fairly with
// local jobs and warm the node-affine cache. It blocks until the unit
// finishes or the peer request's context dies; a dead request context
// cancels the mining run (coordinator gone — its retry budget owns the
// shard now, finishing here would be wasted work).
//
// When the request carries a valid trace parent, the run happens under a
// linked job.run span teed into a per-request Collector; the returned
// spans (job.run plus its mine.level children) travel back piggybacked on
// the result frame so the coordinator assembles one cross-node tree.
func (m *Manager) MineForPeer(rctx context.Context, subject *seq.Sequence, algo core.Algorithm, params core.Params, remote RemoteTrace) (*core.Result, []obs.SpanData, error) {
	if params.MemoryBudget == 0 {
		params.MemoryBudget = m.cfg.MemBudget
	}
	np, err := params.Normalize()
	if err != nil {
		return nil, nil, err
	}
	var collector *obs.Collector
	tracer := m.cfg.Tracer
	if remote.Parent.Valid() {
		collector = &obs.Collector{}
		tracer = tracer.With(collector)
	}
	collected := func() []obs.SpanData {
		if collector == nil {
			return nil
		}
		return collector.Spans()
	}
	startRun := func(ctx context.Context, attrs ...obs.Attr) (context.Context, *obs.Span) {
		if collector == nil {
			return ctx, nil
		}
		attrs = append([]obs.Attr{
			obs.KV("job", remote.Job),
			obs.KV("algorithm", algo.String()),
			obs.KV("remote", true),
		}, attrs...)
		return tracer.StartLink(ctx, remote.Parent, "job.run", attrs...)
	}

	key := KeyFor(subject, algo, np)
	if m.cfg.Cache != nil {
		if res, ok := m.cfg.Cache.Get(key); ok {
			_, span := startRun(rctx, obs.KV("cache_hit", true))
			span.End()
			return res, collected(), nil
		}
	}
	// Same admission ladder as local submits: a memory-hot peer sheds
	// forwarded work back to the coordinator (429 → ErrPeerBusy → retried
	// elsewhere) instead of digging itself deeper.
	if err := m.admit(shedClass(algo)); err != nil {
		return nil, nil, err
	}

	type reply struct {
		res *core.Result
		err error
	}
	ch := make(chan reply, 1)
	task := func() {
		ctx, cancel := context.WithCancel(m.baseCtx)
		defer cancel()
		stop := context.AfterFunc(rctx, cancel)
		defer stop()
		ctx, span := startRun(ctx)
		res, err := m.mineLocal(ctx, algo, subject, np)
		if err != nil {
			res = nil
		} else if m.cfg.Cache != nil {
			m.cfg.Cache.Put(key, res)
		}
		// End job.run before replying: the handler ships the collected
		// spans as soon as it has the reply, and without job.run its
		// mine.level spans would arrive with no parent.
		span.RecordError(err)
		span.End()
		ch <- reply{res, err}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, nil, ErrShuttingDown
	}
	select {
	case m.queue <- task:
		m.mu.Unlock()
	default:
		m.mu.Unlock()
		return nil, nil, ErrQueueFull
	}

	select {
	case rep := <-ch:
		return rep.res, collected(), rep.err
	case <-rctx.Done():
		// The queued task observes rctx through AfterFunc and aborts on
		// its own; the buffered channel keeps its send from leaking.
		return nil, nil, rctx.Err()
	}
}

// mineJob runs one whole job's mining, consulting the cluster ring first.
// Remote mining failures at the transport level (peer suspect, dead, or
// flaky) degrade to a local run as long as the job context is live — a
// sick peer costs locality, never the job. Peer-reported mining errors are
// authoritative: re-running locally would fail identically.
func (m *Manager) mineJob(ctx context.Context, j *Job, p core.Params) (*core.Result, error) {
	if c := m.cfg.Cluster; c != nil {
		if pl := c.Place(j.cacheKey.ID.SeqHash[:]); pl.Node != "" {
			res, err := m.mineJobRemote(ctx, j, p, pl.Node)
			var remote *cluster.RemoteError
			switch {
			case err == nil:
				return res, nil
			case errors.As(err, &remote):
				return nil, err
			case ctx.Err() != nil:
				return nil, ctx.Err()
			default:
				m.cfg.Logger.Warn("remote mine failed; degrading to local run",
					"job", j.id, "node", pl.Node, "err", err)
			}
		}
	}
	return m.mineLocal(ctx, j.algorithm, j.seq, p)
}

// mineJobRemote forwards a whole job to its ring owner and replays the
// remote result's per-level progress through the job's progress hook, so
// SSE subscribers on this node see the same stream a local run would
// produce. The peer counts the mine in its own metrics.
func (m *Manager) mineJobRemote(ctx context.Context, j *Job, p core.Params, node string) (*core.Result, error) {
	m.cfg.Cluster.NoteForwardedJob()
	j.mu.Lock()
	j.forwarded = true
	j.note = "forwarded to cluster peer " + node
	j.mu.Unlock()
	res, err := m.forward(ctx, j.id, store.WholeJob, j.algorithm, j.seq, p, node)
	if err != nil {
		return nil, err
	}
	for _, lv := range res.Levels {
		p.Progress(lv)
	}
	return res, nil
}

// mineShardRemote forwards one corpus shard to its placement. Errors
// return to the corpus engine, whose per-shard retry budget and jittered
// backoff drive the requeue; by the next attempt the health checker has
// usually excised the dead peer from the ring, so re-placement lands on a
// survivor.
func (m *Manager) mineShardRemote(ctx context.Context, j *corpus.Job, s *corpus.Shard, p core.Params, pl cluster.Placement) (*core.Result, error) {
	c := m.cfg.Cluster
	c.NoteForwardedShard()
	if pl.Stolen {
		c.NoteShardStolen()
	}
	res, err := m.forward(ctx, j.ID(), s.Index(), j.Algorithm(), s.Seq(), p, pl.Node)
	var remote *cluster.RemoteError
	if err != nil && !errors.As(err, &remote) && ctx.Err() == nil && !c.Alive(pl.Node) {
		// Transport-level failure against a peer health now rules
		// unplaceable: this shard is headed back to the queue because its
		// node died under it.
		c.NoteShardRequeued()
	}
	return res, err
}

// forward runs one mining unit on a peer and decodes its result. It
// journals the placement first (shard is the shard index, or
// store.WholeJob) so a coordinator restart knows where the unit was, and
// feeds the spans the peer piggybacked on its reply into the span sink
// (the trace ring), so GET /v1/traces/{id} here returns the assembled
// cross-node tree.
//
// Params travel without their runtime-only fields (Ctx, Progress, Hooks are
// json:"-"), so the peer re-normalizes a clean copy. The span carried by
// ctx (job.run for whole jobs, corpus.shard for shards) becomes the peer's
// trace parent, and its trace id — also the originating X-Request-Id —
// rides along so both nodes' logs correlate.
func (m *Manager) forward(ctx context.Context, id string, shard int, algo core.Algorithm, subject *seq.Sequence, p core.Params, node string) (*core.Result, error) {
	params, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("encoding params: %w", err)
	}
	req := cluster.MineRequest{
		Job:         id,
		Algorithm:   algo.String(),
		SeqName:     subject.Name(),
		SeqAlphabet: subject.Alphabet().Name(),
		SeqSymbols:  string(subject.Alphabet().Symbols()),
		SeqData:     subject.Data(),
		Params:      params,
	}
	if sc := obs.FromContext(ctx).Context(); sc.Valid() {
		req.TraceID, req.ParentSpan = sc.TraceID, sc.SpanID
	}
	m.cfg.Store.AppendAssign(id, store.AssignRecord{Shard: shard, Node: node, At: time.Now()})

	raw, spans, err := m.cfg.Cluster.MineRemote(ctx, node, req)
	if m.cfg.SpanSink != nil {
		for _, sd := range spans {
			m.cfg.SpanSink.ExportSpan(sd)
		}
	}
	if err != nil {
		return nil, err
	}
	var res core.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decoding remote result: %w", err)
	}
	return &res, nil
}

// isClosed reports whether Shutdown has begun — used by publishEnd to tell
// a drain-cancelled forwarded job from an ordinary user cancellation.
func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}
