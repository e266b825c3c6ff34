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
// map to 429 (+Retry-After), and drain and a transient failure of the run
// (a panic the barrier caught, a lapsed attempt deadline) to 503; all read
// as ErrPeerBusy on the coordinator, whose engine retries the shard under
// its budget without dinging this peer's health. Any other outcome travels
// back in the result frame — a mining error as its message, a memory-budget
// stop as its completed levels plus the typed error — and is the shard's
// outcome on the coordinator, classified as a local run's would be.
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
	case errors.Is(err, ErrShuttingDown), corpus.IsTransient(err):
		apiError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := cluster.MineResponse{Node: s.nodeID, Spans: spans}
	var exhausted *core.ResourceExhaustedError
	if errors.As(err, &exhausted) {
		resp.Exhausted, _ = json.Marshal(exhausted)
	}
	if err != nil {
		resp.Error = err.Error()
	}
	if res != nil {
		if resp.Result, err = json.Marshal(res); err != nil {
			resp.Result, resp.Exhausted = nil, nil
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

// MineForPeer runs one forwarded mining unit as a one-shard job of this
// node's engine: through its worker pool, result cache and panic
// barrier, so forwarded shards compete fairly with local jobs and warm
// the node-affine cache. It runs once — retries belong to the
// coordinator — and blocks until the unit finishes or the peer request's
// context dies; a dead request context cancels the mining run
// (coordinator gone — its retry budget owns the shard now, finishing
// here would be wasted work).
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

	if res, _, ok := m.lookup(subject, algo, np); ok {
		_, span := startRun(rctx, obs.KV("cache_hit", true))
		span.End()
		return res, collected(), nil
	}
	// Same admission ladder as local submits: a memory-hot peer sheds
	// forwarded work back to the coordinator (429 → ErrPeerBusy → retried
	// elsewhere) instead of digging itself deeper.
	if err := m.admit(shedClass(algo)); err != nil {
		return nil, nil, err
	}
	j, err := m.newJob(kindPeer, corpus.Spec{
		ID: remote.Job, Algorithm: algo, Params: np, Seqs: []*seq.Sequence{subject},
	})
	if err != nil {
		return nil, nil, err
	}
	type reply struct {
		res *core.Result
		err error
	}
	ch := make(chan reply, 1)
	task := func() {
		defer m.engine.Interrupt(j)
		stop := context.AfterFunc(rctx, func() { m.engine.Interrupt(j) })
		defer stop()
		ctx, span := startRun(j.Context())
		res, err := m.engine.RunOnce(ctx, j, j.Shard(0), 1)
		// What travels back is what the outcome rule makes of the run: a
		// done result (budget-truncated or not), a memory-budget stop's
		// completed levels beside its error, or the error alone — a
		// transient one being the coordinator's to retry.
		switch state, _, _ := corpus.Outcome(res, err); {
		case corpus.IsTransient(err), state == corpus.ShardFailed:
			res = nil
		case state == corpus.ShardDone:
			err = nil
		}
		// End job.run before replying: the handler ships the collected
		// spans as soon as it has the reply, and without job.run its
		// mine.level spans would arrive with no parent.
		span.RecordError(err)
		span.End()
		ch <- reply{res, err}
	}
	switch {
	case m.closed.Load():
		err = ErrShuttingDown
	case !m.offer(task):
		err = ErrQueueFull
	}
	if err != nil {
		m.engine.Interrupt(j)
		return nil, nil, err
	}
	select {
	case rep := <-ch:
		return rep.res, collected(), rep.err
	case <-rctx.Done():
		// The queued task observes rctx through AfterFunc and aborts on
		// its own; the buffered channel keeps its send from leaking.
		return nil, nil, rctx.Err()
	case <-m.stop:
		return nil, nil, ErrShuttingDown
	}
}

// forward runs one shard on its ring placement and decodes the result,
// replaying the remote levels through the shard's progress hook so event
// subscribers here see the stream a local run would produce. It journals
// the placement first, so a coordinator restart knows where the shard
// was, and feeds the spans the peer piggybacked on its reply into the
// span sink (the trace ring), so GET /v1/traces/{id} here returns the
// assembled cross-node tree. A transport failure or a busy peer is
// transient — the engine retries the shard, re-placed on whatever
// membership the health checker has left alive — while a peer-reported
// mining error or memory-budget stop is the shard's outcome: re-running
// it would end identically.
//
// Params travel without their runtime-only fields (Ctx, Progress, Hooks are
// json:"-"), so the peer re-normalizes a clean copy. The attempt span
// carried by ctx becomes the peer's trace parent, and its trace id — also
// the originating X-Request-Id — rides along so both nodes' logs
// correlate.
func (m *Manager) forward(ctx context.Context, j *corpus.Job, s *corpus.Shard, p core.Params, pl cluster.Placement) (*core.Result, error) {
	c := m.cfg.Cluster
	if isCorpus(j) {
		c.NoteForwardedShard()
		if pl.Stolen {
			c.NoteShardStolen()
		}
	} else {
		c.NoteForwardedJob()
	}
	j.SetNote(s, "forwarded to cluster peer "+pl.Node)
	params, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("encoding params: %w", err)
	}
	subject := s.Seq()
	req := cluster.MineRequest{
		Job:         j.ID(),
		Algorithm:   j.Algorithm().String(),
		SeqName:     subject.Name(),
		SeqAlphabet: subject.Alphabet().Name(),
		SeqSymbols:  string(subject.Alphabet().Symbols()),
		SeqData:     subject.Data(),
		Params:      params,
	}
	if sc := obs.FromContext(ctx).Context(); sc.Valid() {
		req.TraceID, req.ParentSpan = sc.TraceID, sc.SpanID
	}
	m.cfg.Store.AppendAssign(j.ID(), store.AssignRecord{Shard: s.Index(), Node: pl.Node, At: time.Now()})

	raw, spans, err := c.MineRemote(ctx, pl.Node, req)
	if m.cfg.SpanSink != nil {
		for _, sd := range spans {
			m.cfg.SpanSink.ExportSpan(sd)
		}
	}
	var remoteErr *cluster.RemoteError
	switch {
	case err == nil:
	case errors.As(err, &remoteErr) && remoteErr.Exhausted != nil && raw != nil:
		// A memory-budget stop: rebuilt as the typed error a local run
		// returns, beside its completed levels.
		exhausted := new(core.ResourceExhaustedError)
		if jerr := json.Unmarshal(remoteErr.Exhausted, exhausted); jerr != nil {
			return nil, err
		}
		err = exhausted
	case errors.As(err, &remoteErr), ctx.Err() != nil:
		return nil, err
	default:
		if !c.Alive(pl.Node) {
			// The shard is headed back to the queue because its node
			// died under it.
			c.NoteShardRequeued()
		}
		return nil, corpus.Transient(err)
	}
	var res core.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decoding remote result: %w", err)
	}
	for _, lv := range res.Levels {
		p.Progress(lv)
	}
	return &res, err
}
