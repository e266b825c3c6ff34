package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"permine/internal/obs"
	"permine/internal/retry"
)

// Peer RPC endpoints, served by every permined node regardless of role.
const (
	heartbeatPath = "/v1/cluster/heartbeat"
	minePath      = "/v1/cluster/mine"
)

// A mining RPC that fails in transport is retransmitted rpcRetries times,
// waiting retry.Backoff(rpcBackoff, time.Second, attempt) before each.
const (
	rpcRetries = 2
	rpcBackoff = 50 * time.Millisecond
)

// RPC errors.
var (
	// ErrPeerBusy means the peer answered 429 (queue full or memory
	// governor shedding) or 503 (draining). The caller should retry
	// elsewhere, not count it as death.
	ErrPeerBusy = errors.New("cluster: peer busy")
	// ErrPeerDead short-circuits an RPC to a peer already declared dead.
	ErrPeerDead = errors.New("cluster: peer is dead")
)

// RemoteError is a genuine mining failure reported by the peer — the RPC
// itself worked. It must not feed the health state machine and must not
// trigger a local re-mine (the same input would fail the same way).
// Exhausted is the peer's MineResponse.Exhausted: set, MineRemote returns
// the run's completed levels beside the error.
type RemoteError struct {
	Node      string
	Msg       string
	Exhausted json.RawMessage
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: remote mining on %s failed: %s", e.Node, e.Msg)
}

// heartbeat probes one peer: a framed ping, expecting a framed pong. Each
// probe carries a fresh trace id in its X-Request-Id header so a failing
// heartbeat can be correlated with the peer's access log.
func (c *Cluster) heartbeat(ctx context.Context, addr string) (Pong, error) {
	msg, err := NewMessage("ping", Ping{From: c.cfg.Self, At: time.Now().UTC()})
	if err != nil {
		return Pong{}, err
	}
	reply, err := c.call(ctx, addr, heartbeatPath, msg, obs.SpanContext{TraceID: obs.NewTraceID()})
	if err != nil {
		return Pong{}, err
	}
	if reply.Type != "pong" {
		return Pong{}, fmt.Errorf("cluster: unexpected heartbeat reply %q", reply.Type)
	}
	var pong Pong
	if err := jsonUnmarshal(reply.Body, &pong); err != nil {
		return Pong{}, err
	}
	return pong, nil
}

// MineRemote runs one mining request on a peer and returns the raw
// core.Result JSON plus any finished remote spans the peer piggybacked on
// its reply (returned on the RemoteError path too — a failed remote mine
// still traced; a memory-budget stop also returns its result there). It
// layers every robustness guarantee a remote mine needs: the peer's
// death-watch context (an in-flight call against a peer later declared
// dead aborts immediately), the caller's deadline, bounded retries with
// backoff for transport errors, panic isolation, and health feedback so a
// flaky peer is demoted at RPC speed.
func (c *Cluster) MineRemote(ctx context.Context, addr string, req MineRequest) (raw []byte, spans []obs.SpanData, err error) {
	defer func() {
		// Panic isolation: a bug in the RPC path must degrade this one
		// attempt, never take down the worker running the shard.
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: panic in remote mine on %s: %v", addr, r)
		}
	}()

	peerCtx := c.peerContext(addr)
	if peerCtx == nil {
		return nil, nil, fmt.Errorf("cluster: %s is not a peer", addr)
	}
	if peerCtx.Err() != nil {
		return nil, nil, ErrPeerDead
	}
	// The call lives under both lifetimes: the shard/job deadline and the
	// peer's death watch.
	callCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(peerCtx, cancel)
	defer stop()

	c.addLoad(addr, 1)
	defer c.addLoad(addr, -1)

	msg, err := NewMessage("mine", req)
	if err != nil {
		return nil, nil, err
	}

	var lastErr error
	for attempt := 0; attempt <= rpcRetries; attempt++ {
		if attempt > 0 {
			// Short backoff between retransmissions; the shard-level retry
			// budget owns the long backoffs.
			select {
			case <-callCtx.Done():
				return nil, nil, rpcContextError(ctx, peerCtx, callCtx)
			case <-time.After(retry.Backoff(rpcBackoff, time.Second, attempt)):
			}
		}
		reply, err := c.call(callCtx, addr, minePath, msg, req.Trace())
		if err != nil {
			if callCtx.Err() != nil {
				return nil, nil, rpcContextError(ctx, peerCtx, callCtx)
			}
			if errors.Is(err, ErrPeerBusy) {
				return nil, nil, err
			}
			// Transport failure: feed the health state machine and retry.
			c.NoteRPCFailure(addr, err)
			lastErr = err
			continue
		}
		switch reply.Type {
		case "result":
			var resp MineResponse
			if err := jsonUnmarshal(reply.Body, &resp); err != nil {
				lastErr = err
				continue
			}
			if resp.Error != "" {
				return resp.Result, resp.Spans, &RemoteError{Node: nodeOr(resp.Node, addr), Msg: resp.Error, Exhausted: resp.Exhausted}
			}
			return resp.Result, resp.Spans, nil
		case "error":
			var resp MineResponse
			if err := jsonUnmarshal(reply.Body, &resp); err != nil {
				lastErr = err
				continue
			}
			return nil, resp.Spans, &RemoteError{Node: nodeOr(resp.Node, addr), Msg: resp.Error}
		default:
			lastErr = fmt.Errorf("cluster: unexpected mine reply %q", reply.Type)
		}
	}
	return nil, nil, fmt.Errorf("cluster: mine on %s failed after %d attempts: %w",
		addr, rpcRetries+1, lastErr)
}

// rpcContextError distinguishes why a call context died: the peer being
// declared dead reads as ErrPeerDead (requeue the shard), everything else
// surfaces the caller's own cancellation/deadline.
func rpcContextError(ctx, peerCtx, callCtx context.Context) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if peerCtx.Err() != nil {
		return ErrPeerDead
	}
	return callCtx.Err()
}

// call POSTs one framed message and decodes one framed reply. The trace
// context rides standard HTTP headers — X-Request-Id carries the trace id
// (adopted by the receiving node's request middleware, so both nodes' logs
// share one id) and X-Permine-Parent-Span the caller's span id.
func (c *Cluster) call(ctx context.Context, addr, path string, msg Message, trace obs.SpanContext) (Message, error) {
	frame, err := EncodeFrame(msg)
	if err != nil {
		return Message{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(frame))
	if err != nil {
		return Message{}, err
	}
	req.Header.Set("Content-Type", "application/x-permine-frame")
	if trace.TraceID != "" {
		req.Header.Set("X-Request-Id", trace.TraceID)
	}
	if trace.SpanID != "" {
		req.Header.Set("X-Permine-Parent-Span", trace.SpanID)
	}
	resp, err := c.cfg.Transport.Do(req)
	if err != nil {
		return Message{}, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
		return Message{}, ErrPeerBusy
	}
	if resp.StatusCode != http.StatusOK {
		return Message{}, fmt.Errorf("cluster: %s%s returned %s", addr, path, resp.Status)
	}
	return ReadFrame(resp.Body, MaxFrameBytes)
}

func nodeOr(node, fallback string) string {
	if node != "" {
		return node
	}
	return fallback
}

func jsonUnmarshal(b []byte, v any) error {
	if len(b) == 0 {
		return errors.New("cluster: empty message body")
	}
	return json.Unmarshal(b, v)
}
