// Package cluster distributes permined mining work across a fleet of
// daemons. One node runs as the coordinator: it health-checks its peers
// with jittered heartbeats (alive → suspect → dead, with rejoin), places
// whole jobs and corpus shards on the fleet by consistent hash over the
// sequence content hash (so each node's subsumption-aware result cache
// stays node-affine), steals work from overloaded owners, and requeues the
// work of a dead node onto survivors through the corpus engine's existing
// per-shard retry budget and backoff.
//
// Peer RPC rides plain HTTP POSTs whose bodies are one JSON Message in an
// internal/frame frame — the codec the WAL journal uses, for the same
// reason: a truncated or corrupted peer response must be detected, never
// half-decoded. Every remote call is bounded by the caller's context
// deadline, retried a bounded number of times with the shared
// retry.Backoff, and panic-isolated, so a flaky peer degrades the job
// instead of wedging it.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"permine/internal/frame"
	"permine/internal/obs"
)

// MaxFrameBytes bounds a wire message's payload; anything longer is
// treated as corruption (or hostility), not a message. It matches the
// server's default request-body cap so a whole-sequence mine request fits.
const MaxFrameBytes = 64 << 20

// Frame errors: the internal/frame values, so a caller of ReadFrame can
// match either name.
var (
	ErrFrameTooLarge  = frame.ErrTooLarge
	ErrFrameChecksum  = frame.ErrChecksum
	ErrFrameTruncated = frame.ErrTruncated
	ErrFrameEmpty     = frame.ErrEmpty
)

// Message is one wire-protocol message: a type tag plus a JSON body.
// Types: "ping"/"pong" (heartbeats), "mine"/"result"/"error" (remote
// mining).
type Message struct {
	Type string          `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
}

// NewMessage builds a Message with body marshalled from v (nil v leaves
// the body empty).
func NewMessage(typ string, v any) (Message, error) {
	msg := Message{Type: typ}
	if v != nil {
		body, err := json.Marshal(v)
		if err != nil {
			return Message{}, fmt.Errorf("cluster: marshalling %s body: %w", typ, err)
		}
		msg.Body = body
	}
	return msg, nil
}

// EncodeFrame renders the message as one frame.
func EncodeFrame(msg Message) ([]byte, error) {
	payload, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshalling frame: %w", err)
	}
	return frame.Append(nil, payload, MaxFrameBytes)
}

// WriteFrame writes the message as one frame.
func WriteFrame(w io.Writer, msg Message) error {
	b, err := EncodeFrame(msg)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads exactly one framed message from r. max bounds the
// accepted payload length (0 means MaxFrameBytes); the length is checked
// before the payload is allocated, so a hostile header cannot force a
// huge allocation.
func ReadFrame(r io.Reader, max int) (Message, error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	payload, err := frame.Read(r, max)
	if err != nil {
		return Message{}, err
	}
	var msg Message
	if err := json.Unmarshal(payload, &msg); err != nil {
		return Message{}, fmt.Errorf("cluster: decoding frame payload: %w", err)
	}
	return msg, nil
}

// Ping is the heartbeat request body, sent by the coordinator.
type Ping struct {
	// From identifies the probing node.
	From string    `json:"from"`
	At   time.Time `json:"at"`
}

// Pong is the heartbeat response body. QueueDepth and MemPressure feed the
// coordinator's work-stealing placement; Ready mirrors the peer's /readyz
// state.
type Pong struct {
	// Node is the responder's boot-unique node id (a restarted peer gets a
	// fresh one).
	Node       string `json:"node"`
	Version    string `json:"version,omitempty"`
	Ready      bool   `json:"ready"`
	QueueDepth int    `json:"queue_depth"`
	// MemPressure is the responder's memory-governor pressure (used/limit,
	// 0 when the peer runs without a global ceiling). Placement penalises
	// hot nodes so new work avoids peers already near their ceiling.
	MemPressure float64 `json:"mem_pressure,omitempty"`
}

// MineRequest asks a peer to mine one sequence. The sequence travels in
// the same serialised form the WAL journals (alphabet by name + symbol
// set, raw characters), so both ends rebuild identical subjects.
type MineRequest struct {
	// Job labels the originating job or shard for the peer's logs.
	Job         string          `json:"job,omitempty"`
	Algorithm   string          `json:"algorithm"`
	SeqName     string          `json:"seq_name"`
	SeqAlphabet string          `json:"seq_alphabet"`
	SeqSymbols  string          `json:"seq_symbols"`
	SeqData     string          `json:"seq_data"`
	Params      json.RawMessage `json:"params"`
	// TraceID carries the coordinator's trace id — which doubles as the
	// originating X-Request-Id — so the peer's logs and spans correlate
	// with the coordinator's. ParentSpan is the span (job.run or
	// corpus.shard) the peer's server-side spans link under.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
}

// Trace returns the request's propagated span context.
func (r MineRequest) Trace() obs.SpanContext {
	return obs.SpanContext{TraceID: r.TraceID, SpanID: r.ParentSpan}
}

// MineResponse carries a remote mining outcome: the result JSON
// (core.Result) on success, or the error string. A run its memory budget
// stopped carries both — the result of its completed levels — and the
// typed error as Exhausted (core.ResourceExhaustedError JSON), so the
// coordinator classifies it as a local run. Spans piggybacks the peer's
// finished server-side spans so the coordinator can assemble one
// cross-node trace tree without a separate span-shipping channel.
type MineResponse struct {
	Node      string          `json:"node"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Exhausted json.RawMessage `json:"exhausted,omitempty"`
	Spans     []obs.SpanData  `json:"spans,omitempty"`
}
