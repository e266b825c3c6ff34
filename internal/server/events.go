package server

import "sync"

// Event is one job-progress notification pushed to SSE subscribers.
type Event struct {
	// Type is "level" (one completed mining level), "end" (the job
	// reached a terminal state; the stream closes after it), "shard" /
	// "retry" (corpus shard completed / scheduled for retry), or
	// "shutdown" (the daemon is draining; the stream closes after it).
	Type string `json:"type"`
	// Job is the job id.
	Job string `json:"job"`
	// Seq numbers the job's level events from 1 (it is the count of
	// levels reported so far, not the pattern length: the adaptive
	// algorithm restarts pattern lengths every round). Subscribers that
	// replayed a snapshot use it to drop duplicates.
	Seq int `json:"seq"`
	// Data is the JSON payload: core.LevelMetrics for "level" events, a
	// result-stripped JobView for "end".
	Data any `json:"data"`
}

// endsStream reports whether the event is the last one of its stream.
func (ev Event) endsStream() bool { return ev.Type == "end" || ev.Type == "shutdown" }

// subscriberBuffer is each subscriber's channel depth. A subscriber that
// falls this far behind is dropped (its channel closed) rather than ever
// blocking the publishing mining goroutine; the client reconnects and
// replays from the job snapshot.
const subscriberBuffer = 64

// Broadcaster fans job events out to per-job subscribers with bounded
// buffers and non-blocking publishes. All methods are safe for concurrent
// use and no-op on a nil receiver.
type Broadcaster struct {
	mu      sync.Mutex
	subs    map[string]map[*Subscription]struct{}
	closed  bool
	dropped int64 // subscribers dropped for falling behind
}

// NewBroadcaster builds an empty Broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[string]map[*Subscription]struct{})}
}

// Subscription is one subscriber's event feed. C is closed when the
// subscriber is dropped for lagging, the job's stream ends, or the
// broadcaster shuts down.
type Subscription struct {
	C   <-chan Event
	ch  chan Event
	b   *Broadcaster
	job string
}

// Subscribe registers a subscriber for the job's events. Always succeeds
// (even for unknown job ids: the caller validates the job separately and
// relies on snapshot replay for anything already missed). On a closed
// broadcaster the subscription is returned pre-closed.
func (b *Broadcaster) Subscribe(jobID string) *Subscription {
	ch := make(chan Event, subscriberBuffer)
	sub := &Subscription{C: ch, ch: ch, b: b, job: jobID}
	if b == nil {
		close(ch)
		return sub
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return sub
	}
	set, ok := b.subs[jobID]
	if !ok {
		set = make(map[*Subscription]struct{})
		b.subs[jobID] = set
	}
	set[sub] = struct{}{}
	return sub
}

// Close detaches the subscription. Safe to call more than once and after
// the broadcaster already dropped or ended the stream.
func (s *Subscription) Close() {
	if s == nil || s.b == nil {
		return
	}
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.b.removeLocked(s)
}

// removeLocked detaches and closes sub if it is still registered. Caller
// holds b.mu, which is what makes close-vs-publish race-free: every send
// happens under the same lock.
func (b *Broadcaster) removeLocked(sub *Subscription) {
	set, ok := b.subs[sub.job]
	if !ok {
		return
	}
	if _, in := set[sub]; !in {
		return
	}
	delete(set, sub)
	if len(set) == 0 {
		delete(b.subs, sub.job)
	}
	close(sub.ch)
}

// Publish delivers the event to every subscriber of its job without ever
// blocking: a subscriber whose buffer is full is dropped (channel closed)
// and counted, so a stalled SSE client cannot stall the mining worker.
func (b *Broadcaster) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for sub := range b.subs[ev.Job] {
		select {
		case sub.ch <- ev:
		default:
			b.dropped++
			b.removeLocked(sub)
		}
	}
}

// EndJob publishes the job's final event and closes every remaining
// subscriber of that job (their channels are closed after the event is
// buffered, so a live client reads the end event then EOF).
func (b *Broadcaster) EndJob(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for sub := range b.subs[ev.Job] {
		select {
		case sub.ch <- ev:
		default:
			b.dropped++
		}
		b.removeLocked(sub)
	}
}

// Close shuts the broadcaster down: every live subscriber is sent a
// terminal "shutdown" event (best-effort — a full buffer skips it) and
// then closed, so SSE clients see an explicit end-of-stream instead of a
// dropped connection. Further Subscribe calls return pre-closed
// subscriptions and publishes are dropped.
func (b *Broadcaster) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, set := range b.subs {
		for sub := range set {
			select {
			case sub.ch <- Event{Type: "shutdown", Job: sub.job}:
			default: // buffer full; the close below still ends the stream
			}
			close(sub.ch)
		}
	}
	b.subs = make(map[string]map[*Subscription]struct{})
}

// SSEStats is the broadcaster's contribution to /v1/metrics and /metrics.
type SSEStats struct {
	// Subscribers is the number of currently attached event streams.
	Subscribers int `json:"subscribers"`
	// Dropped counts subscribers disconnected for falling behind.
	Dropped int64 `json:"dropped_total"`
}

// Stats reports current subscriber count and cumulative drops.
func (b *Broadcaster) Stats() SSEStats {
	if b == nil {
		return SSEStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := SSEStats{Dropped: b.dropped}
	for _, set := range b.subs {
		st.Subscribers += len(set)
	}
	return st
}
