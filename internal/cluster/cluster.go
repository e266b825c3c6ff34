package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeState is a peer's position in the health state machine:
//
//	Unknown → Alive ⇄ Suspect → Dead → (rejoin) Alive
//
// A peer starts Unknown until its first probe resolves. Consecutive
// failures (heartbeat or mining RPC transport failures — both count)
// escalate Alive → Suspect → Dead; any success resets to Alive, including
// from Dead (rejoin). Suspect and Dead peers are excluded from new
// placements; Dead additionally cancels the peer's context, aborting
// in-flight RPCs so their shards bounce back into the retry budget.
type NodeState int

const (
	StateUnknown NodeState = iota
	StateAlive
	StateSuspect
	StateDead
)

func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Doer abstracts the HTTP transport so tests can interpose deterministic
// fault injection (see clustertest.Faults).
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Config parameterises a coordinator's view of its fleet.
type Config struct {
	// Self is this node's advertised address (used only for ring identity
	// and logs; the coordinator never RPCs itself).
	Self string
	// Peers are the base URLs of the other nodes (e.g. "http://10.0.0.2:7066").
	Peers []string
	// Heartbeat is the base probe interval and the deadline of one probe
	// RPC; each probe waits a jittered interval in [3/4·Heartbeat,
	// 5/4·Heartbeat) so a fleet of coordinators cannot synchronise into
	// probe storms. Default 1s.
	Heartbeat time.Duration
	// SuspectAfter / DeadAfter are the consecutive-failure thresholds for
	// Alive→Suspect and →Dead. Defaults 2 and 4.
	SuspectAfter int
	DeadAfter    int
	// Transport issues the HTTP requests; nil uses http.DefaultTransport
	// via a plain client.
	Transport Doer
	// SelfLoad reports this node's own queue depth for work-stealing
	// comparisons; nil means 0.
	SelfLoad func() int
	// SelfPressure reports this node's own memory-governor pressure for
	// the same comparisons; nil means 0.
	SelfPressure func() float64
	// Logger for state transitions; nil discards.
	Logger *slog.Logger
	// OnStateChange, if set, observes every peer state transition.
	OnStateChange func(addr string, from, to NodeState)
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 4
	}
	if c.DeadAfter < c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter
	}
	if c.Transport == nil {
		c.Transport = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// peer is the coordinator's record of one remote node. All fields are
// guarded by Cluster.mu; ctx/cancel are renewed on rejoin so an in-flight
// RPC against a dead incarnation aborts while a fresh incarnation starts
// clean.
type peer struct {
	addr        string
	state       NodeState
	fails       int
	node        string // boot-unique id from the last pong
	queueDepth  int
	memPressure float64 // governor pressure from the last pong
	ready       bool
	outstand    int // in-flight mining RPCs we have issued to it
	ctx         context.Context
	cancel      context.CancelFunc
}

// Cluster is the coordinator-side fleet view: membership, health, the
// placement ring, and counters. It is safe for concurrent use.
type Cluster struct {
	cfg Config

	mu    sync.Mutex
	peers map[string]*peer
	ring  *ring // over self + alive peers; rebuilt on every transition

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	forwardedJobs   atomic.Uint64
	forwardedShards atomic.Uint64
	shardsStolen    atomic.Uint64
	shardsRequeued  atomic.Uint64
	hbFailures      atomic.Uint64
	scrapeErrors    atomic.Uint64
}

// New builds a coordinator fleet view. Call Start to begin probing.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		peers:  make(map[string]*peer, len(cfg.Peers)),
		stopCh: make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		if addr == "" || addr == cfg.Self {
			continue
		}
		if _, dup := c.peers[addr]; dup {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		c.peers[addr] = &peer{addr: addr, state: StateUnknown, ctx: ctx, cancel: cancel}
	}
	c.rebuildRingLocked()
	return c
}

// Start launches one probe goroutine per peer, each probing immediately
// and then at jittered intervals.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.peers {
		c.wg.Add(1)
		go c.probeLoop(p.addr)
	}
}

// Stop halts probing, cancels every peer context (aborting in-flight
// RPCs), and waits for the probe goroutines to exit.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
	c.mu.Lock()
	for _, p := range c.peers {
		p.cancel()
	}
	c.mu.Unlock()
}

func (c *Cluster) probeLoop(addr string) {
	defer c.wg.Done()
	timer := time.NewTimer(0) // immediate first probe
	defer timer.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-timer.C:
		}
		c.probe(addr)
		timer.Reset(c.jitteredInterval())
	}
}

// jitteredInterval spreads probes over [3/4·Heartbeat, 5/4·Heartbeat).
func (c *Cluster) jitteredInterval() time.Duration {
	d := c.cfg.Heartbeat
	return d*3/4 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (c *Cluster) probe(addr string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Heartbeat)
	defer cancel()
	pong, err := c.heartbeat(ctx, addr)
	select {
	case <-c.stopCh:
		// A result that races Stop must not flip states after shutdown.
		return
	default:
	}
	if err != nil {
		c.hbFailures.Add(1)
		c.noteFailure(addr, "heartbeat", err)
		return
	}
	c.noteSuccess(addr, pong)
}

// NoteRPCFailure feeds a mining-RPC transport failure into the health
// state machine: a peer that drops mining calls is as unhealthy as one
// that drops heartbeats, and counting both gets node death detected at
// RPC speed instead of heartbeat speed.
func (c *Cluster) NoteRPCFailure(addr string, err error) {
	c.noteFailure(addr, "rpc", err)
}

func (c *Cluster) noteFailure(addr, kind string, err error) {
	c.mu.Lock()
	p, ok := c.peers[addr]
	if !ok {
		c.mu.Unlock()
		return
	}
	p.fails++
	from := p.state
	switch {
	case p.fails >= c.cfg.DeadAfter:
		p.state = StateDead
	case p.fails >= c.cfg.SuspectAfter, from == StateUnknown:
		// An Unknown peer's first observed failure resolves it to Suspect:
		// it is accounted for (readiness can clear) but not placeable.
		p.state = StateSuspect
	}
	to, fails := p.state, p.fails
	if to == StateDead && from != StateDead {
		// Abort anything in flight so its shards re-enter the retry budget
		// now, not at their shard deadline.
		p.cancel()
	}
	if to != from {
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
	if to != from {
		c.cfg.Logger.Warn("cluster: peer state change",
			"peer", addr, "from", from.String(), "to", to.String(),
			"fails", fails, "cause", kind, "err", err)
		if c.cfg.OnStateChange != nil {
			c.cfg.OnStateChange(addr, from, to)
		}
	}
}

func (c *Cluster) noteSuccess(addr string, pong Pong) {
	c.mu.Lock()
	p, ok := c.peers[addr]
	if !ok {
		c.mu.Unlock()
		return
	}
	from := p.state
	p.fails = 0
	p.state = StateAlive
	p.queueDepth = pong.QueueDepth
	p.memPressure = pong.MemPressure
	p.ready = pong.Ready
	if from == StateDead {
		// Rejoin: the dead incarnation's context stays cancelled; the new
		// one gets a fresh lifetime.
		p.ctx, p.cancel = context.WithCancel(context.Background())
	}
	p.node = pong.Node
	to := p.state
	if to != from {
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
	if to != from {
		c.cfg.Logger.Info("cluster: peer state change",
			"peer", addr, "from", from.String(), "to", to.String())
		if c.cfg.OnStateChange != nil {
			c.cfg.OnStateChange(addr, from, to)
		}
	}
}

// rebuildRingLocked recomputes the placement ring over self plus the
// currently alive peers. Caller holds c.mu.
func (c *Cluster) rebuildRingLocked() {
	members := make([]string, 0, len(c.peers)+1)
	if c.cfg.Self != "" {
		members = append(members, c.cfg.Self)
	}
	for _, p := range c.peers {
		if p.state == StateAlive {
			members = append(members, p.addr)
		}
	}
	sort.Strings(members)
	c.ring = newRing(members)
}

// Ready reports whether the peer set is resolved: every configured peer
// has been observed at least once (no peer is still Unknown). Dead or
// suspect peers do not block readiness — an unreachable peer is a
// resolved fact, not an unresolved one.
func (c *Cluster) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.peers {
		if p.state == StateUnknown {
			return false
		}
	}
	return true
}

// Alive reports whether addr is a currently-alive peer.
func (c *Cluster) Alive(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[addr]
	return ok && p.state == StateAlive
}

// Member reports whether addr is self or a configured peer, regardless of
// health. Restore-time requeue counting uses this to distinguish "node we
// have not probed yet" from "node that left the membership".
func (c *Cluster) Member(addr string) bool {
	if addr == c.cfg.Self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.peers[addr]
	return ok
}

// Self returns this node's advertised address.
func (c *Cluster) Self() string { return c.cfg.Self }

// Placement is one placement decision. Node is "" when the work should
// run locally; Stolen marks a diversion away from the ring owner.
type Placement struct {
	Node   string
	Stolen bool
}

// stealMargin is the load gap (outstanding RPCs + reported queue depth +
// memory-pressure penalty) at which a placement is diverted from the ring
// owner to the least-loaded member.
const stealMargin = 2

// Place decides where work identified by key (the sequence content hash,
// so placement follows the result cache) should run. The ring owner wins
// unless its load exceeds the least-loaded member's by at least
// stealMargin, in which case the least-loaded member steals the work.
// With no alive peers everything runs locally.
func (c *Cluster) Place(key []byte) Placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner := c.ring.owner(key)
	if owner == "" {
		return Placement{}
	}
	// Work stealing: compare the owner's load against the least-loaded
	// ring member.
	best, bestLoad := owner, c.loadLocked(owner)
	for _, m := range c.membersLocked() {
		if l := c.loadLocked(m); l < bestLoad || (l == bestLoad && m < best) {
			best, bestLoad = m, l
		}
	}
	if best != owner && c.loadLocked(owner) >= bestLoad+stealMargin {
		return c.placementLocked(best, true)
	}
	return c.placementLocked(owner, false)
}

func (c *Cluster) placementLocked(node string, stolen bool) Placement {
	if node == c.cfg.Self {
		return Placement{Stolen: stolen}
	}
	return Placement{Node: node, Stolen: stolen}
}

func (c *Cluster) membersLocked() []string {
	members := make([]string, 0, len(c.peers)+1)
	if c.cfg.Self != "" {
		members = append(members, c.cfg.Self)
	}
	for _, p := range c.peers {
		if p.state == StateAlive {
			members = append(members, p.addr)
		}
	}
	return members
}

// loadLocked estimates a member's load: our outstanding RPCs against it,
// plus the queue depth it last reported (self: the SelfLoad callback),
// plus a penalty for reported memory pressure — a memory-hot node looks
// several queued jobs busier, so placement drifts to cool nodes before
// the hot one starts shedding with 429s.
func (c *Cluster) loadLocked(addr string) int {
	if addr == c.cfg.Self {
		var load int
		if c.cfg.SelfLoad != nil {
			load = c.cfg.SelfLoad()
		}
		if c.cfg.SelfPressure != nil {
			load += pressurePenalty(c.cfg.SelfPressure())
		}
		return load
	}
	if p, ok := c.peers[addr]; ok {
		return p.outstand + p.queueDepth + pressurePenalty(p.memPressure)
	}
	return 0
}

// pressurePenalty converts governor pressure in [0,1+] into load units:
// linear up to 8 extra units at a full ceiling, saturating beyond it.
func pressurePenalty(p float64) int {
	if p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	return int(p*8 + 0.5)
}

// peerContext returns the peer's current-incarnation context (cancelled
// when the peer is declared dead), or nil if addr is not a peer.
func (c *Cluster) peerContext(addr string) context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.peers[addr]; ok {
		return p.ctx
	}
	return nil
}

func (c *Cluster) addLoad(addr string, delta int) {
	c.mu.Lock()
	if p, ok := c.peers[addr]; ok {
		p.outstand += delta
		if p.outstand < 0 {
			p.outstand = 0
		}
	}
	c.mu.Unlock()
}

// NoteForwardedJob counts a whole job forwarded to a peer.
func (c *Cluster) NoteForwardedJob() { c.forwardedJobs.Add(1) }

// NoteForwardedShard counts a corpus shard attempt forwarded to a peer.
func (c *Cluster) NoteForwardedShard() { c.forwardedShards.Add(1) }

// NoteShardStolen counts a shard placement diverted off its ring owner.
func (c *Cluster) NoteShardStolen() { c.shardsStolen.Add(1) }

// NoteShardRequeued counts a shard bounced back into the retry budget
// because its assigned node died (or, at restore, left the membership).
func (c *Cluster) NoteShardRequeued() { c.shardsRequeued.Add(1) }

// NoteScrapeError counts a failed peer scrape during metrics federation.
func (c *Cluster) NoteScrapeError() { c.scrapeErrors.Add(1) }

// ScrapeTarget is one peer the metrics federation endpoint should scrape.
type ScrapeTarget struct {
	Addr string
	// Node is the peer's boot-unique node id from its last pong, or ""
	// when the peer has never answered a probe.
	Node string
}

// ScrapeTargets lists the peers worth scraping — everything not declared
// dead, sorted by address. Suspect and unprobed peers are included on
// purpose: a scrape that fails feeds the scrape-error counter and the
// output degrades to the nodes that answered, which is exactly the
// partial-on-peer-failure behaviour federation promises.
func (c *Cluster) ScrapeTargets() []ScrapeTarget {
	c.mu.Lock()
	targets := make([]ScrapeTarget, 0, len(c.peers))
	for _, p := range c.peers {
		if p.state == StateDead {
			continue
		}
		targets = append(targets, ScrapeTarget{Addr: p.addr, Node: p.node})
	}
	c.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].Addr < targets[j].Addr })
	return targets
}

// Scrape fetches one peer's raw /metrics exposition over the cluster
// transport, bounded by ctx. The body is capped at MaxFrameBytes — an
// exposition bigger than the largest legal RPC frame is corruption, not
// metrics.
func (c *Cluster) Scrape(ctx context.Context, addr string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Transport.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s/metrics returned %s", addr, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	return body, nil
}

// Stats is a point-in-time snapshot of fleet health and counters, shaped
// for /v1/metrics and the Prometheus exposition.
type Stats struct {
	Self string `json:"self"`
	// Peers maps peer address → state name.
	Peers map[string]string `json:"peers"`
	// PeersByState always carries the four state keys so gauge families
	// emit a complete, stable label set.
	PeersByState      map[string]int `json:"peers_by_state"`
	ForwardedJobs     uint64         `json:"forwarded_jobs"`
	ForwardedShards   uint64         `json:"forwarded_shards"`
	ShardsStolen      uint64         `json:"shards_stolen"`
	ShardsRequeued    uint64         `json:"shards_requeued"`
	HeartbeatFailures uint64         `json:"heartbeat_failures"`
	ScrapeErrors      uint64         `json:"scrape_errors"`
}

// Stats snapshots the cluster.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Self:  c.cfg.Self,
		Peers: make(map[string]string),
		PeersByState: map[string]int{
			"alive": 0, "suspect": 0, "dead": 0, "unknown": 0,
		},
		ForwardedJobs:     c.forwardedJobs.Load(),
		ForwardedShards:   c.forwardedShards.Load(),
		ShardsStolen:      c.shardsStolen.Load(),
		ShardsRequeued:    c.shardsRequeued.Load(),
		HeartbeatFailures: c.hbFailures.Load(),
		ScrapeErrors:      c.scrapeErrors.Load(),
	}
	c.mu.Lock()
	for addr, p := range c.peers {
		s.Peers[addr] = p.state.String()
		s.PeersByState[p.state.String()]++
	}
	c.mu.Unlock()
	return s
}
