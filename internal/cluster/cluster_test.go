package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"permine/internal/corpus/corpustest"
)

type doerFunc func(*http.Request) (*http.Response, error)

func (f doerFunc) Do(r *http.Request) (*http.Response, error) { return f(r) }

func frameResponse(t *testing.T, typ string, body any) *http.Response {
	t.Helper()
	msg, err := NewMessage(typ, body)
	if err != nil {
		t.Fatalf("NewMessage: %v", err)
	}
	frame, err := EncodeFrame(msg)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(frame)),
	}
}

func pongDoer(t *testing.T, node string, depth int) doerFunc {
	return func(r *http.Request) (*http.Response, error) {
		return frameResponse(t, "pong", Pong{Node: node, Ready: true, QueueDepth: depth}), nil
	}
}

func failDoer() doerFunc {
	return func(r *http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	}
}

// switchDoer lets a test flip a peer between reachable and unreachable.
type switchDoer struct {
	mu   sync.Mutex
	doer doerFunc
}

func (s *switchDoer) set(d doerFunc) {
	s.mu.Lock()
	s.doer = d
	s.mu.Unlock()
}

func (s *switchDoer) Do(r *http.Request) (*http.Response, error) {
	s.mu.Lock()
	d := s.doer
	s.mu.Unlock()
	return d(r)
}

func TestHealthStateMachine(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	sw := &switchDoer{}
	sw.set(pongDoer(t, "n-a1", 0))

	var transitions []string
	var tmu sync.Mutex
	c := New(Config{
		Self:         "http://self:1",
		Peers:        []string{peerAddr},
		SuspectAfter: 2,
		DeadAfter:    3,
		Transport:    sw,
		OnStateChange: func(addr string, from, to NodeState) {
			tmu.Lock()
			transitions = append(transitions, fmt.Sprintf("%s→%s", from, to))
			tmu.Unlock()
		},
	})
	defer c.Stop()

	if c.Ready() {
		t.Fatal("cluster ready before first probe")
	}
	c.probe(peerAddr)
	if !c.Alive(peerAddr) {
		t.Fatal("peer not alive after successful probe")
	}
	if !c.Ready() {
		t.Fatal("cluster not ready after all peers probed")
	}
	deadCtx := c.peerContext(peerAddr)

	sw.set(failDoer())
	c.probe(peerAddr) // fail 1: still alive (SuspectAfter 2)
	if !c.Alive(peerAddr) {
		t.Fatal("one failure should not demote an alive peer")
	}
	c.probe(peerAddr) // fail 2: suspect
	if c.Alive(peerAddr) {
		t.Fatal("peer alive after reaching SuspectAfter")
	}
	if deadCtx.Err() != nil {
		t.Fatal("suspect must not cancel the peer context")
	}
	c.probe(peerAddr) // fail 3: dead
	if deadCtx.Err() == nil {
		t.Fatal("death must cancel the peer context to abort in-flight RPCs")
	}
	if got := c.Stats().Peers[peerAddr]; got != "dead" {
		t.Fatalf("peer state = %q, want dead", got)
	}

	// Rejoin: a successful probe resurrects the peer with a fresh context.
	sw.set(pongDoer(t, "n-a2", 0))
	c.probe(peerAddr)
	if !c.Alive(peerAddr) {
		t.Fatal("peer did not rejoin after successful probe")
	}
	if ctx := c.peerContext(peerAddr); ctx.Err() != nil {
		t.Fatal("rejoined peer must get a live context")
	}

	tmu.Lock()
	defer tmu.Unlock()
	want := []string{"unknown→alive", "alive→suspect", "suspect→dead", "dead→alive"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}
}

func TestUnknownPeerFirstFailureResolvesToSuspect(t *testing.T) {
	const peerAddr = "http://peer-b:1"
	c := New(Config{
		Self:      "http://self:1",
		Peers:     []string{peerAddr},
		Transport: failDoer(),
	})
	defer c.Stop()

	c.probe(peerAddr)
	if got := c.Stats().Peers[peerAddr]; got != "suspect" {
		t.Fatalf("unreachable unknown peer = %q, want suspect", got)
	}
	// An unreachable peer is a resolved fact: readiness must clear, or a
	// coordinator with one dead-at-boot peer would never become ready.
	if !c.Ready() {
		t.Fatal("cluster not ready once every peer is resolved")
	}
}

func TestRPCFailureFeedsHealth(t *testing.T) {
	const peerAddr = "http://peer-c:1"
	c := New(Config{
		Self:         "http://self:1",
		Peers:        []string{peerAddr},
		SuspectAfter: 1,
		DeadAfter:    2,
		Transport:    pongDoer(t, "n-c", 0),
	})
	defer c.Stop()
	c.probe(peerAddr)
	if !c.Alive(peerAddr) {
		t.Fatal("setup: peer should be alive")
	}

	c.NoteRPCFailure(peerAddr, errors.New("mine call failed"))
	if c.Alive(peerAddr) {
		t.Fatal("RPC failure did not demote the peer")
	}
	c.NoteRPCFailure(peerAddr, errors.New("mine call failed"))
	if got := c.Stats().Peers[peerAddr]; got != "dead" {
		t.Fatalf("peer state after 2 RPC failures = %q, want dead", got)
	}
}

func alivePeers(t *testing.T, c *Cluster, addrs ...string) {
	t.Helper()
	for i, addr := range addrs {
		c.noteSuccess(addr, Pong{Node: fmt.Sprintf("n-%d", i), Ready: true})
		if !c.Alive(addr) {
			t.Fatalf("setup: %s not alive", addr)
		}
	}
}

func TestPlaceAffinity(t *testing.T) {
	peers := []string{"http://peer-a:1", "http://peer-b:1"}
	c := New(Config{Self: "http://self:1", Peers: peers, Transport: failDoer()})
	defer c.Stop()
	alivePeers(t, c, peers...)

	// Placement is a pure function of the key while membership and load
	// hold still — that is the cache-affinity property.
	for i := 0; i < 100; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("seq-%d", i)))
		first := c.Place(key[:])
		for rep := 0; rep < 5; rep++ {
			if got := c.Place(key[:]); got != first {
				t.Fatalf("key %d: placement flapped from %+v to %+v", i, first, got)
			}
		}
		if first.Stolen {
			t.Fatalf("key %d: stolen with uniform zero load", i)
		}
	}

	// All three members (self included) must own some keys.
	owners := make(map[string]int)
	for i := 0; i < 600; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("seq-%d", i)))
		owners[c.Place(key[:]).Node]++
	}
	if len(owners) != 3 || owners[""] == 0 {
		t.Fatalf("placement did not cover self + both peers: %v", owners)
	}
}

func TestPlaceExcludesUnhealthyPeers(t *testing.T) {
	peers := []string{"http://peer-a:1", "http://peer-b:1"}
	c := New(Config{
		Self: "http://self:1", Peers: peers,
		SuspectAfter: 1, DeadAfter: 2,
		Transport: failDoer(),
	})
	defer c.Stop()
	alivePeers(t, c, peers...)

	c.noteFailure(peers[0], "heartbeat", errors.New("down")) // suspect
	for i := 0; i < 400; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("seq-%d", i)))
		if got := c.Place(key[:]); got.Node == peers[0] {
			t.Fatalf("key %d placed on suspect peer", i)
		}
	}
}

func TestWorkStealing(t *testing.T) {
	peers := []string{"http://peer-a:1", "http://peer-b:1"}
	c := New(Config{
		Self:      "http://self:1",
		Peers:     peers,
		Transport: failDoer(),
	})
	defer c.Stop()
	alivePeers(t, c, peers...)

	// Find a key the first peer owns while load is uniform.
	var key []byte
	for i := 0; ; i++ {
		k := sha256.Sum256([]byte(fmt.Sprintf("seq-%d", i)))
		c.noteSuccess(peers[0], Pong{Node: "n-0", QueueDepth: 0})
		if c.Place(k[:]).Node == peers[0] {
			key = k[:]
			break
		}
		if i > 10000 {
			t.Fatal("no key owned by peer-a")
		}
	}

	// Below the margin: the owner keeps its key.
	c.noteSuccess(peers[0], Pong{Node: "n-0", QueueDepth: 1})
	if got := c.Place(key); got.Node != peers[0] || got.Stolen {
		t.Fatalf("placement diverted below the steal margin: %+v", got)
	}

	// At the margin: the least-loaded member steals it.
	c.noteSuccess(peers[0], Pong{Node: "n-0", QueueDepth: 7})
	got := c.Place(key)
	if !got.Stolen {
		t.Fatalf("overloaded owner kept the key: %+v", got)
	}
	if got.Node != peers[1] {
		t.Fatalf("steal went to %q, want the idle peer %q", got.Node, peers[1])
	}

	// Load drains: ownership reverts (affinity is the steady state).
	c.noteSuccess(peers[0], Pong{Node: "n-0", QueueDepth: 0})
	if got := c.Place(key); got.Node != peers[0] || got.Stolen {
		t.Fatalf("placement did not revert after load drained: %+v", got)
	}
}

func TestMineRemoteDeadPeerFastFails(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	c := New(Config{
		Self: "http://self:1", Peers: []string{peerAddr},
		SuspectAfter: 1, DeadAfter: 1,
		Transport: failDoer(),
	})
	defer c.Stop()
	c.noteFailure(peerAddr, "heartbeat", errors.New("down")) // straight to dead

	_, _, err := c.MineRemote(context.Background(), peerAddr, MineRequest{Algorithm: "mpp"})
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("want ErrPeerDead, got %v", err)
	}
}

func TestMineRemoteRetriesTransportErrors(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	var calls int
	var mu sync.Mutex
	doer := doerFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			return nil, errors.New("connection reset")
		}
		return frameResponse(t, "result", MineResponse{Node: "n-a", Result: []byte(`{"ok":true}`)}), nil
	})
	c := New(Config{
		Self: "http://self:1", Peers: []string{peerAddr},
		SuspectAfter: 10, DeadAfter: 20,
		Transport: doer,
	})
	defer c.Stop()
	c.noteSuccess(peerAddr, Pong{Node: "n-a"})

	raw, _, err := c.MineRemote(context.Background(), peerAddr, MineRequest{Algorithm: "mpp"})
	if err != nil {
		t.Fatalf("MineRemote: %v", err)
	}
	if string(raw) != `{"ok":true}` {
		t.Fatalf("result = %s", raw)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Fatalf("transport called %d times, want 3", calls)
	}
}

func TestMineRemoteExhaustsRetryBudget(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	var calls int
	var mu sync.Mutex
	doer := doerFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, errors.New("connection reset")
	})
	c := New(Config{
		Self: "http://self:1", Peers: []string{peerAddr},
		SuspectAfter: 10, DeadAfter: 20,
		Transport: doer,
	})
	defer c.Stop()
	c.noteSuccess(peerAddr, Pong{Node: "n-a"})

	_, _, err := c.MineRemote(context.Background(), peerAddr, MineRequest{Algorithm: "mpp"})
	if err == nil {
		t.Fatal("want error after exhausting RPC retries")
	}
	mu.Lock()
	if calls != 3 {
		t.Fatalf("transport called %d times, want 3 (1 + 2 retries)", calls)
	}
	mu.Unlock()
	// Each transport failure must have fed the health state machine.
	if got := c.Stats().HeartbeatFailures; got != 0 {
		t.Fatalf("RPC failures were miscounted as heartbeat failures: %d", got)
	}
}

func TestMineRemoteRemoteErrorIsNotTransport(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	doer := doerFunc(func(r *http.Request) (*http.Response, error) {
		return frameResponse(t, "error", MineResponse{Node: "n-a", Error: "unknown algorithm"}), nil
	})
	c := New(Config{
		Self: "http://self:1", Peers: []string{peerAddr},
		SuspectAfter: 1, DeadAfter: 1,
		Transport: doer,
	})
	defer c.Stop()
	c.noteSuccess(peerAddr, Pong{Node: "n-a"})

	_, _, err := c.MineRemote(context.Background(), peerAddr, MineRequest{Algorithm: "nope"})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if re.Node != "n-a" || re.Msg != "unknown algorithm" {
		t.Fatalf("RemoteError = %+v", re)
	}
	// A genuine mining error is not a transport failure: the peer must
	// stay alive (no retry would change the outcome, no demotion either).
	if !c.Alive(peerAddr) {
		t.Fatal("remote mining error demoted a healthy peer")
	}
}

func TestMineRemoteBusyPeer(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	doer := doerFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Body:       io.NopCloser(bytes.NewReader(nil)),
		}, nil
	})
	c := New(Config{
		Self: "http://self:1", Peers: []string{peerAddr},
		SuspectAfter: 1, DeadAfter: 1,
		Transport: doer,
	})
	defer c.Stop()
	c.noteSuccess(peerAddr, Pong{Node: "n-a"})

	_, _, err := c.MineRemote(context.Background(), peerAddr, MineRequest{})
	if !errors.Is(err, ErrPeerBusy) {
		t.Fatalf("want ErrPeerBusy, got %v", err)
	}
	if !c.Alive(peerAddr) {
		t.Fatal("a busy peer is healthy; it must not be demoted")
	}
}

func TestMineRemotePanicIsolation(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	doer := doerFunc(func(r *http.Request) (*http.Response, error) {
		panic("transport bug")
	})
	c := New(Config{Self: "http://self:1", Peers: []string{peerAddr}, Transport: doer})
	defer c.Stop()
	c.noteSuccess(peerAddr, Pong{Node: "n-a"})

	// Reaching the assertion at all proves the panic was contained.
	_, _, err := c.MineRemote(context.Background(), peerAddr, MineRequest{})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want panic-isolation error, got %v", err)
	}
}

func TestMineRemoteAbortsWhenPeerDies(t *testing.T) {
	const peerAddr = "http://peer-a:1"
	hang := doerFunc(func(r *http.Request) (*http.Response, error) {
		<-r.Context().Done()
		return nil, r.Context().Err()
	})
	c := New(Config{
		Self: "http://self:1", Peers: []string{peerAddr},
		SuspectAfter: 1, DeadAfter: 1,
		Transport: hang,
	})
	defer c.Stop()
	c.noteSuccess(peerAddr, Pong{Node: "n-a"})

	done := make(chan error, 1)
	go func() {
		_, _, err := c.MineRemote(context.Background(), peerAddr, MineRequest{})
		done <- err
	}()
	// Let the RPC get in flight, then declare the peer dead.
	time.Sleep(20 * time.Millisecond)
	c.noteFailure(peerAddr, "heartbeat", errors.New("down"))

	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("want ErrPeerDead, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MineRemote wedged on a dead peer")
	}
}

func TestStartStopNoLeaks(t *testing.T) {
	defer corpustest.CheckLeaks(t)
	c := New(Config{
		Self:      "http://self:1",
		Peers:     []string{"http://peer-a:1", "http://peer-b:1"},
		Heartbeat: 10 * time.Millisecond,
		Transport: failDoer(),
	})
	c.Start()
	time.Sleep(50 * time.Millisecond) // let several probe rounds run
	c.Stop()
	if !c.Ready() {
		t.Fatal("probing never resolved the peer set")
	}
}

func TestStatsShape(t *testing.T) {
	peers := []string{"http://peer-a:1", "http://peer-b:1"}
	c := New(Config{Self: "http://self:1", Peers: peers, Transport: failDoer()})
	defer c.Stop()
	c.noteSuccess(peers[0], Pong{Node: "n-a"})
	c.NoteForwardedJob()
	c.NoteForwardedShard()
	c.NoteShardStolen()
	c.NoteShardRequeued()

	s := c.Stats()
	if s.Self != "http://self:1" {
		t.Fatalf("Self = %q", s.Self)
	}
	for _, state := range []string{"alive", "suspect", "dead", "unknown"} {
		if _, ok := s.PeersByState[state]; !ok {
			t.Fatalf("PeersByState missing %q key: %v", state, s.PeersByState)
		}
	}
	if s.PeersByState["alive"] != 1 || s.PeersByState["unknown"] != 1 {
		t.Fatalf("PeersByState = %v", s.PeersByState)
	}
	if s.ForwardedJobs != 1 || s.ForwardedShards != 1 || s.ShardsStolen != 1 || s.ShardsRequeued != 1 {
		t.Fatalf("counters = %+v", s)
	}
}
