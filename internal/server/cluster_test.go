package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"permine/internal/cluster"
	"permine/internal/cluster/clustertest"
	"permine/internal/core"
	"permine/internal/corpus/corpustest"
	"permine/internal/seq"
)

// waitReadyz polls GET /readyz until it turns 200.
func waitReadyz(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", base)
}

// waitPeersAlive polls the coordinator's stats until every listed peer is
// alive, so ring placement is deterministic before a test submits work.
func waitPeersAlive(t *testing.T, clu *cluster.Cluster, addrs ...string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		stats := clu.Stats()
		alive := 0
		for _, a := range addrs {
			if stats.Peers[a] == "alive" {
				alive++
			}
		}
		if alive == len(addrs) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("peers never all alive: %v", clu.Stats().Peers)
}

// placementNode computes where the coordinator's ring puts a sequence at
// the current load (empty string = the coordinator itself).
func placementNode(t *testing.T, clu *cluster.Cluster, sq *seq.Sequence) string {
	t.Helper()
	algo, err := core.ParseAlgorithm("mppm")
	if err != nil {
		t.Fatal(err)
	}
	np, err := miningParams().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor(sq, algo, np)
	return clu.Place(key.ID.SeqHash[:]).Node
}

// pickOwnedSequences generates candidate sequences until `want` of them
// are ring-owned by each requested node, returning them grouped by node.
func pickOwnedSequences(t *testing.T, clu *cluster.Cluster, seqLen int, want int, nodes ...string) map[string][]*seq.Sequence {
	t.Helper()
	owned := make(map[string][]*seq.Sequence, len(nodes))
	need := func() bool {
		for _, n := range nodes {
			if len(owned[n]) < want {
				return true
			}
		}
		return false
	}
	for s := uint64(100); s < 400 && need(); s++ {
		sq := genomeSeq(t, seqLen, s)
		node := placementNode(t, clu, sq)
		for _, n := range nodes {
			if node == n && len(owned[n]) < want {
				owned[n] = append(owned[n], sq)
			}
		}
	}
	if need() {
		t.Fatalf("could not find %d sequences per node across 300 candidates", want)
	}
	return owned
}

// fastaFor renders sequences as a multi-FASTA payload named shard0..N in
// the given order.
func fastaFor(seqs []*seq.Sequence) string {
	var sb strings.Builder
	for i, sq := range seqs {
		fmt.Fprintf(&sb, ">shard%d\n%s\n", i, sq.Data())
	}
	return sb.String()
}

// submitCorpusHTTP posts the corpus and returns its id.
func submitCorpusHTTP(t *testing.T, base, fasta string) string {
	t.Helper()
	resp := postJSON(t, base+"/v1/corpus", corpusBody(t, fasta))
	body := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus submit status = %d: %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("corpus submit returned no id: %v", body)
	}
	return id
}

// TestClusterNodeDeathRequeue is the headline chaos proof: a 3-node
// in-process cluster mines a corpus, one peer is killed mid-shard, the
// dead peer's shards requeue onto the survivors within the per-shard
// retry budget, and the merged result is byte-identical to a single-node
// run of the same corpus.
func TestClusterNodeDeathRequeue(t *testing.T) {
	corpustest.CheckLeaks(t)

	const seqLen = 240

	// Peer B mines slowly so the kill lands mid-shard; peer C is healthy.
	_, bTS := newTestServer(t, Config{
		Workers:     2,
		ClusterRole: "peer",
		ShardDelay:  1500 * time.Millisecond,
	})
	_, cTS := newTestServer(t, Config{Workers: 2, ClusterRole: "peer"})

	aSrv, aTS := newTestServer(t, Config{
		Workers:             4,
		ClusterRole:         "coordinator",
		ClusterPeers:        []string{bTS.URL, cTS.URL},
		ClusterSelf:         "http://coordinator.test",
		ClusterHeartbeat:    150 * time.Millisecond,
		ClusterSuspectAfter: 1,
		ClusterDeadAfter:    2,
		RetryBudget:         5,
		RetryBackoff:        20 * time.Millisecond,
	})
	waitReadyz(t, aTS.URL)
	clu := aSrv.clu
	if clu == nil {
		t.Fatal("coordinator built no cluster")
	}
	waitPeersAlive(t, clu, bTS.URL, cTS.URL)

	// Compose the corpus so the doomed node's shards are enqueued first
	// (they will be in flight on B when it dies) followed by fast shards
	// on the survivors.
	owned := pickOwnedSequences(t, clu, seqLen, 2, bTS.URL, cTS.URL, "")
	seqs := append([]*seq.Sequence{}, owned[bTS.URL]...)
	seqs = append(seqs, owned[cTS.URL]...)
	seqs = append(seqs, owned[""]...)
	fasta := fastaFor(seqs)

	// Reference: the identical corpus on a lone standalone node.
	_, refTS := newTestServer(t, Config{Workers: 4})
	refID := submitCorpusHTTP(t, refTS.URL, fasta)
	ref := pollCorpus(t, refTS.URL, refID)
	if ref["state"] != "done" {
		t.Fatalf("reference corpus state = %v, want done", ref["state"])
	}
	want, err := json.Marshal(ref["result"])
	if err != nil {
		t.Fatal(err)
	}

	id := submitCorpusHTTP(t, aTS.URL, fasta)

	// Wait until the corpus is demonstrably mid-flight: at least one
	// survivor shard done while B (1.5s per shard) still holds its two.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := doRequest(t, http.MethodGet, aTS.URL+"/v1/corpus/"+id)
		body := decode(t, resp.Body)
		resp.Body.Close()
		if done, _ := body["shards_done"].(float64); done >= 1 {
			break
		}
		if state, _ := body["state"].(string); state != "running" {
			t.Fatalf("corpus reached %q before the kill", state)
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard finished before the kill window")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill B: abort its in-flight connections (the coordinator's RPCs
	// fail mid-request, like a SIGKILL'd process) and close its listener
	// so retries see connection-refused.
	bTS.CloseClientConnections()
	bTS.Close()

	final := pollCorpus(t, aTS.URL, id)
	if final["state"] != "done" {
		t.Fatalf("cluster corpus state = %v, want done (body: %v)", final["state"], final)
	}
	got, err := json.Marshal(final["result"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged cluster result differs from single-node run:\n got %s\nwant %s", got, want)
	}

	stats := clu.Stats()
	if stats.ShardsRequeued < 1 {
		t.Errorf("ShardsRequeued = %d, want >= 1 after node death", stats.ShardsRequeued)
	}
	if stats.ForwardedShards < 2 {
		t.Errorf("ForwardedShards = %d, want >= 2", stats.ForwardedShards)
	}
	if state := stats.Peers[bTS.URL]; state != "dead" {
		t.Errorf("killed peer state = %q, want dead", state)
	}
	if state := stats.Peers[cTS.URL]; state != "alive" {
		t.Errorf("surviving peer state = %q, want alive", state)
	}

	// The survivors' result cache is node-affine: resubmitting the same
	// corpus now must not touch the dead node and still merge identically.
	id2 := submitCorpusHTTP(t, aTS.URL, fasta)
	final2 := pollCorpus(t, aTS.URL, id2)
	if got2, _ := json.Marshal(final2["result"]); !bytes.Equal(got2, want) {
		t.Errorf("post-death resubmit result differs from single-node run")
	}
}

// TestClusterForwardedJobShutdownEvent pins the drain semantics for
// cluster-forwarded jobs: a client subscribed on the coordinator — a node
// that never mines the job itself — must see a terminal "shutdown" event
// (not "end") when the coordinator drains mid-forward.
func TestClusterForwardedJobShutdownEvent(t *testing.T) {
	corpustest.CheckLeaks(t)

	_, bTS := newTestServer(t, Config{
		Workers:     2,
		ClusterRole: "peer",
		ShardDelay:  5 * time.Second,
	})
	aSrv, aTS := newTestServer(t, Config{
		Workers:          2,
		ClusterRole:      "coordinator",
		ClusterPeers:     []string{bTS.URL},
		ClusterSelf:      "http://coordinator.test",
		ClusterHeartbeat: 150 * time.Millisecond,
	})
	waitReadyz(t, aTS.URL)
	waitPeersAlive(t, aSrv.clu, bTS.URL)

	// Find a sequence the ring places on B, so the job is forwarded.
	var data string
	for s := uint64(500); s < 600; s++ {
		sq := genomeSeq(t, 220, s)
		if placementNode(t, aSrv.clu, sq) == bTS.URL {
			data = sq.Data()
			break
		}
	}
	if data == "" {
		t.Fatal("no candidate sequence placed on the peer")
	}

	resp := postJSON(t, aTS.URL+"/v1/jobs", jobBody(t, "mppm", data))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no id: %v", sub)
	}

	stream := openSSE(t, aTS.URL, id)
	defer stream.Body.Close()
	events := readSSE(t, stream.Body)

	// Wait for the forward to be in flight (the note is set before the
	// remote call), then drain the coordinator under it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := doRequest(t, http.MethodGet, aTS.URL+"/v1/jobs/"+id)
		body := decode(t, resp.Body)
		resp.Body.Close()
		if note, _ := body["note"].(string); strings.Contains(note, "forwarded") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job was never forwarded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := aSrv.Shutdown(ctx); err != nil {
		t.Fatalf("coordinator shutdown: %v", err)
	}

	for {
		ev, ok := <-events
		if !ok {
			t.Fatal("stream closed without a shutdown event")
		}
		if ev.name != "shutdown" {
			continue
		}
		if ev.ev.Job != id {
			t.Fatalf("shutdown event for job %q, want %q", ev.ev.Job, id)
		}
		// The end publisher carries the cancelled JobView; the generic
		// broadcaster-close event would carry no state.
		view, _ := ev.ev.Data.(map[string]any)
		if view["state"] != "cancelled" {
			t.Fatalf("shutdown event data = %v, want cancelled job view", ev.ev.Data)
		}
		break
	}
}

// TestClusterHeartbeatChaos drives the coordinator's health state machine
// through the deterministic peer-fault injector: dropped heartbeats push a
// live peer to suspect and then dead, healing brings it back alive, and
// the whole episode is visible in the cluster stats.
func TestClusterHeartbeatChaos(t *testing.T) {
	corpustest.CheckLeaks(t)

	_, bTS := newTestServer(t, Config{Workers: 1, ClusterRole: "peer"})
	faults := clustertest.New(nil)
	aSrv, aTS := newTestServer(t, Config{
		Workers:             1,
		ClusterRole:         "coordinator",
		ClusterPeers:        []string{bTS.URL},
		ClusterSelf:         "http://coordinator.test",
		ClusterHeartbeat:    100 * time.Millisecond,
		ClusterSuspectAfter: 1,
		ClusterDeadAfter:    2,
		ClusterTransport:    faults,
	})
	waitReadyz(t, aTS.URL)

	waitPeerState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if aSrv.clu.Stats().Peers[bTS.URL] == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("peer never reached %q (now %q)", want, aSrv.clu.Stats().Peers[bTS.URL])
	}
	waitPeerState("alive")

	faults.Partition(bTS.URL)
	waitPeerState("dead")
	if n := faults.Injected(bTS.URL, "", clustertest.Drop); n < 2 {
		t.Errorf("partition dropped %d probes, want >= 2", n)
	}
	if s := aSrv.clu.Stats(); s.HeartbeatFailures < 2 {
		t.Errorf("HeartbeatFailures = %d, want >= 2", s.HeartbeatFailures)
	}

	faults.Heal(bTS.URL)
	waitPeerState("alive")

	// A healed-then-alive cluster reports ready again.
	waitReadyz(t, aTS.URL)
}

// TestClusterMineEndpoint exercises the framed RPC surface directly
// against a peer daemon: ping→pong, then a forwarded mine whose result
// matches mining the same sequence through the public jobs API.
func TestClusterMineEndpoint(t *testing.T) {
	corpustest.CheckLeaks(t)

	_, ts := newTestServer(t, Config{Workers: 2, ClusterRole: "peer"})

	postFrame := func(path string, msg cluster.Message) cluster.Message {
		t.Helper()
		b, err := cluster.EncodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/x-permine-frame", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		reply, err := cluster.ReadFrame(resp.Body, cluster.MaxFrameBytes)
		if err != nil {
			t.Fatalf("reading %s reply: %v", path, err)
		}
		return reply
	}

	ping, err := cluster.NewMessage("ping", cluster.Ping{From: "http://test", At: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	reply := postFrame("/v1/cluster/heartbeat", ping)
	if reply.Type != "pong" {
		t.Fatalf("heartbeat reply type = %q, want pong", reply.Type)
	}
	var pong cluster.Pong
	if err := json.Unmarshal(reply.Body, &pong); err != nil {
		t.Fatal(err)
	}
	if !pong.Ready || pong.Node == "" {
		t.Fatalf("pong = %+v, want ready with a node id", pong)
	}

	sq := genomeSeq(t, 200, 77)
	np, err := miningParams().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	params, err := json.Marshal(np)
	if err != nil {
		t.Fatal(err)
	}
	mineMsg, err := cluster.NewMessage("mine", cluster.MineRequest{
		Job:         "j-000042",
		Algorithm:   "mppm",
		SeqName:     sq.Name(),
		SeqAlphabet: sq.Alphabet().Name(),
		SeqSymbols:  string(sq.Alphabet().Symbols()),
		SeqData:     sq.Data(),
		Params:      params,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply = postFrame("/v1/cluster/mine", mineMsg)
	if reply.Type != "result" {
		t.Fatalf("mine reply type = %q, want result", reply.Type)
	}
	var mr cluster.MineResponse
	if err := json.Unmarshal(reply.Body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Error != "" {
		t.Fatalf("remote mine error: %s", mr.Error)
	}

	// The same mine through the public API must produce the same result.
	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", sq.Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id, _ := sub["id"].(string)
	job := pollJob(t, ts.URL, id)
	if job["state"] != "done" {
		t.Fatalf("job state = %v", job["state"])
	}
	wantRes, err := json.Marshal(job["result"])
	if err != nil {
		t.Fatal(err)
	}
	var remote map[string]any
	if err := json.Unmarshal(mr.Result, &remote); err != nil {
		t.Fatal(err)
	}
	gotRes, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRes, wantRes) {
		t.Errorf("remote mine result differs from local job:\n got %s\nwant %s", gotRes, wantRes)
	}

	// Malformed frames are rejected, not crashed on.
	resp, err = http.Post(ts.URL+"/v1/cluster/mine", "application/x-permine-frame",
		bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed frame status = %d, want 400", resp.StatusCode)
	}
}

// TestReadyzStandalone pins the readiness probe's basic lifecycle on a
// single node: ready while serving, 503 with a drain reason once
// Shutdown begins (liveness /healthz stays 200 throughout).
func TestReadyzStandalone(t *testing.T) {
	corpustest.CheckLeaks(t)

	srv, ts := newTestServer(t, Config{Workers: 1})

	resp := doRequest(t, http.MethodGet, ts.URL+"/readyz")
	body := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz = %d %v, want 200 ready", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp = doRequest(t, http.MethodGet, ts.URL+"/readyz")
	body = decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d, want 503", resp.StatusCode)
	}
	reasons := fmt.Sprint(body["reasons"])
	if !strings.Contains(reasons, "drain in progress") {
		t.Errorf("reasons = %v, want drain in progress", body["reasons"])
	}

	resp = doRequest(t, http.MethodGet, ts.URL+"/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness)", resp.StatusCode)
	}
}

// TestReadyzClusterUnresolved pins the third readiness condition: a
// coordinator is not ready until every configured peer's health resolves
// out of Unknown — even a peer that is down resolves (to suspect) after
// its first failed probe.
func TestReadyzClusterUnresolved(t *testing.T) {
	corpustest.CheckLeaks(t)

	faults := clustertest.New(nil)
	// Hang the very first probes so the Unknown window is observable.
	faults.Set("http://unreachable.test:1", "", clustertest.Fault{Kind: clustertest.Hang, Count: 1})
	_, ts := newTestServer(t, Config{
		Workers:          1,
		ClusterRole:      "coordinator",
		ClusterPeers:     []string{"http://unreachable.test:1"},
		ClusterSelf:      "http://coordinator.test",
		ClusterHeartbeat: 500 * time.Millisecond,
		ClusterTransport: faults,
	})

	resp := doRequest(t, http.MethodGet, ts.URL+"/readyz")
	body := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before peer resolution = %d, want 503", resp.StatusCode)
	}
	if reasons := fmt.Sprint(body["reasons"]); !strings.Contains(reasons, "cluster peer set unresolved") {
		t.Errorf("reasons = %v, want cluster peer set unresolved", body["reasons"])
	}

	// The hung probe times out, the peer resolves to suspect, and the
	// node becomes ready despite the peer being down.
	waitReadyz(t, ts.URL)
}

// TestReadyzStoreDegraded pins the second readiness condition: a node
// whose journal could not be opened serves (liveness) but is not ready.
func TestReadyzStoreDegraded(t *testing.T) {
	corpustest.CheckLeaks(t)

	// A data dir that is actually a file forces the WAL open to fail and
	// the store to degrade.
	dir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})

	resp := doRequest(t, http.MethodGet, ts.URL+"/readyz")
	body := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with degraded store = %d, want 503", resp.StatusCode)
	}
	if reasons := fmt.Sprint(body["reasons"]); !strings.Contains(reasons, "store degraded") {
		t.Errorf("reasons = %v, want store degraded", body["reasons"])
	}
}

// TestClusterMetricsCountEachMineOnce: every mine is counted once, on the
// node that ran it. A corpus with shards forwarded to a peer plus one whole
// job forwarded to the same peer must add up, over both nodes, to the PIL
// joins a standalone node counts for the same work, and to one
// mining-latency observation per mine.
func TestClusterMetricsCountEachMineOnce(t *testing.T) {
	corpustest.CheckLeaks(t)

	const seqLen = 240
	bSrv, bTS := newTestServer(t, Config{Workers: 2, ClusterRole: "peer"})
	// The default 1s heartbeat keeps the peer alive (and placeable) for
	// the whole test even on a loaded machine.
	aSrv, aTS := newTestServer(t, Config{
		Workers:      4,
		ClusterRole:  "coordinator",
		ClusterPeers: []string{bTS.URL},
		ClusterSelf:  "http://coordinator.test",
	})
	waitReadyz(t, aTS.URL)
	waitPeersAlive(t, aSrv.clu, bTS.URL)

	owned := pickOwnedSequences(t, aSrv.clu, seqLen, 3, bTS.URL, "")
	shards := append(append([]*seq.Sequence{}, owned[bTS.URL][:2]...), owned[""][:2]...)
	fasta := fastaFor(shards)
	jobData := owned[bTS.URL][2].Data()
	const mines = 5 // four shards and one job

	// run mines the corpus and then the job through base.
	run := func(base string) {
		t.Helper()
		if c := pollCorpus(t, base, submitCorpusHTTP(t, base, fasta)); c["state"] != "done" {
			t.Fatalf("corpus on %s finished %v", base, c["state"])
		}
		resp := postJSON(t, base+"/v1/jobs", jobBody(t, "mppm", jobData))
		sub := decode(t, resp.Body)
		resp.Body.Close()
		id, _ := sub["id"].(string)
		if j := pollJob(t, base, id); j["state"] != "done" {
			t.Fatalf("job on %s finished %v", base, j["state"])
		}
	}
	// counts sums join and latency counts over the given servers.
	counts := func(srvs ...*Server) (joins, observations int64) {
		for _, srv := range srvs {
			snap := srv.metrics.Snapshot()
			for _, n := range snap.JoinStrategies {
				joins += n
			}
			for _, h := range snap.Latency {
				observations += h.Count
			}
		}
		return joins, observations
	}

	refSrv, refTS := newTestServer(t, Config{Workers: 4})
	run(refTS.URL)
	wantJoins, refObs := counts(refSrv)
	if wantJoins == 0 || refObs != mines {
		t.Fatalf("standalone node: %d joins, %d latency observations; want > 0 and %d", wantJoins, refObs, mines)
	}

	run(aTS.URL)
	if st := aSrv.clu.Stats(); st.ForwardedJobs != 1 || st.ForwardedShards < 1 {
		t.Fatalf("forwarded %d jobs and %d shards, want 1 job and at least 1 shard",
			st.ForwardedJobs, st.ForwardedShards)
	}
	joins, obs := counts(aSrv, bSrv)
	if joins != wantJoins {
		aJoins, _ := counts(aSrv)
		t.Errorf("joins over both nodes = %d (coordinator %d), want the standalone %d", joins, aJoins, wantJoins)
	}
	if obs != mines {
		t.Errorf("latency observations over both nodes = %d, want one per mine (%d)", obs, mines)
	}
}
