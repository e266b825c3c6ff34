package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"permine/internal/cluster/clustertest"
	"permine/internal/corpus/corpustest"
	"permine/internal/seq"
)

// submitCorpusTraced posts a corpus under an explicit X-Request-Id and
// returns the corpus id.
func submitCorpusTraced(t *testing.T, base, requestID, fasta string) string {
	t.Helper()
	b, err := json.Marshal(corpusBody(t, fasta))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/corpus", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", requestID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := decode(t, resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus submit status = %d: %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("corpus submit returned no id: %v", body)
	}
	return id
}

// TestClusterDistributedTrace is the tracing headline: a corpus mined
// across a 3-node in-process cluster yields ONE trace on the coordinator,
// with the peers' job.run (and mine.level) spans shipped back over the
// mine RPC and parented under the coordinator's corpus.shard spans. Every
// span carries a node attribute identifying where it ran.
func TestClusterDistributedTrace(t *testing.T) {
	corpustest.CheckLeaks(t)

	bSrv, bTS := newTestServer(t, Config{Workers: 2, ClusterRole: "peer"})
	cSrv, cTS := newTestServer(t, Config{Workers: 2, ClusterRole: "peer"})
	aSrv, aTS := newTestServer(t, Config{
		Workers:          2,
		ClusterRole:      "coordinator",
		ClusterPeers:     []string{bTS.URL, cTS.URL},
		ClusterSelf:      "http://coordinator.test",
		ClusterHeartbeat: 150 * time.Millisecond,
	})
	waitReadyz(t, aTS.URL)
	waitPeersAlive(t, aSrv.clu, bTS.URL, cTS.URL)

	// One shard ring-owned by each peer, so both forward paths run.
	owned := pickOwnedSequences(t, aSrv.clu, 220, 1, bTS.URL, cTS.URL)
	seqs := []*seq.Sequence{owned[bTS.URL][0], owned[cTS.URL][0]}

	const reqID = "dist-trace-00001"
	id := submitCorpusTraced(t, aTS.URL, reqID, fastaFor(seqs))
	final := pollCorpus(t, aTS.URL, id)
	if final["state"] != "done" {
		t.Fatalf("corpus state = %v, want done", final["state"])
	}

	byName := spansByName(t, aSrv.Traces(), reqID,
		[]string{"http.request", "corpus.job", "corpus.shard", "job.run", "mine.level"})

	// Every span in the assembled trace carries a node attribute, and the
	// trace covers all three nodes.
	nodes := map[string]bool{}
	for _, spans := range byName {
		for _, sd := range spans {
			v, ok := attrValue(sd, "node")
			if !ok {
				t.Errorf("span %q (%s) has no node attr", sd.Name, sd.SpanID)
				continue
			}
			nodes[v.(string)] = true
		}
	}
	for _, node := range []string{aSrv.nodeID, bSrv.nodeID, cSrv.nodeID} {
		if !nodes[node] {
			t.Errorf("trace has no span from node %q (saw %v)", node, nodes)
		}
	}

	// The remote job.run spans parent under the coordinator's corpus.shard
	// spans — the tree is connected across the RPC boundary.
	shardIDs := map[string]bool{}
	for _, sd := range byName["corpus.shard"] {
		shardIDs[sd.SpanID] = true
		if v, _ := attrValue(sd, "node"); v != aSrv.nodeID {
			t.Errorf("corpus.shard span on node %v, want coordinator %q", v, aSrv.nodeID)
		}
	}
	remoteRuns := map[string]bool{} // remote job.run span ids
	for _, sd := range byName["job.run"] {
		if v, _ := attrValue(sd, "remote"); v != true {
			continue
		}
		remoteRuns[sd.SpanID] = true
		if !shardIDs[sd.ParentID] {
			t.Errorf("remote job.run parent %q is not a corpus.shard span", sd.ParentID)
		}
		if v, _ := attrValue(sd, "node"); v == aSrv.nodeID {
			t.Errorf("remote job.run claims to run on the coordinator")
		}
	}
	if len(remoteRuns) != 2 {
		t.Errorf("%d remote job.run spans, want 2 (one per forwarded shard)", len(remoteRuns))
	}
	// The peers' per-level mining spans travel back too, as children of
	// their remote job.run.
	remoteLevels := 0
	for _, sd := range byName["mine.level"] {
		if remoteRuns[sd.ParentID] {
			remoteLevels++
		}
	}
	if remoteLevels == 0 {
		t.Error("no remote mine.level spans parented under a remote job.run")
	}

	// Whole-job forward under its own request id: the peer's job.run
	// parents under the coordinator's job.run (the forwarding wrapper).
	var data string
	for s := uint64(500); s < 700; s++ {
		sq := genomeSeq(t, 220, s)
		if placementNode(t, aSrv.clu, sq) == bTS.URL {
			data = sq.Data()
			break
		}
	}
	if data == "" {
		t.Fatal("no candidate sequence placed on the peer")
	}
	const jobReq = "dist-trace-00002"
	jobID, _ := submitTraced(t, aTS.URL, jobReq, jobBody(t, "mppm", data))
	if job := pollJob(t, aTS.URL, jobID); job["state"] != "done" {
		t.Fatalf("forwarded job state = %v", job["state"])
	}
	jb := spansByName(t, aSrv.Traces(), jobReq, []string{"http.request", "job.submit", "job.run"})
	var local, remote string
	for _, sd := range jb["job.run"] {
		if v, _ := attrValue(sd, "remote"); v == true {
			remote = sd.ParentID
			if n, _ := attrValue(sd, "node"); n != bSrv.nodeID {
				t.Errorf("remote job.run node = %v, want the owning peer %q", n, bSrv.nodeID)
			}
		} else {
			local = sd.SpanID
		}
	}
	if local == "" || remote == "" {
		t.Fatalf("forwarded job trace lacks a local+remote job.run pair: %+v", jb["job.run"])
	}
	if remote != local {
		t.Errorf("remote job.run parent = %q, want the coordinator's job.run %q", remote, local)
	}
}

// TestClusterFederatedMetrics pins GET /v1/cluster/metrics: one scrape
// merges all three nodes' expositions under node labels, a peer whose
// /metrics is unreachable degrades the output to partial (and bumps the
// scrape-error counter) instead of failing the request, a dead peer is
// skipped and counted in the header, and the endpoint is coordinator-only.
func TestClusterFederatedMetrics(t *testing.T) {
	corpustest.CheckLeaks(t)

	bSrv, bTS := newTestServer(t, Config{Workers: 1, ClusterRole: "peer"})
	cSrv, cTS := newTestServer(t, Config{Workers: 1, ClusterRole: "peer"})
	faults := clustertest.New(nil)
	aSrv, aTS := newTestServer(t, Config{
		Workers:          1,
		ClusterRole:      "coordinator",
		ClusterPeers:     []string{bTS.URL, cTS.URL},
		ClusterSelf:      "http://coordinator.test",
		ClusterHeartbeat: 100 * time.Millisecond,
		ClusterTransport: faults,
	})
	waitReadyz(t, aTS.URL)
	waitPeersAlive(t, aSrv.clu, bTS.URL, cTS.URL)

	fetch := func() (int, string) {
		t.Helper()
		resp := doRequest(t, http.MethodGet, aTS.URL+"/v1/cluster/metrics")
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	status, text := fetch()
	if status != http.StatusOK {
		t.Fatalf("cluster metrics status = %d", status)
	}
	if !strings.Contains(text, "# permine cluster federation: nodes=3 scraped=2 errors=0 dead=0") {
		t.Errorf("federation header wrong:\n%s", firstLine(text))
	}
	for _, node := range []string{aSrv.nodeID, bSrv.nodeID, cSrv.nodeID} {
		if !strings.Contains(text, `node="`+node+`"`) {
			t.Errorf("merged exposition has no samples for node %q", node)
		}
	}
	if c := strings.Count(text, "permine_uptime_seconds{node="); c != 3 {
		t.Errorf("%d uptime samples, want one per node (3)", c)
	}
	if c := strings.Count(text, "# TYPE permine_uptime_seconds gauge"); c != 1 {
		t.Errorf("TYPE metadata emitted %d times, want once", c)
	}

	// Black-hole B's /metrics only — heartbeats keep flowing, so B stays
	// alive and stays a scrape target that deterministically fails.
	faults.Set(bTS.URL, "/metrics", clustertest.Fault{Kind: clustertest.Drop})
	status, text = fetch()
	if status != http.StatusOK {
		t.Fatalf("partial cluster metrics status = %d, want 200", status)
	}
	if !strings.Contains(text, "# permine cluster federation: nodes=2 scraped=1 errors=1 dead=0") {
		t.Errorf("partial federation header wrong:\n%s", firstLine(text))
	}
	if strings.Contains(text, `node="`+bSrv.nodeID+`"`) {
		t.Errorf("unreachable peer still present in merged exposition")
	}
	if !strings.Contains(text, `node="`+cSrv.nodeID+`"`) {
		t.Errorf("healthy peer missing from partial exposition")
	}
	if want := `permine_cluster_scrape_errors_total{node="` + aSrv.nodeID + `"} 1`; !strings.Contains(text, want) {
		t.Errorf("scrape-error counter not reflected in the same response, want %q", want)
	}
	if got := aSrv.clu.Stats().ScrapeErrors; got != 1 {
		t.Errorf("Stats().ScrapeErrors = %d, want 1", got)
	}

	// B stops answering anything, and the coordinator's failed calls
	// declare it dead, as failed mine RPCs do when a peer is killed: it
	// leaves the scrape targets, and the header reports it as dead rather
	// than dropping it silently.
	faults.Set(bTS.URL, "", clustertest.Fault{Kind: clustertest.Drop})
	for i := 0; i < 100 && aSrv.clu.Stats().Peers[bTS.URL] != "dead"; i++ {
		aSrv.clu.NoteRPCFailure(bTS.URL, errors.New("injected mine RPC failure"))
	}
	if st := aSrv.clu.Stats().Peers[bTS.URL]; st != "dead" {
		t.Fatalf("peer B is %q after repeated RPC failures, want dead", st)
	}
	status, text = fetch()
	if status != http.StatusOK {
		t.Fatalf("cluster metrics status with a dead peer = %d, want 200", status)
	}
	if !strings.Contains(text, "# permine cluster federation: nodes=2 scraped=1 errors=0 dead=1") {
		t.Errorf("dead-peer federation header wrong:\n%s", firstLine(text))
	}
	if strings.Contains(text, `node="`+bSrv.nodeID+`"`) {
		t.Errorf("dead peer still present in merged exposition")
	}

	// Peers do not federate.
	resp := doRequest(t, http.MethodGet, bTS.URL+"/v1/cluster/metrics")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("peer cluster metrics status = %d, want 404", resp.StatusCode)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
