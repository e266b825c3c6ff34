package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"permine/internal/cluster"
	"permine/internal/obs"
)

// clusterScrapeFanout bounds concurrent peer scrapes during federation, so
// a large fleet cannot make one GET open a connection per peer at once;
// clusterScrapeTimeout bounds each scrape.
const (
	clusterScrapeFanout  = 4
	clusterScrapeTimeout = 2 * time.Second
)

// handleClusterMetrics implements GET /v1/cluster/metrics on coordinators:
// it scrapes every non-dead peer's /metrics (bounded fan-out, per-peer
// deadline), merges the expositions with this node's own snapshot, and
// stamps every sample with a node label. A peer that fails its scrape is
// simply absent from the output — partial beats nothing during an incident
// — and counts on permine_cluster_scrape_errors_total. The header line
// counts the nodes merged, the peers scraped, the scrapes that failed and
// the peers skipped as dead, so a lost peer always shows in it as an
// error or as dead.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if s.clu == nil {
		apiError(w, http.StatusNotFound, "not a coordinator: cluster metrics federation is served by the coordinator role")
		return
	}
	targets, dead := s.clu.ScrapeTargets()
	type scraped struct {
		text []byte
		err  error
	}
	results := make([]scraped, len(targets))
	sem := make(chan struct{}, clusterScrapeFanout)
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt cluster.ScrapeTarget) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(r.Context(), clusterScrapeTimeout)
			defer cancel()
			text, err := s.clu.Scrape(ctx, tgt.Addr)
			results[i] = scraped{text: text, err: err}
		}(i, tgt)
	}
	wg.Wait()

	errs := 0
	sources := make([]obs.FederatedSource, 0, len(targets)+1)
	for i, res := range results {
		if res.err != nil {
			errs++
			s.clu.NoteScrapeError()
			s.cfg.Logger.Warn("cluster metrics scrape failed",
				"peer", targets[i].Addr, "err", res.err)
			continue
		}
		node := targets[i].Node
		if node == "" {
			// Peer never answered a probe, so its boot id is unknown; the
			// address still tells samples apart.
			node = targets[i].Addr
		}
		sources = append(sources, obs.FederatedSource{Node: node, Text: res.text})
	}
	// Snapshot self after the peer scrapes so the scrape-error counter in
	// the merged output already reflects this very request.
	var self bytes.Buffer
	if err := writePrometheus(&self, s.snapshot()); err != nil {
		apiError(w, http.StatusInternalServerError, "rendering local metrics: %v", err)
		return
	}
	sources = append([]obs.FederatedSource{{Node: s.nodeID, Text: self.Bytes()}}, sources...)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# permine cluster federation: nodes=%d scraped=%d errors=%d dead=%d\n",
		len(sources), len(sources)-1, errs, dead)
	if err := obs.WriteFederated(w, sources); err != nil {
		s.cfg.Logger.Warn("writing federated metrics", "err", err)
	}
}
