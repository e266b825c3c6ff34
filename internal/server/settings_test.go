package server

import (
	"reflect"
	"testing"
	"time"

	"permine/internal/core"
	"permine/internal/obs"
)

// TestResolvedSettings pins what New resolves each setting of a zero
// Config to, and the settings that follow another. Config.withDefaults is
// the one place they are resolved; the manager holds the same resolved
// Config, and what the cache, the governor and the span ring were built
// with shows in their behaviour.
func TestResolvedSettings(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 4096+10; i++ {
		s.ring.ExportSpan(obs.SpanData{})
	}
	c := s.cfg
	got := map[string]any{
		"workers":       c.Workers,
		"queue":         cap(s.mgr.queue),
		"job timeout":   c.JobTimeout,
		"max timeout":   c.MaxTimeout,
		"retain":        c.Retain,
		"wal retain":    c.Retain,
		"cache":         s.cache.Stats().Capacity,
		"body":          c.MaxBodyBytes,
		"sync len":      maxSyncSeqLen,
		"brownout":      int(s.governor.brownoutPct),
		"retry budget":  c.RetryBudget,
		"retry backoff": c.RetryBackoff,
		"shard timeout": c.ShardTimeout,
		"inflight":      c.CorpusMaxInflight,
		"ring":          s.ring.Len(),
		"sample":        c.TraceSample,
		"slo":           c.SLOTargetP99,
		"scrape":        clusterScrapeTimeout,
		"heartbeat":     c.ClusterHeartbeat,
		"suspect":       c.ClusterSuspectAfter,
		"dead":          c.ClusterDeadAfter,
	}
	want := map[string]any{
		"workers":       2,
		"queue":         64,
		"job timeout":   5 * time.Minute,
		"max timeout":   5 * time.Minute,
		"retain":        1024,
		"wal retain":    1024,
		"cache":         128,
		"body":          int64(64 << 20),
		"sync len":      1 << 20,
		"brownout":      85,
		"retry budget":  3,
		"retry backoff": 500 * time.Millisecond,
		"shard timeout": 2 * time.Minute,
		"inflight":      4,
		"ring":          4096,
		"sample":        1.0,
		"slo":           250 * time.Millisecond,
		"scrape":        2 * time.Second,
		"heartbeat":     time.Second,
		"suspect":       2,
		"dead":          4,
	}
	for k, w := range want {
		if !reflect.DeepEqual(got[k], w) {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if !reflect.DeepEqual(s.mgr.cfg.Config, c) {
		t.Errorf("manager settings %+v differ from the server's %+v", s.mgr.cfg.Config, c)
	}
	// A Config built over Defaults, as cmd/permined builds one from its
	// flags, resolves as the zero Config does.
	if d, z := Defaults().withDefaults(), (Config{}).withDefaults(); !reflect.DeepEqual(d, z) {
		t.Errorf("Defaults resolves to %+v, the zero Config to %+v", d, z)
	}

	// Settings the cluster and the governor would otherwise have to
	// correct: a dead-after below suspect-after is raised to it, and a
	// negative memory ceiling means none.
	if got := (Config{ClusterSuspectAfter: 3, ClusterDeadAfter: 2}).withDefaults().ClusterDeadAfter; got != 3 {
		t.Errorf("suspect-after 3, dead-after 2: dead-after resolves to %d, want 3", got)
	}
	if got := (Config{MemGlobal: -1}).withDefaults().MemGlobal; got != 0 {
		t.Errorf("MemGlobal -1 resolves to %d, want 0 (unlimited)", got)
	}

	// Derived values.
	w8, _ := newTestServer(t, Config{Workers: 8})
	if got := w8.cfg.CorpusMaxInflight; got != 16 {
		t.Errorf("Workers 8: %d shards in flight, want 16", got)
	}
	clamp := func(s *Server, asked time.Duration) time.Duration {
		t.Helper()
		_, _, d, err := s.submitArgs("mppm", paramsJSON{GapMin: 1, GapMax: 2, MinSupport: 0.1}, asked.Milliseconds())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if got := clamp(s, time.Hour); got != 5*time.Minute {
		t.Errorf("default ceiling clamps 1h to %v, want 5m", got)
	}
	m1, _ := newTestServer(t, Config{JobTimeout: time.Minute})
	if got := clamp(m1, time.Hour); got != time.Minute {
		t.Errorf("JobTimeout 1m: ceiling clamps 1h to %v, want 1m", got)
	}
	neg, _ := newTestServer(t, Config{JobTimeout: -1})
	if got := clamp(neg, 10*time.Hour); got != 10*time.Hour {
		t.Errorf("negative JobTimeout: 10h clamped to %v, want no ceiling", got)
	}
	if got := neg.mgr.cfg.JobTimeout; got >= 0 {
		t.Errorf("negative JobTimeout resolved to %v, want no default deadline", got)
	}
	off, _ := newTestServer(t, Config{CacheSize: -1})
	k := CacheKey{}
	off.cache.Put(k, &core.Result{})
	if _, ok := off.cache.Get(k); ok || off.cache.Stats().Capacity > 0 {
		t.Error("CacheSize -1 left a working cache")
	}
}
