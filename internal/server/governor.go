package server

import (
	"errors"
	"fmt"

	"permine/internal/core"
	"permine/internal/pil"
)

// ErrOverloaded rejects a submit shed by the memory governor: the node is
// in brownout (expensive job classes shed first) or saturated (all new
// mining shed). Clients should retry later — the HTTP layer maps this to
// 429 with a Retry-After hint, never 503, so shed is distinguishable from
// shutdown.
var ErrOverloaded = errors.New("server: memory governor shedding load")

// Governor is the process-wide memory high-water mark shared across
// workers. Every running mining unit (job, forwarded peer run, corpus
// shard) charges a per-run child tracker chained to the governor's global
// tracker, so one atomic read answers "how many PIL bytes does this
// daemon's mining currently retain". All methods are lock-free and safe
// for concurrent use.
//
// The admission ladder has three rungs:
//
//	pressure < brownout   accept everything
//	brownout ≤ p < 1      shed corpus and enumerate submits (the classes
//	                      that cannot be served or derived from cache)
//	saturated (p ≥ 1)     shed all new mining; cache hits still serve
//
// A zero limit disables shedding but keeps the accounting: metrics and
// heartbeat pressure still report real usage.
type Governor struct {
	global      *pil.MemTracker
	limit       int64
	brownoutPct int64
}

// NewGovernor builds a governor with the given global byte ceiling
// (0 = unlimited, track only; not negative) and brownout threshold in
// percent of the ceiling (1..100).
func NewGovernor(limit int64, brownoutPct int) *Governor {
	if limit < 0 || brownoutPct < 1 || brownoutPct > 100 {
		panic(fmt.Sprintf("server: governor needs a limit >= 0 and a brownout percent in 1..100, got %d and %d",
			limit, brownoutPct))
	}
	return &Governor{
		global:      pil.NewMemTracker(nil),
		limit:       limit,
		brownoutPct: int64(brownoutPct),
	}
}

// Acquire returns a fresh per-run tracker chained to the global one:
// every byte the run charges also moves the global gauge.
func (g *Governor) Acquire() *pil.MemTracker {
	return pil.NewMemTracker(g.global)
}

// Release returns a finished run's retained bytes to the global pool. The
// run must be done charging (its tracker is discarded afterwards).
func (g *Governor) Release(t *pil.MemTracker) {
	if used := t.Used(); used != 0 {
		g.global.Charge(-used)
	}
}

// Used reports the bytes currently retained by running mining units.
func (g *Governor) Used() int64 { return g.global.Used() }

// High reports the global high-water mark since boot.
func (g *Governor) High() int64 { return g.global.High() }

// Limit reports the configured global ceiling (0 = unlimited).
func (g *Governor) Limit() int64 { return g.limit }

// Pressure is Used/Limit clamped to [0, ∞); 0 when no limit is set.
func (g *Governor) Pressure() float64 {
	if g.limit <= 0 {
		return 0
	}
	return float64(g.global.Used()) / float64(g.limit)
}

// Brownout reports whether usage crossed the brownout threshold.
func (g *Governor) Brownout() bool {
	return g.limit > 0 && g.global.Used() >= g.limit*g.brownoutPct/100
}

// Saturated reports whether usage reached the full ceiling.
func (g *Governor) Saturated() bool {
	return g.limit > 0 && g.global.Used() >= g.limit
}

// GovernorStats is the governor section of a metrics snapshot.
type GovernorStats struct {
	UsedBytes  int64   `json:"used_bytes"`
	HighBytes  int64   `json:"high_bytes"`
	LimitBytes int64   `json:"limit_bytes"`
	Pressure   float64 `json:"pressure"`
	Brownout   bool    `json:"brownout"`
}

// Stats snapshots the governor.
func (g *Governor) Stats() GovernorStats {
	return GovernorStats{
		UsedBytes:  g.Used(),
		HighBytes:  g.High(),
		LimitBytes: g.limit,
		Pressure:   g.Pressure(),
		Brownout:   g.Brownout(),
	}
}

// Job classes for admission and the shed counters, ordered by how
// expensive they are to reject later: corpus jobs fan out into many
// shards, enumeration has no Apriori pruning, plain jobs are often
// answerable from the subsumption-aware cache.
const (
	shedClassCorpus    = "corpus"
	shedClassEnumerate = "enumerate"
	shedClassJob       = "job"
)

// admit applies the brownout ladder to one submit of the given class.
// Cache lookups happen before admission, so cached-derivable queries keep
// serving through brownout.
func (m *Manager) admit(class string) error {
	g := m.cfg.Governor
	switch {
	case g.Saturated():
	case g.Brownout() && (class == shedClassCorpus || class == shedClassEnumerate):
	default:
		return nil
	}
	m.cfg.Metrics.JobShed(class)
	m.cfg.Logger.Warn("memory governor shedding submit",
		"class", class, "used", g.Used(), "limit", g.Limit(), "pressure", g.Pressure())
	return ErrOverloaded
}

// shedClass maps an algorithm to its admission class.
func shedClass(algo core.Algorithm) string {
	if algo == core.AlgoEnumerate {
		return shedClassEnumerate
	}
	return shedClassJob
}
