package server

import (
	"container/list"
	"crypto/sha256"
	"sort"
	"sync"

	"permine/internal/core"
	"permine/internal/seq"
)

// CacheIdentity is the structural part of a cache key: the sequence
// content (by hash) plus every result-affecting parameter EXCEPT the
// support threshold and the query fields. Two jobs sharing an identity
// mine the same search space — only the ρs floor and the top-K/motif
// view of it differ — which is what makes cross-threshold subsumption
// possible. Workers and Join are deliberately excluded (parallelism and
// the PIL join strategy do not change results), as are the context and
// progress callback.
type CacheIdentity struct {
	// SeqHash is sha256 over the alphabet name, a NUL separator, and the
	// raw sequence characters. Two sequences with identical content but
	// different FASTA names share results.
	SeqHash [sha256.Size]byte
	// Algorithm is the mining strategy.
	Algorithm core.Algorithm
	// GapN, GapM are the gap requirement [N, M].
	GapN, GapM int
	// MaxLen, EmOrder, StartLen and CandidateBudget are the remaining
	// result-affecting knobs (normalised, so defaults compare equal).
	MaxLen, EmOrder, StartLen int
	CandidateBudget           int64
}

// CacheKey identifies one mining result exactly: the structural
// identity plus the support threshold and the query shape.
type CacheKey struct {
	ID CacheIdentity
	// MinSupport is the support-ratio threshold ρs.
	MinSupport float64
	// TopK and Motif are the query fields (zero values for a plain
	// full-mine job, which is the kind subsumption derives from).
	TopK  int
	Motif string
}

// full reports whether the key describes a plain full-mine result (the
// only kind other queries may be derived from).
func (k CacheKey) full() bool { return k.TopK == 0 && k.Motif == "" }

// KeyFor derives the cache key for mining s with the given algorithm and
// (already normalised or raw) parameters.
func KeyFor(s *seq.Sequence, algo core.Algorithm, p core.Params) CacheKey {
	if np, err := p.Normalize(); err == nil {
		p = np
	}
	h := sha256.New()
	h.Write([]byte(s.Alphabet().Name()))
	h.Write([]byte{0})
	h.Write([]byte(s.Data()))
	var k CacheKey
	h.Sum(k.ID.SeqHash[:0])
	k.ID.Algorithm = algo
	k.ID.GapN, k.ID.GapM = p.Gap.N, p.Gap.M
	k.ID.MaxLen = p.MaxLen
	k.ID.EmOrder = p.EmOrder
	k.ID.StartLen = p.StartLen
	k.ID.CandidateBudget = p.CandidateBudget
	k.MinSupport = p.MinSupport
	k.TopK = p.TopK
	k.Motif = p.Motif
	return k
}

// Cache is a bounded LRU of mining results with hit/miss accounting,
// indexed two ways: exactly by CacheKey, and by CacheIdentity over the
// plain full-mine entries so Lookup can answer a job at one threshold
// from a result mined at another (subsumption). The cached *core.Result
// values are shared — callers must treat them as immutable (the miners
// never mutate a returned Result).
type Cache struct {
	mu      sync.Mutex
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[CacheKey]*list.Element
	// full indexes the plain full-mine entries of each identity by their
	// ρs floor; it is the subsumption probe set.
	full map[CacheIdentity]map[float64]*list.Element
	// stats holds the capacity and the counters; Stats adds the size and
	// the hit ratio.
	stats CacheStats
}

type cacheEntry struct {
	key CacheKey
	res *core.Result
}

// NewCache builds an LRU cache holding at most max results (max <= 0
// disables caching: every Get misses and Put is a no-op).
func NewCache(max int) *Cache {
	return &Cache{
		order:   list.New(),
		entries: make(map[CacheKey]*list.Element),
		full:    make(map[CacheIdentity]map[float64]*list.Element),
		stats:   CacheStats{Capacity: max},
	}
}

// Get returns the cached result for the key, if any, updating recency and
// the hit/miss counters.
func (c *Cache) Get(k CacheKey) (*core.Result, bool) {
	res, _, ok := c.Lookup(k, nil)
	return res, ok
}

// Lookup answers a query from the cache: an exact CacheKey hit first,
// otherwise — when derive is non-nil — by probing the identity's plain
// full-mine entries across thresholds and asking derive to build the
// answer from one of them (subsumption). Floors at or below the query's
// are probed first, closest first (they subsume supersets of the
// needed pattern set); higher floors follow, closest first, for the
// derivations that remain valid above the floor (e.g. top-K whose K-th
// clears the cached floor). The probe order is deterministic, so
// repeated lookups derive from the same entry.
//
// subsumed reports that the result came from derive rather than an
// exact hit. A successful derivation refreshes the donor entry's
// recency and counts as a subsumption hit; a failed lookup counts as
// one miss regardless of how many entries were probed.
func (c *Cache) Lookup(k CacheKey, derive func(cached *core.Result) (*core.Result, bool)) (res *core.Result, subsumed, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.entries[k]; found {
		c.stats.Hits++
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).res, false, true
	}
	if derive != nil {
		if floors := c.full[k.ID]; len(floors) > 0 {
			probe := make([]float64, 0, len(floors))
			for rho := range floors {
				probe = append(probe, rho)
			}
			sort.Float64s(probe)
			// Split at the query floor: [at-or-below descending, above ascending].
			split := sort.SearchFloat64s(probe, k.MinSupport)
			for split < len(probe) && probe[split] <= k.MinSupport {
				split++
			}
			ordered := make([]float64, 0, len(probe))
			for i := split - 1; i >= 0; i-- {
				ordered = append(ordered, probe[i])
			}
			ordered = append(ordered, probe[split:]...)
			for _, rho := range ordered {
				el := floors[rho]
				if out, valid := derive(el.Value.(*cacheEntry).res); valid {
					c.stats.SubsumptionHits++
					c.order.MoveToFront(el)
					return out, true, true
				}
			}
		}
	}
	c.stats.Misses++
	return nil, false, false
}

// Put inserts (or refreshes) a result, evicting the least recently used
// entry when the size bound is exceeded. Plain full-mine results also
// enter the subsumption index; derived/query results are stored only
// under their exact key (a later identical query hits exactly, but
// nothing is derived from a derivation).
func (c *Cache) Put(k CacheKey, res *core.Result) {
	if res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Capacity <= 0 {
		return
	}
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: k, res: res})
	c.entries[k] = el
	if k.full() {
		floors := c.full[k.ID]
		if floors == nil {
			floors = make(map[float64]*list.Element)
			c.full[k.ID] = floors
		}
		floors[k.MinSupport] = el
	}
	for c.order.Len() > c.stats.Capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		ok := oldest.Value.(*cacheEntry).key
		delete(c.entries, ok)
		if ok.full() {
			if floors := c.full[ok.ID]; floors != nil {
				delete(floors, ok.MinSupport)
				if len(floors) == 0 {
					delete(c.full, ok.ID)
				}
			}
		}
		c.stats.Evictions++
	}
}

// CacheStats is a point-in-time snapshot of cache accounting.
type CacheStats struct {
	Size            int     `json:"size"`
	Capacity        int     `json:"capacity"`
	Hits            int64   `json:"hits"`
	SubsumptionHits int64   `json:"subsumption_hits"`
	Misses          int64   `json:"misses"`
	Evictions       int64   `json:"evictions"`
	HitRatio        float64 `json:"hit_ratio"`
}

// Stats returns current size, capacity and hit/miss counts. HitRatio
// counts subsumption hits as hits: both served the job without mining.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.order.Len()
	if total := s.Hits + s.SubsumptionHits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits+s.SubsumptionHits) / float64(total)
	}
	return s
}
