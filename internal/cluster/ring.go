package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is how many virtual points each node contributes to the hash
// ring. 64 keeps the load split within a few percent of even for small
// fleets while keeping ring rebuilds (on membership change) cheap.
const vnodes = 64

// ring is an immutable consistent-hash ring. Placement hashes the key and
// binary-searches for the first vnode at or after it (wrapping). Because
// vnode points depend only on node addresses, a key keeps its owner as
// long as that owner stays in the membership — which is exactly the
// property that keeps the subsumption-aware result cache node-affine.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// newRing builds a ring over the given node addresses. Duplicate
// addresses are collapsed by construction (their vnode points coincide).
func newRing(nodes []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(nodes)*vnodes)}
	for _, node := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: hashPoint(node, i),
				node: node,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on the node address so the ring order — and hence
		// placement — is deterministic even across a 64-bit hash collision.
		return r.points[i].node < r.points[j].node
	})
	return r
}

func hashPoint(node string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", node, i)
	return h.Sum64()
}

// owner returns the node owning the key, or "" on an empty ring.
func (r *ring) owner(key []byte) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv.New64a()
	h.Write(key)
	target := h.Sum64()
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= target
	})
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
