package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(nodes)
	r2 := newRing([]string{"http://c:1", "http://a:1", "http://b:1"})
	for i := 0; i < 200; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("seq-%d", i)))
		if o1, o2 := r1.owner(key[:]), r2.owner(key[:]); o1 != o2 {
			t.Fatalf("key %d: owner depends on construction order: %q vs %q", i, o1, o2)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(nodes)
	counts := make(map[string]int)
	const keys = 3000
	for i := 0; i < keys; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("seq-%d", i)))
		counts[r.owner(key[:])]++
	}
	for _, n := range nodes {
		// Even split would be 1000 each; accept a generous band — the point
		// is that no node is starved or doubly loaded.
		if counts[n] < keys/6 || counts[n] > keys/2 {
			t.Fatalf("node %s owns %d of %d keys: %v", n, counts[n], keys, counts)
		}
	}
}

// Removing one node must only move the keys that node owned — surviving
// nodes keep their keys, which is what keeps their result caches warm
// through a membership change.
func TestRingStableUnderMembershipChange(t *testing.T) {
	full := newRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	reduced := newRing([]string{"http://a:1", "http://c:1"})
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("seq-%d", i)))
		before := full.owner(key[:])
		after := reduced.owner(key[:])
		if before == "http://b:1" {
			if after == "http://b:1" {
				t.Fatalf("key %d still owned by removed node", i)
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving nodes; consistent hashing should move none", moved)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if o := newRing(nil).owner([]byte("k")); o != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", o)
	}
	solo := newRing([]string{"http://a:1"})
	for i := 0; i < 50; i++ {
		if o := solo.owner([]byte(fmt.Sprintf("k%d", i))); o != "http://a:1" {
			t.Fatalf("single-node ring owner = %q", o)
		}
	}
}
