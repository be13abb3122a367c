// Package shard implements the sharded front tier for an idemd replica
// fleet: a deterministic rendezvous-hash ring that assigns every
// buildcache content key to one replica, and an HTTP front (Front) that
// routes /v1 traffic by that assignment so each replica's bounded cache
// holds a disjoint slice of the working set — cache capacity scales
// with the fleet instead of stopping at one process's byte bound.
//
// Routing is purely a performance decision. The paper's core property —
// every /v1 response is a deterministic, idempotent function of its
// request — means any replica can recompute any key, so a dead or
// draining replica degrades throughput (its keys rehash and recompile
// elsewhere), never correctness. That is also what makes the ring's
// determinism contract checkable end to end: a fleet and a single
// process must produce byte-identical responses (make shard-smoke).
//
// See docs/sharding.md for the algorithm, the drain semantics and the
// determinism contract.
package shard

import (
	"fmt"
	"sort"
)

// Ring is a rendezvous (highest-random-weight) hash ring over replica
// IDs. It is immutable after construction and safe for concurrent use.
//
// Rendezvous hashing over a handful of replicas beats a vnode ring
// here: assignment is a pure function of (replica set, key) with no
// auxiliary state to persist or synchronize, ties in the fleet sizes we
// run (N ≤ dozens) cost O(N) per lookup which is noise next to a
// compile or simulation, and membership changes have the minimal-
// disruption property exactly — when a replica leaves, only the keys it
// owned move, and no key moves between two surviving replicas.
type Ring struct {
	replicas []string // sorted, unique, non-empty
}

// NewRing builds a ring over the replica IDs (for the front tier these
// are backend host:port addresses). Order does not matter; duplicates
// and empty IDs are rejected.
func NewRing(replicas []string) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one replica")
	}
	sorted := make([]string, len(replicas))
	copy(sorted, replicas)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("shard: empty replica id")
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("shard: duplicate replica id %q", id)
		}
	}
	return &Ring{replicas: sorted}, nil
}

// Replicas returns the replica set, sorted.
func (r *Ring) Replicas() []string {
	out := make([]string, len(r.replicas))
	copy(out, r.replicas)
	return out
}

// Size is the replica count.
func (r *Ring) Size() int { return len(r.replicas) }

// Owner returns the replica that owns key: the highest-scoring replica
// under the rendezvous hash. Deterministic across processes and Go
// versions (the hash is hand-rolled FNV-1a + splitmix64, not anything
// seeded per-process).
func (r *Ring) Owner(key string) string {
	best := r.replicas[0]
	bestScore := score(best, key)
	for _, id := range r.replicas[1:] {
		if s := score(id, key); s > bestScore || (s == bestScore && id < best) {
			best, bestScore = id, s
		}
	}
	return best
}

// Owners returns every replica in descending score order for key — the
// failover preference list. Owners(key)[0] == Owner(key); if the owner
// is down the next entry is the deterministic second choice, so every
// front-tier process fails the same key over to the same replica.
func (r *Ring) Owners(key string) []string {
	type scored struct {
		id string
		s  uint64
	}
	all := make([]scored, len(r.replicas))
	for i, id := range r.replicas {
		all[i] = scored{id: id, s: score(id, key)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].s != all[b].s {
			return all[a].s > all[b].s
		}
		return all[a].id < all[b].id
	})
	out := make([]string, len(all))
	for i, sc := range all {
		out[i] = sc.id
	}
	return out
}

// score is the rendezvous weight of (replica, key): FNV-1a over the
// replica ID, a zero separator, and the key, finished with one
// splitmix64 scramble to decorrelate the low bits FNV leaves biased.
func score(replica, key string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(replica); i++ {
		h = (h ^ uint64(replica[i])) * prime
	}
	h = (h ^ 0xff) * prime // separator: "ab"+"c" must not collide with "a"+"bc"
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	// splitmix64 finalizer — the same scramble family the repo's seeded
	// RNGs use (idemload's request mix, retry jitter and fault rolls).
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
