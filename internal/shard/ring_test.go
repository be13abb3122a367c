// Ring determinism and rebalance properties. The contracts under test
// are what make consistent-hash routing safe to deploy as a fleet:
// same replica set + key => same owner in every process, and a
// replica leaving moves only the ~K/N keys it owned — never a key
// between two survivors.
package shard

import (
	"fmt"
	"testing"
)

func replicaSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
	}
	return out
}

func keySet(k int) []string {
	out := make([]string, k)
	for i := range out {
		// Shaped like real route keys: workload|memWords|fingerprint.
		out[i] = fmt.Sprintf("wl-%d|%d|fp-%d", i%37, 65536, i)
	}
	return out
}

func TestOwnerDeterministicAcrossInstances(t *testing.T) {
	reps := replicaSet(5)
	a, err := NewRing(reps)
	if err != nil {
		t.Fatal(err)
	}
	// A second ring built from the same set in reverse order must agree
	// on every key (order-independence = cross-process determinism: no
	// process-local state enters the assignment).
	rev := make([]string, len(reps))
	for i, r := range reps {
		rev[len(reps)-1-i] = r
	}
	b, err := NewRing(rev)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keySet(2000) {
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("key %q: owner %q vs %q across instances", key, ao, bo)
		}
	}
}

func TestOwnersIsPreferencePermutation(t *testing.T) {
	r, err := NewRing(replicaSet(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keySet(200) {
		owners := r.Owners(key)
		if len(owners) != r.Size() {
			t.Fatalf("key %q: %d owners, want %d", key, len(owners), r.Size())
		}
		if owners[0] != r.Owner(key) {
			t.Fatalf("key %q: Owners[0] %q != Owner %q", key, owners[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, id := range owners {
			if seen[id] {
				t.Fatalf("key %q: duplicate owner %q", key, id)
			}
			seen[id] = true
		}
	}
}

// TestRebalanceMovesOnlyDepartedKeys is the minimal-disruption property:
// removing one of N replicas moves exactly the keys that replica owned
// (≈K/N of them) to the survivors, and no key moves between two
// survivors. Both halves are exact for rendezvous hashing — a survivor's
// score for a key did not change, so its relative order cannot.
func TestRebalanceMovesOnlyDepartedKeys(t *testing.T) {
	const n = 5
	reps := replicaSet(n)
	full, err := NewRing(reps)
	if err != nil {
		t.Fatal(err)
	}
	departed := reps[2]
	without, err := NewRing(append(append([]string{}, reps[:2]...), reps[3:]...))
	if err != nil {
		t.Fatal(err)
	}

	keys := keySet(10000)
	moved, ownedByDeparted := 0, 0
	for _, key := range keys {
		before, after := full.Owner(key), without.Owner(key)
		if before == departed {
			ownedByDeparted++
			if after == departed {
				t.Fatalf("key %q still assigned to departed replica", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved between survivors: %q -> %q", key, before, after)
		}
	}
	if moved != ownedByDeparted {
		t.Fatalf("moved %d keys, departed owned %d", moved, ownedByDeparted)
	}
	// The departed replica's share should be ≈ K/N; a grossly skewed
	// share means the hash is biased and so is the fleet's load.
	lo, hi := len(keys)/n/2, len(keys)*2/n
	if moved < lo || moved > hi {
		t.Fatalf("rebalance moved %d of %d keys; want ≈ %d (1/N)", moved, len(keys), len(keys)/n)
	}
}

// TestLoadBalance: no replica's share of a large key set may dwarf the
// others' — each should hold 1/N within a factor of ~1.5.
func TestLoadBalance(t *testing.T) {
	const n = 4
	r, err := NewRing(replicaSet(n))
	if err != nil {
		t.Fatal(err)
	}
	keys := keySet(20000)
	counts := map[string]int{}
	for _, key := range keys {
		counts[r.Owner(key)]++
	}
	want := len(keys) / n
	for id, c := range counts {
		if c < want*2/3 || c > want*3/2 {
			t.Fatalf("replica %s owns %d of %d keys; want ≈ %d", id, c, len(keys), want)
		}
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d replicas own any keys", len(counts), n)
	}
}

func TestNewRejectsBadSets(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty id accepted")
	}
}
