package cluster

import (
	"fmt"
	"testing"
)

// testMembers builds unprobed replicas as addReplica would.
func testMembers(urls ...string) []*replica {
	reps := make([]*replica, len(urls))
	for i, u := range urls {
		reps[i] = &replica{url: u, seed: hash64(u)}
	}
	return reps
}

// primary is the key's first replica in rendezvous order.
func primary(reps []*replica, key string) string { return rendezvous(nil, reps, key)[0].rep.url }

// TestRingSequence: every member appears exactly once, the order is
// deterministic, and different keys spread their primaries evenly.
func TestRingSequence(t *testing.T) {
	reps := testMembers("http://a:1", "http://b:1", "http://c:1", "http://d:1")

	seq := rendezvous(nil, reps, "main")
	if len(seq) != len(reps) {
		t.Fatalf("sequence has %d members, want %d", len(seq), len(reps))
	}
	seen := map[*replica]bool{}
	for _, r := range seq {
		if seen[r.rep] {
			t.Fatalf("sequence repeats %s", r.rep.url)
		}
		seen[r.rep] = true
	}
	for i, r := range rendezvous(nil, reps, "main") {
		if seq[i] != r {
			t.Fatalf("sequence not deterministic: %s vs %s at %d", seq[i].rep.url, r.rep.url, i)
		}
	}

	// Each key ranks the members independently, so primary ownership is
	// binomial: 4000 keys over 4 members give 1000 ± 27 each, and ±25%
	// is ~9 standard deviations.
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[primary(reps, fmt.Sprintf("release-%d", i))]++
	}
	fair := keys / len(reps)
	for _, rep := range reps {
		if n := counts[rep.url]; n < fair*3/4 || n > fair*5/4 {
			t.Errorf("replica %s owns %d of %d keys, want %d ± 25%%: %v", rep.url, n, keys, fair, counts)
		}
	}
}

// TestRingConsistency: adding one replica must not reshuffle ownership
// wholesale — only the share of keys the newcomer claims may move.
func TestRingConsistency(t *testing.T) {
	before := testMembers("http://a:1", "http://b:1", "http://c:1")
	after := append(testMembers("http://d:1"), before...)

	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("release-%d", i)
		b, a := primary(before, k), primary(after, k)
		if b != a {
			if a != "http://d:1" {
				t.Fatalf("key %s moved %s -> %s, not to the new replica", k, b, a)
			}
			moved++
		}
	}
	// The newcomer should claim roughly 1/4 of the keyspace; far more
	// means the hash is not consistent.
	if moved > keys/2 {
		t.Errorf("%d of %d keys moved on one join; rendezvous hashing should move ~%d", moved, keys, keys/4)
	}
	if moved == 0 {
		t.Error("no keys moved to the new replica at all")
	}
}

// TestRingEmpty: an empty pool routes nowhere without panicking.
func TestRingEmpty(t *testing.T) {
	if seq := rendezvous(nil, nil, "main"); len(seq) != 0 {
		t.Errorf("empty pool sequence has %d members, want none", len(seq))
	}
}
