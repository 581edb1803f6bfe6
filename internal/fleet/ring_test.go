package fleet

import (
	"fmt"
	"testing"
)

// syntheticTenants builds the 1000-key workload the balance and movement
// properties are checked over: tenant and tenant/table keys, the two shapes
// DetectRequest.RouteKey produces.
func syntheticTenants(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		if i%3 == 0 {
			keys[i] = fmt.Sprintf("tenant%04d", i)
		} else {
			keys[i] = fmt.Sprintf("tenant%04d/table_%d", i/3, i%17)
		}
	}
	return keys
}

// TestRingDeterministicPlacement: ownership is a pure function of the
// member set — insertion order must not matter, and repeated lookups must
// agree.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing(64)
	b := NewRing(64)
	nodes := []string{"r0", "r1", "r2", "r3", "r4"}
	for _, n := range nodes {
		a.Add(n)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		b.Add(nodes[i])
	}
	for _, key := range syntheticTenants(1000) {
		ow := a.Owner(key)
		if ow == "" {
			t.Fatalf("no owner for %q", key)
		}
		if got := b.Owner(key); got != ow {
			t.Fatalf("placement depends on insertion order: %q → %q vs %q", key, ow, got)
		}
		if got := a.Owner(key); got != ow {
			t.Fatalf("placement not stable across lookups: %q", key)
		}
	}
}

// TestRingBalance: with DefaultVnodes, no replica owns more than ~1.35× its
// fair share of 1000 synthetic tenants.
func TestRingBalance(t *testing.T) {
	r := NewRing(DefaultVnodes)
	const nodes = 4
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("replica%02d", i))
	}
	keys := syntheticTenants(1000)
	counts := make(map[string]int)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	if len(counts) != nodes {
		t.Fatalf("only %d of %d nodes own keys: %v", len(counts), nodes, counts)
	}
	mean := float64(len(keys)) / nodes
	for node, c := range counts {
		ratio := float64(c) / mean
		if ratio > 1.35 {
			t.Errorf("node %s owns %d keys = %.2f× mean (bound 1.35×); distribution %v", node, c, ratio, counts)
		}
		if ratio < 0.5 {
			t.Errorf("node %s starved: %d keys = %.2f× mean; distribution %v", node, c, ratio, counts)
		}
	}
}

// TestRingMinimalMovementOnAdd: adding a node moves only the keys that node
// gains — every other key keeps its owner.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	r := NewRing(DefaultVnodes)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("replica%02d", i))
	}
	keys := syntheticTenants(1000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owner(k)
	}
	r.Add("replica04")
	moved := 0
	for _, k := range keys {
		now := r.Owner(k)
		if now != before[k] {
			if now != "replica04" {
				t.Fatalf("key %q moved %s→%s, not to the added node", k, before[k], now)
			}
			moved++
		}
	}
	// The new node's expected share is 1/5 ≈ 200 keys; allow slack for hash
	// variance but require the move set to stay in that ballpark (a naive
	// mod-N rehash would move ~80% of keys).
	if moved == 0 || moved > 400 {
		t.Fatalf("add moved %d/%d keys; want ≈200 (only the new node's share)", moved, len(keys))
	}
}

// TestRingMinimalMovementOnRemove: a ring without one node places exactly
// that node's keys elsewhere; everything else stays put. Adding the node
// back restores the original placement exactly (health-blip symmetry).
func TestRingMinimalMovementOnRemove(t *testing.T) {
	r := NewRing(DefaultVnodes)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("replica%02d", i))
	}
	keys := syntheticTenants(1000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owner(k)
	}
	const victim = "replica02"
	without := NewRing(DefaultVnodes)
	for _, n := range r.Nodes() {
		if n != victim {
			without.Add(n)
		}
	}
	for _, k := range keys {
		now := without.Owner(k)
		if before[k] == victim {
			if now == victim {
				t.Fatalf("key %q still owned by removed node", k)
			}
		} else if now != before[k] {
			t.Fatalf("key %q moved %s→%s though its owner was not removed", k, before[k], now)
		}
	}
	without.Add(victim)
	for _, k := range keys {
		if got := without.Owner(k); got != before[k] {
			t.Fatalf("re-adding %s did not restore placement: %q %s→%s", victim, k, before[k], got)
		}
	}
}

// TestRingOwnerN: the failover chain is deterministic, distinct, starts at
// the owner, and covers the whole membership when asked to.
func TestRingOwnerN(t *testing.T) {
	r := NewRing(32)
	nodes := []string{"a", "b", "c", "d"}
	for _, n := range nodes {
		r.Add(n)
	}
	for _, key := range syntheticTenants(100) {
		chain := r.OwnerN(key, 10) // n capped at membership
		if len(chain) != len(nodes) {
			t.Fatalf("chain for %q has %d nodes, want %d: %v", key, len(chain), len(nodes), chain)
		}
		if chain[0] != r.Owner(key) {
			t.Fatalf("chain head %q ≠ owner %q", chain[0], r.Owner(key))
		}
		seen := make(map[string]bool)
		for _, n := range chain {
			if seen[n] {
				t.Fatalf("duplicate node %q in chain %v", n, chain)
			}
			seen[n] = true
		}
		again := r.OwnerN(key, 10)
		for i := range chain {
			if chain[i] != again[i] {
				t.Fatalf("chain not deterministic for %q: %v vs %v", key, chain, again)
			}
		}
	}
}

// TestRingEmptyAndEdgeCases: zero-member behaviour and idempotent Add.
func TestRingEmptyAndEdgeCases(t *testing.T) {
	r := NewRing(0) // → DefaultVnodes
	if got := r.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
	if got := r.OwnerN("k", 3); got != nil {
		t.Fatalf("empty ring OwnerN = %v, want nil", got)
	}
	r.Add("only")
	r.Add("only") // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Add", r.Len())
	}
	if got := r.Owner("anything"); got != "only" {
		t.Fatalf("single-node ring owner = %q", got)
	}
	if got := r.OwnerN("anything", 0); got != nil {
		t.Fatalf("OwnerN(0) = %v, want nil", got)
	}
}
