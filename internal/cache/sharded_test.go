package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func strBytes(v string) int64 { return int64(len(v)) }

// Peek returns the cached value without touching recency or the hit/miss
// counters: the tests' probe of what a shard holds.
func (s *Sharded[V]) Peek(key string) (V, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Delete evicts one key (not counted as an eviction — the caller asked).
func (s *Sharded[V]) Delete(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		sh.remove(el.Value.(*entry[V]), el)
	}
}

// TestShardPartitionProperty: every key maps to exactly one shard,
// deterministically, and the shard count rounds up to a power of two.
// Inserted keys must all be retrievable and the global entry count must
// equal the number of distinct keys — i.e. no key is double-stored across
// shards and none is lost to partitioning.
func TestShardPartitionProperty(t *testing.T) {
	for _, requested := range []int{1, 2, 3, 5, 8, 16, 17} {
		c := New[string](1<<20, requested, strBytes)
		n := len(c.shards)
		if n&(n-1) != 0 || n < requested {
			t.Fatalf("shards(%d) = %d, want power of two ≥ requested", requested, n)
		}
		const keys = 500
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("db%02d.table%03d#%d", i%7, i, i%3)
			if !c.Put(key, key) {
				t.Fatalf("put %q rejected", key)
			}
			// Same key must hash to the same shard on every call.
			if c.shardFor(key) != c.shardFor(key) {
				t.Fatalf("shardFor(%q) not deterministic", key)
			}
		}
		if c.Len() != keys {
			t.Fatalf("len = %d, want %d", c.Len(), keys)
		}
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("db%02d.table%03d#%d", i%7, i, i%3)
			got, ok := c.Get(key)
			if !ok || got != key {
				t.Fatalf("get %q = (%q, %v)", key, got, ok)
			}
		}
		// Per-shard entry counts must sum to the total (each key in exactly
		// one shard).
		sum := 0
		for _, sh := range c.shards {
			sum += len(sh.items)
		}
		if sum != keys {
			t.Fatalf("shard entries sum %d, want %d", sum, keys)
		}
	}
}

// TestByteBudgetEviction: a single-shard cache over its byte budget evicts
// from the probation LRU end and never reports bytes above budget.
func TestByteBudgetEviction(t *testing.T) {
	c := New[string](100, 1, strBytes)
	val := "0123456789" // 10 bytes
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("k%02d", i), val)
	}
	if b := c.Bytes(); b > 100 {
		t.Fatalf("bytes %d over budget", b)
	}
	st := c.Stats()
	if st.Evictions != 10 {
		t.Fatalf("evictions = %d, want 10", st.Evictions)
	}
	// The ten oldest probation entries are gone, the ten newest remain.
	for i := 0; i < 10; i++ {
		if _, ok := c.Peek(fmt.Sprintf("k%02d", i)); ok {
			t.Fatalf("k%02d should have been evicted", i)
		}
	}
	for i := 10; i < 20; i++ {
		if _, ok := c.Peek(fmt.Sprintf("k%02d", i)); !ok {
			t.Fatalf("k%02d missing", i)
		}
	}
}

// TestScanResistance: a re-accessed working set is promoted into the
// protected segment and survives a one-pass cold scan that would wipe a
// plain LRU.
func TestScanResistance(t *testing.T) {
	c := New[string](100, 1, strBytes) // protected cap 80
	val := "0123456789"
	hot := []string{"hot0", "hot1", "hot2", "hot3", "hot4"}
	for _, k := range hot {
		c.Put(k, val)
	}
	for _, k := range hot { // second access promotes
		if _, ok := c.Get(k); !ok {
			t.Fatalf("hot key %q missing before scan", k)
		}
	}
	for i := 0; i < 200; i++ { // one cold scan, each key seen once
		c.Put(fmt.Sprintf("cold%03d", i), val)
	}
	for _, k := range hot {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("hot key %q evicted by cold scan", k)
		}
	}
}

// TestProtectedDemotionNotEviction: promoting beyond the protected cap
// demotes protected-LRU entries back to probation; they stay retrievable.
func TestProtectedDemotionNotEviction(t *testing.T) {
	c := New[string](100, 1, strBytes) // protected cap 80 → 8 entries
	val := "0123456789"
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), val)
	}
	for i := 0; i < 10; i++ { // promote all ten; only 8 fit protected
		c.Get(fmt.Sprintf("k%d", i))
	}
	if got := c.Len(); got != 10 {
		t.Fatalf("len after promotions = %d, want 10 (demotion must not evict)", got)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions = %d, want 0", ev)
	}
}

// TestOversizedRejected: a value larger than the per-shard budget is
// refused (Put reports not-consumed) and any stale entry under the key is
// dropped rather than left to serve old data.
func TestOversizedRejected(t *testing.T) {
	c := New[string](64, 1, strBytes)
	if !c.Put("k", "small") {
		t.Fatal("small value rejected")
	}
	big := make([]byte, 100)
	if c.Put("k", string(big)) {
		t.Fatal("oversized value accepted")
	}
	if _, ok := c.Peek("k"); ok {
		t.Fatal("stale entry survived an oversized overwrite")
	}
}

// TestDisabledSemantics: budget ≤ 0 disables storage but still counts
// misses — the "Taste w/o caching" ablation needs the traffic ledger.
func TestDisabledSemantics(t *testing.T) {
	c := New[string](0, 4, strBytes)
	if c.Enabled() {
		t.Fatal("zero-budget cache reports enabled")
	}
	if c.Put("k", "v") {
		t.Fatal("disabled cache consumed a value")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled stats = %+v", st)
	}
}

// TestUpdateInPlace: re-Put under a live key replaces the value and
// re-accounts bytes without duplicating the entry.
func TestUpdateInPlace(t *testing.T) {
	c := New[string](1<<10, 1, strBytes)
	c.Put("k", "short")
	c.Put("k", "a considerably longer value")
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if got, _ := c.Get("k"); got != "a considerably longer value" {
		t.Fatalf("got %q", got)
	}
	if b := c.Bytes(); b != int64(len("a considerably longer value")) {
		t.Fatalf("bytes = %d", b)
	}
}

// TestPeekAndTouchCounters: Peek must not move the hit/miss counters;
// Touch counts a skipped copy and refreshes recency.
func TestPeekAndTouchCounters(t *testing.T) {
	c := New[string](1<<10, 1, strBytes)
	c.Put("k", "v")
	c.Peek("k")
	c.Peek("absent")
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peek moved counters: %+v", st)
	}
	if !c.Touch("k") {
		t.Fatal("touch on live key failed")
	}
	if c.Touch("absent") {
		t.Fatal("touch on absent key succeeded")
	}
	if st := c.Stats(); st.SkippedCopies != 1 {
		t.Fatalf("skipped copies = %d, want 1", st.SkippedCopies)
	}
}

func TestDelete(t *testing.T) {
	c := New[string](1<<10, 2, strBytes)
	c.Put("k", "v")
	c.Delete("k")
	if _, ok := c.Get("k"); ok {
		t.Fatal("deleted key still present")
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("delete counted as eviction: %d", ev)
	}
	c.Delete("absent") // no-op, must not panic
}

// TestConcurrentHammer drives Put/Get/Touch/Delete/Stats from many
// goroutines over a small keyspace (run under -race). Afterwards every
// shard's accounted bytes must equal the sum of its live entries and stay
// within budget.
func TestConcurrentHammer(t *testing.T) {
	const budget = 4 << 10
	c := New[string](budget, 8, strBytes)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			val := string(make([]byte, 64))
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(200))
				switch rng.Intn(10) {
				case 0:
					c.Delete(key)
				case 1:
					c.Touch(key)
				case 2, 3, 4:
					c.Put(key, val)
				case 5:
					c.Stats()
				default:
					c.Get(key)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	for i, sh := range c.shards {
		sh.mu.Lock()
		var sum, prot int64
		for _, el := range sh.items {
			e := el.Value.(*entry[string])
			sum += e.size
			if e.protected {
				prot += e.size
			}
		}
		if sum != sh.bytes || prot != sh.protBytes {
			t.Fatalf("shard %d: accounted bytes %d/%d, live %d/%d", i, sh.bytes, sh.protBytes, sum, prot)
		}
		if sh.bytes > sh.budget {
			t.Fatalf("shard %d over budget: %d > %d", i, sh.bytes, sh.budget)
		}
		if sh.probation.Len()+sh.protected.Len() != len(sh.items) {
			t.Fatalf("shard %d: list/map divergence", i)
		}
		sh.mu.Unlock()
	}
}
