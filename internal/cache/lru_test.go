package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func strBytes(v string) int64 { return int64(len(v)) }

// Peek returns the cached value without touching recency or the hit/miss
// counters: the tests' probe of what the store holds.
func (c *LRU[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Delete evicts one key (not counted as an eviction — the caller asked).
func (c *LRU[V]) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el.Value.(*entry[V]), el)
	}
}

// TestByteBudgetEviction: a cache over its byte budget evicts from the
// probation LRU end and never reports bytes above budget.
func TestByteBudgetEviction(t *testing.T) {
	c := New[string](100, strBytes)
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
	c := New[string](100, strBytes) // protected cap 80
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
	c := New[string](100, strBytes) // protected cap 80 → 8 entries
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

// TestOversizedRejected: a value up to the whole budget is stored, one
// byte more is refused (Put reports not-consumed), and any stale entry under
// the key is dropped rather than left to serve old data.
func TestOversizedRejected(t *testing.T) {
	c := New[string](64, strBytes)
	if !c.Put("k", string(make([]byte, 64))) {
		t.Fatal("a value the size of the budget was rejected")
	}
	if c.Put("k", string(make([]byte, 65))) {
		t.Fatal("oversized value accepted")
	}
	if _, ok := c.Peek("k"); ok {
		t.Fatal("stale entry survived an oversized overwrite")
	}
}

// TestDisabledSemantics: budget ≤ 0 disables storage but still counts
// misses — the "Taste w/o caching" ablation needs the traffic ledger.
func TestDisabledSemantics(t *testing.T) {
	c := New[string](0, strBytes)
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
	c := New[string](1<<10, strBytes)
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
	c := New[string](1<<10, strBytes)
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
	c := New[string](1<<10, strBytes)
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
// goroutines over a small keyspace (run under -race). Afterwards the store's
// accounted bytes must equal the sum of its live entries, per segment, and
// stay within budget (the protected segment within its cap); the two lists
// must hold exactly the map's entries, each on the list its flag names.
func TestConcurrentHammer(t *testing.T) {
	const budget = 4 << 10
	c := New[string](budget, strBytes)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum, prot int64
	for key, el := range c.items {
		e := el.Value.(*entry[string])
		if e.key != key {
			t.Fatalf("entry %q indexed under %q", e.key, key)
		}
		sum += e.size
		if e.protected {
			prot += e.size
		}
	}
	if sum != c.bytes || prot != c.protBytes {
		t.Fatalf("accounted bytes %d/%d, live %d/%d", c.bytes, c.protBytes, sum, prot)
	}
	if c.bytes > c.budget || c.protBytes > c.protCap {
		t.Fatalf("over budget: %d > %d or protected %d > %d", c.bytes, c.budget, c.protBytes, c.protCap)
	}
	for _, seg := range []struct {
		l         *list.List
		protected bool
	}{{c.probation, false}, {c.protected, true}} {
		for el := seg.l.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[string])
			if e.protected != seg.protected || c.items[e.key] != el {
				t.Fatalf("entry %q (protected=%v) misplaced", e.key, e.protected)
			}
		}
	}
	if c.probation.Len()+c.protected.Len() != len(c.items) {
		t.Fatalf("lists hold %d+%d entries, map %d", c.probation.Len(), c.protected.Len(), len(c.items))
	}
}
