// Package cache is the tiered detection-cache subsystem (DESIGN.md §14):
// a byte-budgeted, segmented-LRU store parameterized over its value type,
// plus the two concrete tiers built on it — the latent cache holding
// metadata-tower encodings (§4.2.2's amortization trick) and the result
// cache memoizing content-hashed detect outcomes — and a stdlib singleflight
// group that coalesces concurrent identical computations.
//
// Design points:
//
//   - One store per tier. A tier is one map, one probation/protected pair
//     and one byte budget under one mutex, so any value up to the whole
//     budget fits and the tier evicts only when the tier is full.
//   - Byte budgets. Eviction is driven by accounted bytes (sized from the
//     stored value's real dimensions), not entry counts: a cache of wide
//     table chunks and a cache of two-column chunks hold the same memory,
//     not the same entry count. A budget ≤ 0 disables a tier entirely — the
//     "Taste w/o caching" ablation — while still counting misses.
//   - Segmented LRU. The budget splits into a probation and a protected
//     segment. New keys enter probation; only a re-access promotes. One
//     cold scan over a large database can therefore evict at most the
//     probation segment — the protected working set survives.
//   - Immutable entries. Values handed to Put are owned by the cache and
//     must never be mutated afterwards; Get returns the shared value with
//     zero copying. The MetaEncoding tier layers a copy-on-write handoff
//     contract on top (see latent.go).
package cache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of one tier's counters, shaped for the
// /v1/stats JSON surface.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// SkippedCopies counts Puts that found the key already present and
	// refreshed recency instead of storing (latent tier only).
	SkippedCopies int64 `json:"skipped_copies,omitempty"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// protectedFraction is the slice of the budget reserved for the protected
// SLRU segment; the remainder is probation.
const protectedFraction = 0.8

type entry[V any] struct {
	key       string
	val       V
	size      int64
	protected bool
}

// LRU is a concurrency-safe, byte-budgeted, segmented-LRU cache under one
// mutex. The zero value is not usable; use New.
type LRU[V any] struct {
	mu        sync.Mutex
	budget    int64
	protCap   int64
	sizeOf    func(V) int64
	metrics   *TierMetrics
	items     map[string]*list.Element
	probation *list.List // front = MRU
	protected *list.List // front = MRU
	bytes     int64
	protBytes int64

	hits, misses, evictions, skipped int64
}

// New creates a cache bounded by budgetBytes. sizeOf accounts one value's
// bytes and must be cheap and stable for a given value. budgetBytes ≤ 0
// disables storage: Put rejects everything and Get counts a miss,
// preserving the seed cache's "capacity 0 disables" semantics.
func New[V any](budgetBytes int64, sizeOf func(V) int64) *LRU[V] {
	budgetBytes = max(budgetBytes, 0)
	return &LRU[V]{
		budget:    budgetBytes,
		protCap:   int64(protectedFraction * float64(budgetBytes)),
		sizeOf:    sizeOf,
		items:     make(map[string]*list.Element),
		probation: list.New(),
		protected: list.New(),
	}
}

// SetMetrics attaches obs counter handles bumped on every hit, miss and
// eviction (nil detaches). Call before the cache sees traffic.
func (c *LRU[V]) SetMetrics(m *TierMetrics) { c.metrics = m }

// Enabled reports whether the cache can store anything at all.
func (c *LRU[V]) Enabled() bool { return c.budget > 0 }

// Get returns the cached value and refreshes its recency: a probation hit
// promotes the entry into the protected segment (demoting protected-LRU
// entries back to probation when the segment overflows), a protected hit
// moves it to that segment's MRU position.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		if c.metrics != nil {
			c.metrics.miss()
		}
		var zero V
		return zero, false
	}
	c.hits++
	e := el.Value.(*entry[V])
	c.bump(el, e)
	v := e.val
	c.mu.Unlock()
	if c.metrics != nil {
		c.metrics.hit()
	}
	return v, true
}

// bump applies the SLRU access rule to an entry under the lock: promote
// from probation, or refresh within protected. It re-indexes the entry
// under its own key, never the caller's, so a lookup's key does not outlive
// the call.
func (c *LRU[V]) bump(el *list.Element, e *entry[V]) {
	if e.protected {
		c.protected.MoveToFront(el)
		return
	}
	c.probation.Remove(el)
	e.protected = true
	c.items[e.key] = c.protected.PushFront(e)
	c.protBytes += e.size
	// Demote protected-LRU entries (never the one just promoted) until the
	// segment fits its cap again; demotion moves bytes, it never evicts.
	for c.protBytes > c.protCap && c.protected.Len() > 1 {
		back := c.protected.Back()
		de := back.Value.(*entry[V])
		c.protected.Remove(back)
		de.protected = false
		c.items[de.key] = c.probation.PushFront(de)
		c.protBytes -= de.size
	}
}

// Touch refreshes a key's recency (with SLRU promotion) and counts a
// skipped copy — the bookkeeping for a re-Put of a present key. It reports
// whether the key was present.
func (c *LRU[V]) Touch(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.skipped++
	c.bump(el, el.Value.(*entry[V]))
	return true
}

// Put stores val under key, taking ownership of it (callers must not mutate
// val afterwards). Returns false — val NOT consumed — when the cache is
// disabled or the value alone exceeds the budget; an existing entry under
// the key is dropped in that case rather than kept stale.
func (c *LRU[V]) Put(key string, val V) bool {
	size := c.sizeOf(val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		if el, ok := c.items[key]; ok {
			c.remove(el.Value.(*entry[V]), el)
			c.evicted()
		}
		return false
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes += size - e.size
		if e.protected {
			c.protBytes += size - e.size
			c.protected.MoveToFront(el)
		} else {
			c.probation.MoveToFront(el)
		}
		e.val, e.size = val, size
	} else {
		e := &entry[V]{key: key, val: val, size: size}
		c.items[key] = c.probation.PushFront(e)
		c.bytes += size
	}
	// Trim back under the budget: probation-LRU first (scan resistance),
	// protected-LRU only once probation is empty.
	for c.bytes > c.budget {
		back := c.probation.Back()
		if back == nil {
			back = c.protected.Back()
		}
		c.remove(back.Value.(*entry[V]), back)
		c.evicted()
	}
	return true
}

// evicted counts one eviction under the lock.
func (c *LRU[V]) evicted() {
	c.evictions++
	if c.metrics != nil {
		c.metrics.evict()
	}
}

// remove unlinks an entry under the lock.
func (c *LRU[V]) remove(e *entry[V], el *list.Element) {
	if e.protected {
		c.protected.Remove(el)
		c.protBytes -= e.size
	} else {
		c.probation.Remove(el)
	}
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Len returns the entry count.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the accounted bytes.
func (c *LRU[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters.
func (c *LRU[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		SkippedCopies: c.skipped,
		Entries:       len(c.items),
		Bytes:         c.bytes,
		BudgetBytes:   c.budget,
	}
}
