// Package cache is the tiered detection-cache subsystem (DESIGN.md §14):
// a sharded, byte-budgeted, segmented-LRU store parameterized over its value
// type, plus the two concrete tiers built on it — the latent cache holding
// metadata-tower encodings (§4.2.2's amortization trick) and the result
// cache memoizing content-hashed detect outcomes — and a stdlib singleflight
// group that coalesces concurrent identical computations.
//
// Design points, in the order they matter under fleet load:
//
//   - Sharding. Keys hash (FNV-1a 64) onto a power-of-two shard array, each
//     shard with its own mutex, so concurrent pipelined requests do not
//     serialize on one cache lock the way the seed LRU did.
//   - Byte budgets. Eviction is driven by accounted bytes (sized from the
//     stored value's real dimensions), not entry counts: a cache of wide
//     table chunks and a cache of two-column chunks hold the same memory,
//     not the same entry count. A budget ≤ 0 disables a tier entirely — the
//     "Taste w/o caching" ablation — while still counting misses.
//   - Segmented LRU. Each shard splits its budget into a probation and a
//     protected segment. New keys enter probation; only a re-access
//     promotes. One cold scan over a large database can therefore evict at
//     most the probation segment — the protected working set survives.
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

// DefaultShards is the shard count used when New is given shards ≤ 0: small
// enough that per-shard budgets stay meaningful at modest total budgets,
// large enough that the pipelined pools rarely contend on one mutex.
const DefaultShards = 16

// protectedFraction is the slice of each shard's budget reserved for the
// protected SLRU segment; the remainder is probation.
const protectedFraction = 0.8

type entry[V any] struct {
	key       string
	val       V
	size      int64
	protected bool
}

type shard[V any] struct {
	mu        sync.Mutex
	budget    int64
	protCap   int64
	items     map[string]*list.Element
	probation *list.List // front = MRU
	protected *list.List // front = MRU
	bytes     int64
	protBytes int64

	hits, misses, evictions, skipped int64
}

// Sharded is a concurrency-safe, byte-budgeted, segmented-LRU cache split
// across power-of-two hash shards. The zero value is not usable; use New.
type Sharded[V any] struct {
	shards  []*shard[V]
	mask    uint64
	budget  int64
	sizeOf  func(V) int64
	metrics *TierMetrics
}

// New creates a cache bounded by budgetBytes split evenly across shards
// (rounded up to a power of two; ≤ 0 selects DefaultShards). sizeOf accounts
// one value's bytes and must be cheap and stable for a given value.
// budgetBytes ≤ 0 disables storage: Put rejects everything and Get counts a
// miss, preserving the seed cache's "capacity 0 disables" semantics.
func New[V any](budgetBytes int64, shards int, sizeOf func(V) int64) *Sharded[V] {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	per := budgetBytes / int64(n)
	s := &Sharded[V]{
		shards: make([]*shard[V], n),
		mask:   uint64(n - 1),
		budget: budgetBytes,
		sizeOf: sizeOf,
	}
	for i := range s.shards {
		s.shards[i] = &shard[V]{
			budget:    per,
			protCap:   int64(protectedFraction * float64(per)),
			items:     make(map[string]*list.Element),
			probation: list.New(),
			protected: list.New(),
		}
	}
	return s
}

// SetMetrics attaches obs counter handles bumped on every hit, miss and
// eviction (nil detaches). Call before the cache sees traffic.
func (s *Sharded[V]) SetMetrics(m *TierMetrics) { s.metrics = m }

// Enabled reports whether the cache can store anything at all.
func (s *Sharded[V]) Enabled() bool { return s.budget > 0 }

// fnv1a64 is hash/fnv inlined for the hot path: no allocation, no
// interface dispatch.
func fnv1a64(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (s *Sharded[V]) shardFor(key string) *shard[V] {
	return s.shards[fnv1a64(key)&s.mask]
}

// Get returns the cached value and refreshes its recency: a probation hit
// promotes the entry into the protected segment (demoting protected-LRU
// entries back to probation when the segment overflows), a protected hit
// moves it to that segment's MRU position.
func (s *Sharded[V]) Get(key string) (V, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.misses++
		sh.mu.Unlock()
		if s.metrics != nil {
			s.metrics.miss()
		}
		var zero V
		return zero, false
	}
	sh.hits++
	e := el.Value.(*entry[V])
	sh.bump(el, e)
	v := e.val
	sh.mu.Unlock()
	if s.metrics != nil {
		s.metrics.hit()
	}
	return v, true
}

// bump applies the SLRU access rule to an entry already under the shard
// lock: promote from probation, or refresh within protected. It re-indexes
// the entry under its own key, never the caller's, so a lookup's key does
// not outlive the call.
func (sh *shard[V]) bump(el *list.Element, e *entry[V]) {
	if e.protected {
		sh.protected.MoveToFront(el)
		return
	}
	sh.probation.Remove(el)
	e.protected = true
	sh.items[e.key] = sh.protected.PushFront(e)
	sh.protBytes += e.size
	// Demote protected-LRU entries (never the one just promoted) until the
	// segment fits its cap again; demotion moves bytes, it never evicts.
	for sh.protBytes > sh.protCap && sh.protected.Len() > 1 {
		back := sh.protected.Back()
		de := back.Value.(*entry[V])
		sh.protected.Remove(back)
		de.protected = false
		sh.items[de.key] = sh.probation.PushFront(de)
		sh.protBytes -= de.size
	}
}

// Touch refreshes a key's recency (with SLRU promotion) and counts a
// skipped copy — the bookkeeping for a re-Put of a present key. It reports
// whether the key was present.
func (s *Sharded[V]) Touch(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return false
	}
	sh.skipped++
	sh.bump(el, el.Value.(*entry[V]))
	return true
}

// Put stores val under key, taking ownership of it (callers must not mutate
// val afterwards). Returns false — val NOT consumed — when the cache is
// disabled or the value alone exceeds the per-shard budget; an existing
// entry under the key is dropped in that case rather than kept stale.
func (s *Sharded[V]) Put(key string, val V) bool {
	size := s.sizeOf(val)
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if size > sh.budget {
		if el, ok := sh.items[key]; ok {
			sh.remove(el.Value.(*entry[V]), el)
			sh.evictions++
			if s.metrics != nil {
				s.metrics.evict()
			}
		}
		return false
	}
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry[V])
		sh.bytes += size - e.size
		if e.protected {
			sh.protBytes += size - e.size
			sh.protected.MoveToFront(el)
		} else {
			sh.probation.MoveToFront(el)
		}
		e.val, e.size = val, size
	} else {
		e := &entry[V]{key: key, val: val, size: size}
		sh.items[key] = sh.probation.PushFront(e)
		sh.bytes += size
	}
	sh.evictLocked(s.metrics)
	return true
}

// evictLocked trims the shard back under its byte budget: probation-LRU
// first (scan resistance), protected-LRU only once probation is empty.
func (sh *shard[V]) evictLocked(m *TierMetrics) {
	for sh.bytes > sh.budget {
		back := sh.probation.Back()
		if back == nil {
			back = sh.protected.Back()
		}
		if back == nil {
			return
		}
		sh.remove(back.Value.(*entry[V]), back)
		sh.evictions++
		if m != nil {
			m.evict()
		}
	}
}

// remove unlinks an entry under the shard lock.
func (sh *shard[V]) remove(e *entry[V], el *list.Element) {
	if e.protected {
		sh.protected.Remove(el)
		sh.protBytes -= e.size
	} else {
		sh.probation.Remove(el)
	}
	delete(sh.items, e.key)
	sh.bytes -= e.size
}

// Len returns the entry count across all shards.
func (s *Sharded[V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the accounted bytes across all shards.
func (s *Sharded[V]) Bytes() int64 {
	var b int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		b += sh.bytes
		sh.mu.Unlock()
	}
	return b
}

// Stats sums the per-shard counters into one snapshot.
func (s *Sharded[V]) Stats() Stats {
	st := Stats{BudgetBytes: s.budget}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.SkippedCopies += sh.skipped
		st.Entries += len(sh.items)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}
