package cache

import "repro/internal/adtd"

// Latent is the metadata-latent tier (§4.2.2): it stores the per-chunk
// metadata-tower encodings Phase 1 computes so Phase 2 — and every later
// detect over the same chunk — skips the metadata tower. It replaces the
// seed adtd.LatentCache, which deep-copied on Put and was capacity-bounded
// by entry count behind one mutex.
//
// Ownership handoff (the zero-memcpy contract): Put takes the producer's
// fresh encoding and, when it stores it, consumes it — the entry keeps a
// graph-free Detach view sharing the producer's buffers, and the caller
// must NOT Release the encoding (the buffers now belong to the cache and
// are reclaimed by GC on eviction). Put reports whether it consumed the
// value:
//
//	if !cache.Put(key, menc) {
//		menc.Release() // not consumed: recycle the arena graph as before
//	}
//
// Entries are immutable; Get returns the shared *MetaEncoding with zero
// copying, so neither the hit path nor the store path pays a memcpy. This
// is safe because (a) eval-mode encodings carry no autograd parents anyone
// else could release, (b) the producing goroutine hands over its only
// reference, and (c) all readers treat encodings as read-only (the content
// tower only reads menc.Layers as attention keys/values).
type Latent struct {
	s *Sharded[*adtd.MetaEncoding]
}

// entryOverhead approximates the per-entry bookkeeping bytes (map cell,
// list element, entry struct, tensor headers) added on top of the latent
// payload when accounting an encoding against the byte budget.
const entryOverhead = 256

// EncodingBytes accounts one encoding's budget charge: the layer matrices
// (float64 payload) plus fixed per-entry overhead. The MetaInput is shared
// with the producer and not charged.
func EncodingBytes(e *adtd.MetaEncoding) int64 {
	b := int64(entryOverhead)
	for _, l := range e.Layers {
		b += int64(l.Rows) * int64(l.Cols) * 8
	}
	return b
}

// NewLatent creates the latent tier bounded by budgetBytes across shards
// (≤ 0 shards selects DefaultShards). budgetBytes ≤ 0 disables the tier.
func NewLatent(budgetBytes int64, shards int) *Latent {
	return &Latent{s: New[*adtd.MetaEncoding](budgetBytes, shards, EncodingBytes)}
}

// SetMetrics attaches obs handles for the tier's hit/miss/eviction
// counters.
func (c *Latent) SetMetrics(m *TierMetrics) { c.s.SetMetrics(m) }

// Enabled reports whether the tier can store anything.
func (c *Latent) Enabled() bool { return c.s.Enabled() }

// Put offers the producer's encoding to the cache and reports whether it
// was consumed. Three outcomes:
//
//   - disabled or encoding larger than a shard's budget → false (caller
//     keeps ownership and should Release);
//   - key already present (the steady-state re-Put after a Phase-1 pass
//     over an unchanged chunk) → recency refreshed, skipped copy counted,
//     false — the fresh duplicate goes back to the arena. A key is a content
//     key: it hashes everything the metadata tower reads and the weight
//     generation, so two encodings under one key are equal;
//   - otherwise the encoding's graph-free Detach view is stored → true,
//     and the caller must not Release it.
func (c *Latent) Put(key string, enc *adtd.MetaEncoding) bool {
	if !c.s.Enabled() || c.s.Touch(key) {
		return false
	}
	return c.s.Put(key, enc.Detach())
}

// Get returns the cached encoding (shared, read-only) or nil on miss.
func (c *Latent) Get(key string) *adtd.MetaEncoding {
	enc, _ := c.s.Get(key)
	return enc
}

// Len returns the number of cached encodings.
func (c *Latent) Len() int { return c.s.Len() }

// Bytes returns the accounted bytes.
func (c *Latent) Bytes() int64 { return c.s.Bytes() }

// Stats returns a snapshot of the tier counters.
func (c *Latent) Stats() Stats { return c.s.Stats() }
