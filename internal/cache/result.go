package cache

// Result is the content-hash result tier: it memoizes per-chunk model
// outputs (per-column probability rows) keyed by a hash of everything that
// determines them — column metadata, scanned values for the content phase,
// the detector's knob set, and the model generation counter (see
// internal/core/cachekeys.go for the key construction). Because the key
// covers the inputs by content, a change to the underlying table data
// produces a different key and the stale entry simply ages out; a change
// to the model (SetTrain, Load) bumps the generation and orphans every old
// key in O(1).
//
// Values are [][]float64 probability rows shared with the detection
// pipeline; they are immutable by contract (the pipeline never mutates
// probability rows after the model returns them — Report assembly only
// reads them).
type Result struct {
	s *Sharded[[][]float64]
}

// probsBytes accounts one cached result: row payloads plus slice headers
// plus fixed entry overhead.
func probsBytes(rows [][]float64) int64 {
	b := int64(entryOverhead)
	for _, r := range rows {
		b += int64(len(r))*8 + 48
	}
	return b
}

// NewResult creates the result tier bounded by budgetBytes across shards
// (≤ 0 shards selects DefaultShards). budgetBytes ≤ 0 disables the tier.
func NewResult(budgetBytes int64, shards int) *Result {
	return &Result{s: New[[][]float64](budgetBytes, shards, probsBytes)}
}

// SetMetrics attaches obs handles for the tier's counters.
func (c *Result) SetMetrics(m *TierMetrics) { c.s.SetMetrics(m) }

// Enabled reports whether the tier can store anything. Callers use this to
// skip key hashing entirely when the tier is off.
func (c *Result) Enabled() bool { return c.s.Enabled() }

// Get returns the memoized probability rows for key.
func (c *Result) Get(key string) ([][]float64, bool) { return c.s.Get(key) }

// Put memoizes rows under key. The rows become cache-owned and must not be
// mutated afterwards.
func (c *Result) Put(key string, rows [][]float64) {
	if !c.s.Enabled() {
		return
	}
	c.s.Put(key, rows)
}

// Len returns the number of memoized entries.
func (c *Result) Len() int { return c.s.Len() }

// Bytes returns the accounted bytes.
func (c *Result) Bytes() int64 { return c.s.Bytes() }

// Stats returns a snapshot of the tier counters.
func (c *Result) Stats() Stats { return c.s.Stats() }
